"""Verification suites and enumeration run on the ring objects they are
given, at every worker count, whatever the rings' labels say."""

import pytest

import matsemi.verify
from matsemi.errors import SizeCapExceeded
from matsemi.rings import RingTable, make_gaussian, make_matrix_ring, make_zmod
from matsemi.search import enumerate_multiplicative_maps
from matsemi.verify import (
    verify_corner_equivalence,
    verify_tensor_equivalence,
    verify_witness_suite,
)


def _copy(ring: RingTable, label: str) -> RingTable:
    """A hand-assembled ring with the tables of ``ring`` under ``label``."""
    return RingTable(ring.add, ring.mul, ring.zero, ring.one, star=ring.star,
                     i_elem=ring.i_elem, label=label)


def _without_labels(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k not in ("dom", "cod")}


@pytest.mark.parametrize("workers", [1, 2])
def test_tensor_on_unparseable_ring(workers):
    rep = verify_tensor_equivalence(_copy(make_zmod(4), "ring"), workers=workers)
    want = verify_tensor_equivalence(make_zmod(4))
    assert rep.dom == rep.cod == "ring"
    assert _without_labels(rep.to_json()) == _without_labels(want.to_json())


@pytest.mark.parametrize("workers", [1, 2])
def test_prop1_on_unparseable_rings(workers):
    z2 = _copy(make_zmod(2), "ring")
    dom = make_matrix_ring(z2, 2).ring
    rep = verify_corner_equivalence(dom, z2, workers=workers)
    want = verify_corner_equivalence(make_matrix_ring(make_zmod(2), 2).ring,
                                     make_zmod(2))
    assert rep.dom == "mat:2:ring" and rep.passed
    assert _without_labels(rep.to_json()) == _without_labels(want.to_json())


@pytest.mark.parametrize("workers", [1, 2])
def test_mislabelled_ring_uses_its_own_tables(workers):
    g2 = make_gaussian(2)
    fake = _copy(g2, "zmod:4")
    res = enumerate_multiplicative_maps(fake, fake, workers=workers)
    want = enumerate_multiplicative_maps(g2, g2)
    assert [m.img.tolist() for m in res.maps] == [m.img.tolist() for m in want.maps]
    assert (res.nodes, res.exhaustive) == (want.nodes, want.exhaustive)

    rep = verify_tensor_equivalence(fake, workers=workers)
    assert rep.dom == "zmod:4" and rep.ring_homs == 3
    assert _without_labels(rep.to_json()) == _without_labels(
        verify_tensor_equivalence(g2).to_json())


def test_witness_suite_checks_pair_scan_cap_first(monkeypatch):
    """A ring built under a larger cap is refused by the suite's pair-scan
    cap before any scan or unit computation runs."""
    def not_reached(*args, **kwargs):
        raise AssertionError("scan ran before the size caps were checked")

    for name in ("corner_product_identity_check", "uv_product_identity_check", "units"):
        monkeypatch.setattr(matsemi.verify, name, not_reached)
    with pytest.raises(SizeCapExceeded,
                       match=r"^pair scan over 11\^2 parameter pairs exceeds the cap$"):
        verify_witness_suite(make_zmod(11), size_cap=10)
