import concurrent.futures
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "deterministic",
    settings(derandomize=True, max_examples=40, deadline=None,
             suppress_health_check=[HealthCheck.too_slow]),
)
settings.load_profile("deterministic")


@pytest.fixture
def in_process_pool(monkeypatch):
    """A fake executor in place of the thread pool of
    ``search._run_ring_tasks``: it runs every task in this thread as it is
    submitted.  ``search._POOL_AFTER_S`` is 0, so a call that may use a
    pool hands it every task.  Returns the size of each pool started, in
    order."""
    from matsemi import search

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn):
            fut = concurrent.futures.Future()
            fut.set_result(fn())
            return fut

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InProcessPool)
    monkeypatch.setattr(search, "_POOL_AFTER_S", 0)
    return sizes


def whole_grid_law(op, dom, cod, imgs):
    """One bool per row of the image stack ``imgs`` (maps dom -> cod):
    whether phi(x o y) = phi(x) o phi(y) for ``op`` on every pair, read
    from whole grids of the two tables."""
    imgs = np.asarray(imgs)
    d, c = getattr(dom, op), getattr(cod, op)
    return (imgs[:, d] == c[imgs[:, :, None], imgs[:, None, :]]).all(axis=(1, 2))


def random_mutants(ring, seed, count: int):
    """``count`` pairs of ``ring``'s add and mul tables with one to three
    entries changed among them, each as ``(trial, add, mul)``."""
    n = ring.size
    rng = np.random.default_rng(seed)
    for trial in range(count):
        tables = {"add": ring.add.copy(), "mul": ring.mul.copy()}
        for _ in range(int(rng.integers(1, 4))):
            t = tables[("add", "mul")[int(rng.integers(2))]]
            x, y = (int(v) for v in rng.integers(0, n, 2))
            t[x, y] = (int(t[x, y]) + int(rng.integers(1, n))) % n
        yield trial, tables["add"], tables["mul"]


CORPUS_SPECS = (
    ["zmod:%d" % n for n in range(1, 9)]
    + ["gauss:2", "gauss:3",
       "mat:2:zmod:2", "mat:2:zmod:3", "mat:2:zmod:4",
       "mat:2:gauss:2", "mat:2:gauss:3"]
)


@pytest.fixture(scope="session")
def corpus():
    """All corpus rings keyed by spec, with the total build duration."""
    from matsemi.rings import parse_ring_spec

    t0 = time.monotonic()
    rings = {spec: parse_ring_spec(spec) for spec in CORPUS_SPECS}
    return {"rings": rings, "build_seconds": time.monotonic() - t0}


@pytest.fixture(scope="session")
def small_rings():
    from matsemi.rings import make_gaussian, make_zmod

    return {
        "z1": make_zmod(1), "z2": make_zmod(2), "z3": make_zmod(3),
        "z4": make_zmod(4), "z5": make_zmod(5), "z6": make_zmod(6),
        "g2": make_gaussian(2), "g3": make_gaussian(3),
    }
