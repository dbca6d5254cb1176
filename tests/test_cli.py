"""Command-line interface: exit codes, formats, determinism, replay."""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys

import pytest

from matsemi.cli import main
from matsemi.maps import constant_map, determinant_map, identity_map, power_map
from matsemi.rings import (
    make_gaussian,
    make_matrix_ring,
    make_zmod,
    op_closure,
    parse_ring_spec,
)


@pytest.fixture(scope="module")
def map_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("maps")
    m = make_matrix_ring(make_zmod(2), 2)
    mg = make_matrix_ring(make_gaussian(2), 2).ring
    files = {}
    for name, phi in [
        ("det", determinant_map(m)),
        ("identity", identity_map(m.ring)),
        ("cube", power_map(make_zmod(4), 3)),
        ("cube_z9", power_map(make_zmod(9), 3)),
        ("id_z4", identity_map(make_zmod(4))),
        ("id_mg2", identity_map(mg)),
        ("idem_mg2", constant_map(mg, mg, 5)),  # 5 is idempotent, not 1
    ]:
        p = d / f"{name}.json"
        p.write_text(json.dumps(phi.to_json()))
        files[name] = str(p)
    bad = d / "bad.json"
    bad.write_text("{not json")
    files["bad"] = str(bad)
    return files


def run_cli(*argv, capsys=None):
    """Invoke main() in-process and capture stdout."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_ring_info_json():
    code, out = run_cli("ring", "info", "zmod:4")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 4
    assert doc["units"] == 2
    assert doc["valid"] is True


def test_ring_info_matrix():
    code, out = run_cli("ring", "info", "mat:2:zmod:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 16 and doc["units"] == 6
    assert doc["matrix"]["base"] == "zmod:2"


def test_ring_info_gauss():
    code, out = run_cli("ring", "info", "gauss:3")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 9 and doc["has_i"] is True


def test_ring_info_parse_error_exit2():
    code, _ = run_cli("ring", "info", "zmod:zero")
    assert code == 2


def test_ring_info_size_cap_exit2():
    code, _ = run_cli("ring", "info", "mat:2:zmod:40", "--size-cap", "100")
    assert code == 2


def test_ring_info_formats():
    for fmt in ("json", "csv", "text"):
        code, out = run_cli("ring", "info", "zmod:4", "--format", fmt)
        assert code == 0 and out


def test_map_check_det_fails_corner(map_files):
    code, out = run_cli("map", "check", map_files["det"], "--mult", "--corner")
    assert code == 1
    doc = json.loads(out)
    preds = {c["predicate"]: c["pass"] for c in doc["checks"]}
    assert preds["multiplicative"] is True
    assert preds["corner_relation"] is False


def test_map_check_identity_passes(map_files):
    code, out = run_cli("map", "check", map_files["identity"],
                        "--mult", "--add", "--corner")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_map_check_malformed_exit2(map_files):
    code, _ = run_cli("map", "check", map_files["bad"], "--mult")
    assert code == 2


def test_map_check_missing_file_exit2():
    code, _ = run_cli("map", "check", "/nonexistent.json", "--mult")
    assert code == 2


def test_map_check_requires_a_check(map_files):
    code, _ = run_cli("map", "check", map_files["det"])
    assert code == 2


def test_map_check_calls_the_predicate_on_the_module(map_files, monkeypatch):
    """``map check`` looks each predicate up on ``matsemi.maps`` when it
    runs, so a wrapper installed there (as a tracer does) sees the call."""
    from matsemi import maps

    calls = []
    predicate = maps.is_multiplicative

    def counted(phi):
        calls.append(phi.dom.label)
        return predicate(phi)

    monkeypatch.setattr(maps, "is_multiplicative", counted)
    code, _ = run_cli("map", "check", map_files["det"], "--mult")
    assert (code, calls) == (0, ["mat:2:zmod:2"])


def test_map_check_csv(map_files):
    code, out = run_cli("map", "check", map_files["det"],
                        "--mult", "--add", "--format", "csv")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "predicate,pass,checked,violations"
    assert len(lines) == 3


def test_verify_prop1():
    code, out = run_cli("verify", "prop1", "--dom", "mat:2:zmod:2",
                        "--cod", "zmod:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["sets_equal"] and doc["enumeration_matches"]
    assert doc["multiplicative"] == 3


def test_verify_witnesses():
    code, out = run_cli("verify", "witnesses", "--ring", "zmod:4")
    assert code == 0
    assert json.loads(out)["all_invertible"] is True


def test_verify_doubling_conflict_exit1(map_files):
    code, out = run_cli("verify", "doubling-gl", "--map", map_files["cube"])
    assert code == 1
    doc = json.loads(out)
    conflicts = doc["trace"]["conflicts"]
    assert conflicts[0][:3] == [1, 1, 1]  # level 1, pair (1, 1)


def test_verify_doubling_pass_and_replay(map_files, tmp_path):
    code, out = run_cli("verify", "doubling-gl", "--map", map_files["id_z4"])
    assert code == 0
    trace = json.loads(out)["trace"]
    tracefile = tmp_path / "trace.json"
    tracefile.write_text(json.dumps(trace))
    code, out = run_cli("verify", "doubling-gl", "--replay", str(tracefile))
    assert code == 0
    assert json.loads(out)["identical"] is True


def test_verify_replay_csv_prints_key_value_rows(map_files, tmp_path):
    """Replay CSV has the key,value rows of every other verify suite; text
    keeps its one replay line."""
    code, out = run_cli("verify", "doubling-gl", "--map", map_files["id_z4"])
    tracefile = tmp_path / "trace.json"
    tracefile.write_text(json.dumps(json.loads(out)["trace"]))
    code, out = run_cli("verify", "doubling-gl", "--replay", str(tracefile),
                        "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["key,value", "suite,doubling-gl",
                                f"replay,{tracefile}", "identical,True",
                                "pass,True"]
    code, out = run_cli("verify", "doubling-gl", "--replay", str(tracefile),
                        "--format", "text")
    assert code == 0 and out == "replay identical\n"


def test_verify_replay_detects_tampering(map_files, tmp_path):
    code, out = run_cli("verify", "doubling-gl", "--map", map_files["id_z4"])
    trace = json.loads(out)["trace"]
    trace["extension"][0][1] = 3  # forge an extension value
    tracefile = tmp_path / "tampered.json"
    tracefile.write_text(json.dumps(trace))
    code, out = run_cli("verify", "doubling-gl", "--replay", str(tracefile))
    assert code == 1
    assert json.loads(out)["identical"] is False


def test_verify_missing_args_exit2():
    assert run_cli("verify", "prop1")[0] == 2
    assert run_cli("verify", "witnesses")[0] == 2
    assert run_cli("verify", "doubling-gl")[0] == 2


def test_enumerate_ndjson_stream():
    code, out = run_cli("enumerate", "--dom", "zmod:2", "--cod", "zmod:2")
    assert code == 0
    lines = out.strip().splitlines()
    maps = [json.loads(l) for l in lines[:-1]]
    summary = json.loads(lines[-1])["summary"]
    assert [m["img"] for m in maps] == [[0, 0], [0, 1], [1, 1]]
    assert summary["count"] == 3 and summary["exhaustive"] is True


def test_enumerate_limit_lexicographically_least():
    code, out = run_cli("enumerate", "--dom", "zmod:2", "--cod", "zmod:2",
                        "--limit", "1")
    lines = out.strip().splitlines()
    assert json.loads(lines[0])["img"] == [0, 0]


def test_enumerate_filter_flag():
    code, out = run_cli("enumerate", "--dom", "mat:2:zmod:2", "--cod", "zmod:2",
                        "--filter", "corner")
    assert code == 0
    lines = out.strip().splitlines()
    maps = [json.loads(l) for l in lines[:-1]]
    assert len(maps) == 1  # only the zero map survives


def test_enumerate_csv():
    code, out = run_cli("enumerate", "--dom", "zmod:2", "--cod", "zmod:2",
                        "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "index,img"
    assert lines[1] == "0,0 0"


_MULT_ROW = ('{"predicate":"multiplicative","pass":true,"witnesses":[],'
             '"counts":{"checked":65536,"violations":0,"unital":%d}}')
_REL_ROWS = {
    ("unital", True): '{"predicate":"unital","pass":true,"witnesses":[],'
                      '"counts":{"checked":1,"violations":0}}',
    ("unital", False): '{"predicate":"unital","pass":false,"witnesses":[[65]],'
                       '"counts":{"checked":1,"violations":1}}',
    ("i-relation", True): '{"predicate":"i_relation","pass":true,"witnesses":[],'
                          '"counts":{"checked":1,"violations":0}}',
    ("i-relation", False): '{"predicate":"i_relation","pass":false,'
                           '"witnesses":[[130,64,1]],'
                           '"counts":{"checked":1,"violations":1}}',
}


@pytest.mark.parametrize("relation", ["unital", "i-relation"])
@pytest.mark.parametrize("with_mult", [(), ("--mult",)], ids=["alone", "after-mult"])
@pytest.mark.parametrize("name,ok", [("id_mg2", True), ("idem_mg2", False)])
def test_map_check_relation_rows_pinned(map_files, relation, with_mult, name, ok):
    """``--unital`` and ``--i-relation`` rows on M2(Z2[i]), alone and with
    ``--mult`` (flag given before or after it): the multiplicative row
    always comes first, and the exit code follows the relation."""
    rows = [_MULT_ROW % ok] if with_mult else []
    rows.append(_REL_ROWS[relation, ok])
    expected = ('{"map":{"dom":"mat:2:gauss:2","cod":"mat:2:gauss:2"},'
                '"checks":[%s],"pass":%s}\n' % (",".join(rows), str(ok).lower()))
    for flags in {(f"--{relation}", *with_mult), (*with_mult, f"--{relation}")}:
        code, out = run_cli("map", "check", map_files[name], *flags)
        assert (code, out) == (0 if ok else 1, expected)


# ---------------------------------------------------------------------------
# Malformed input: exit 2 with a one-line error, never a traceback


def _assert_one_line_error(code, out, capsys):
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec,env_cap,message", [
    ("mat:2:zmod:7", None,
     "inverse scan over 33232930569601 candidate matrices exceeds cap 10000"),
    ("zmod:11", "10", "inverse scan over 14641 candidate matrices exceeds cap 10000"),
], ids=["inverse-scan-cap", "flag-over-env-cap"])
def test_verify_witnesses_checks_size_caps_before_scanning(spec, env_cap, message,
                                                          monkeypatch, capsys):
    """Over the size cap the suite exits 2 with the cap's message, and
    neither identity scan nor the unit computation has run; ``--size-cap``
    bounds the scans, also over ``MATSEMI_SIZE_CAP``."""
    import matsemi.verify

    def not_reached(*args, **kwargs):
        raise AssertionError("scan ran before the size caps were checked")

    for name in ("corner_product_identity_check", "uv_product_identity_check", "units"):
        monkeypatch.setattr(matsemi.verify, name, not_reached)
    if env_cap is not None:
        monkeypatch.setenv("MATSEMI_SIZE_CAP", env_cap)
    code, out = run_cli("verify", "witnesses", "--ring", spec, "--size-cap", "10000")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("spec,digest", [
    ("zmod:1", "208245712430c590e9b68c4b0f48bc8e4fb8c872d3870a55879836516a87c7ad"),
    ("zmod:2", "d04a0f30aa2e5e098735a83cd4e56bc377a1ab1946f2eb9a9719796e63465e22"),
    ("zmod:3", "d80208624203753a28841a15ad8e7ef437c171510839d5abe6b78b503b2c7aee"),
    ("zmod:4", "43a36fe7b47ec60fe42947264895134854e2f583cd71bd8232226488e4fa6cc1"),
    ("zmod:5", "fc0aa39771d80c8921c1a9e2ddbd7ed5fdd31c164dbe25d15b09b94b658660c5"),
    ("zmod:6", "14ec2bd5ea3f4049657acbff0352b38983313c1e7d2e38e23bd8b9adf6771150"),
    ("zmod:7", "5ccb3c7ee4f1980ab1181fc70a7aaaf91c82b534f081b49e893a6f04b2257f2c"),
    ("zmod:8", "d29ed6e62d7384c26656b3fb0013654e0c8bc33cf7e6985d326f6060eaec126d"),
    ("gauss:1", "50ec9b9fe3a786fa00724f1ea59792e1a1c6a07892619e72a022a05095f905af"),
    ("gauss:2", "dbaeb088bed717e94417c630f39a4ce1c0544b8dc5cfa03468f41455b5df147e"),
    ("gauss:3", "19f05bbe6a90c27ed5b8fc35c09b46afd758b38d8d117c8c5187ffccd46da3ad"),
])
def test_verify_witnesses_stdout_pinned(spec, digest):
    """The json report of ``verify witnesses`` is pinned byte for byte."""
    code, out = run_cli("verify", "witnesses", "--ring", spec)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


@pytest.mark.parametrize("argv,code,digests", [
    (("prop1", "--dom", "mat:2:zmod:2", "--cod", "zmod:2"), 0, (
        "35fc80397ca1ece4ef1a258fae441c58204b2e52dbba4d839ef22bf94588d655",
        "d6ecf1986104b2f512e907ffe7f1e6a738448b62162ba41ceb6affa2cab1f37a",
        "612d6e826cbf5beb98b44a83666e306f38eb8ec16731076a497d30a667c09b20")),
    (("tensor", "--dom", "zmod:3"), 1, (
        "9d266e49960f579394c39a03f7e01022df3546344495ec09d26166e8bbe7a16d",
        "ce6e7a0e72a9e2a83553266aa0cb5d3bc8938f697e96298bedf2125f5af2b1b1",
        "3d77984c8dca7c677c6a4a0e950e46fcfd22705396ade80be35ed8f9f49a7258")),
    (("tensor", "--dom", "gauss:2"), 0, (
        "3cf874d07f4804a87798c5a5ec94cf7d3afd64a893ec33c2843a84d419d998c2",
        "69f55c2d855fa9bf15f9f150fdbb2d5cdedec783f3c4b91abed885009640a12a",
        "86069390a5526aff9ee7555abcd25236961554fdf954e0c745ba00310fa77e8f")),
    (("i-relation", "--dom", "mat:2:gauss:2", "--cod", "mat:2:gauss:2"), 0, (
        "9bdc03eeed7df6f49cf967211e1b0e6f0af09815ab5de760d46d545fa7a19160",
        "a307ffce6a9cc34e5f736a4b42db3ba41d92d6234fbd7572730936c8ad9ef6de",
        "d8467cc7acbe786ddf914ac19738869fe9fa7df953878e6d168084b278c69c36")),
], ids=["prop1", "tensor-zmod3", "tensor-gauss2", "i-relation"])
def test_verify_suite_stdout_pinned(argv, code, digests):
    """The json, csv and text reports of the function-space and search
    suites are pinned byte for byte, with their exit codes.  The
    i-relation search on M2(Z2[i]) is exhaustive within the default budget
    (9 maps, 1885 nodes)."""
    got = []
    for fmt in ("json", "csv", "text"):
        rc, out = run_cli("verify", *argv, "--format", fmt)
        got.append((rc, hashlib.sha256(out.encode()).hexdigest()))
    assert got == [(code, d) for d in digests]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_tensor_zmod6_stdout_pinned(workers):
    """``verify tensor --dom zmod:6`` scans 6**6 functions in 6 chunks and
    exits 1: 4 ring homs, 6 lift-multiplicative maps."""
    code, out = run_cli("verify", "tensor", "--dom", "zmod:6", "--workers", workers)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        1, "07eeaebc65069ab4a0603aceff4c3894a078418997b2aa92d4437e3bc71192d6")
    doc = json.loads(out)
    assert (doc["ring_homs"], doc["lift_multiplicative"]) == (4, 6)


@pytest.mark.parametrize("argv,digest", [
    (("verify", "prop1", "--dom", "mat:2:zmod:2", "--cod", "zmod:2"),
     "35fc80397ca1ece4ef1a258fae441c58204b2e52dbba4d839ef22bf94588d655"),
    (("enumerate", "--dom", "mat:2:zmod:3", "--cod", "mat:2:zmod:3", "--filter", "star"),
     "1aae927b5d17a5aa77a7b54e591318676597589df8bc645fd527ca3845aa1669"),
], ids=["prop1", "enumerate-star"])
def test_light_commands_start_no_pool_at_two_workers(argv, digest, monkeypatch):
    """Commands whose tasks finish within ``search._POOL_AFTER_S`` of CPU
    time run them all in this thread at ``--workers 2`` and print the
    one-worker bytes (pinned in CI too)."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    code, out = run_cli(*argv, "--workers", "2")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def test_verify_doubling_stdout_pinned(map_files):
    """The doubling reports of the zmod:9 cube are pinned byte for byte.
    Under doubling-unitary the map certifies new elements at levels 1 and
    2 and lists the first 64 of its 122 conflicts, so the pins cover the
    levels that carry over conflicts and the cap."""
    got = []
    for suite, fmt in (("doubling-unitary", "json"), ("doubling-unitary", "csv"),
                       ("doubling-unitary", "text"), ("doubling-gl", "json")):
        rc, out = run_cli("verify", suite, "--map", map_files["cube_z9"], "--format", fmt)
        got.append((rc, hashlib.sha256(out.encode()).hexdigest()))
    assert got == [(1, d) for d in (
        "584ccddb27670f55a4861393be4f59682d6017d14621c37945285c73ddae96b3",
        "d8ba264579bdf5313ddd7e016774a5f5f3d5282354bb4d22eedc2862258e1b87",
        "4ea770b7b4eeec11d158c02c434238c27d40dc9927e29725c2af9b55d0c5faf1",
        "d9d4d97db5f7fce0604bfb32098c9a1993a840d23bed94a4fea8f12452ff9244")]
    _, out = run_cli("verify", "doubling-unitary", "--map", map_files["cube_z9"])
    trace = json.loads(out)["trace"]
    assert [lv["new_certified"] > 0 for lv in trace["levels"]] == [True, True, False, False]
    assert (trace["conflicts_total"], len(trace["conflicts"])) == (122, 64)


@pytest.mark.parametrize("env_cap", [None, "100"], ids=["flag", "flag-and-env"])
def test_verify_witnesses_applies_size_cap_flag_to_the_scans(env_cap, monkeypatch, capsys):
    """``--size-cap 100`` refuses the 4**4-candidate inverse scan over
    zmod:4 exactly as ``MATSEMI_SIZE_CAP=100`` does, and a flag above the
    scan sizes lets the suite run under a smaller environment cap."""
    monkeypatch.delenv("MATSEMI_SIZE_CAP", raising=False)
    if env_cap is not None:
        monkeypatch.setenv("MATSEMI_SIZE_CAP", env_cap)
        _assert_one_line_error(*run_cli("verify", "witnesses", "--ring", "zmod:4"), capsys)
        assert run_cli("verify", "witnesses", "--ring", "zmod:4",
                       "--size-cap", "1000")[0] == 0
        capsys.readouterr()
    code, out = run_cli("verify", "witnesses", "--ring", "zmod:4", "--size-cap", "100")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: inverse scan over 256 candidate matrices exceeds cap 100\n")


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("env_cap", [None, "100"], ids=["flag", "flag-and-env"])
def test_verify_tensor_applies_size_cap_flag_to_the_lift(env_cap, workers,
                                                         monkeypatch, capsys):
    """``--size-cap 100`` refuses the 256-element lift M2(Z4) exactly as
    ``MATSEMI_SIZE_CAP=100`` does, before any function is scanned, and a
    flag above the lift size lets the suite run under a smaller
    environment cap."""
    import matsemi.verify

    def not_reached(*args, **kwargs):
        raise AssertionError("functions scanned before the lift was capped")

    monkeypatch.delenv("MATSEMI_SIZE_CAP", raising=False)
    if env_cap is not None:
        monkeypatch.setenv("MATSEMI_SIZE_CAP", env_cap)
        assert run_cli("verify", "tensor", "--dom", "zmod:4", "--size-cap", "1000",
                       "--workers", workers)[0] == 0
        capsys.readouterr()
    monkeypatch.setattr(matsemi.verify, "_run_ring_tasks", not_reached)
    code, out = run_cli("verify", "tensor", "--dom", "zmod:4", "--size-cap", "100",
                        "--workers", workers)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: matrix ring 'mat:2:zmod:4' has 256 elements, cap is 100\n")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit2(workers, capsys):
    for argv in (["enumerate", "--dom", "zmod:2", "--cod", "zmod:2"],
                 ["verify", "tensor", "--dom", "zmod:2"]):
        _assert_one_line_error(*run_cli(*argv, "--workers", workers), capsys)


# Forms that int() reads as integers but an integer input refuses: an
# underscore, a leading space, a plus sign and an Arabic-Indic digit one.
_LOOSE_INTS = pytest.mark.parametrize("text", ["1_0", " 1", "+1", "١"],
                                      ids=["underscore", "space", "plus", "non-ascii"])


@_LOOSE_INTS
@pytest.mark.parametrize("flag", ["--limit", "--workers", "--size-cap"])
def test_integer_flags_take_ascii_digits_only(flag, text, capsys):
    """An integer flag takes an optional ``-`` and ASCII digits only: any
    other form exits 2 through argparse, as ``--workers abc`` does."""
    for argv in (["enumerate", "--dom", "zmod:2", "--cod", "zmod:2"],
                 ["verify", "i-relation", "--dom", "mat:2:zmod:2"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, flag, text)
        assert exc.value.code == 2
        assert (f"argument {flag}: invalid decimal_int value: {text!r}"
                in capsys.readouterr().err)


@_LOOSE_INTS
def test_env_size_cap_takes_ascii_digits_only(text, monkeypatch, capsys):
    """``MATSEMI_SIZE_CAP`` follows the rule of the integer flags; any other
    form exits 2 with one error line."""
    monkeypatch.setenv("MATSEMI_SIZE_CAP", text)
    assert run_cli("ring", "info", "zmod:2") == (2, "")
    assert capsys.readouterr().err == (
        f"error: MATSEMI_SIZE_CAP must be an integer, got {text!r}\n")


@pytest.mark.parametrize("argv,message", [
    (("enumerate", "--dom", "gauss:3", "--cod", "gauss:3", "--filter", "i_relation"),
     "ring gauss:3 was not built as a 2x2 matrix ring"),
    (("verify", "i-relation", "--dom", "gauss:3"),
     "ring gauss:3 was not built as a 2x2 matrix ring"),
    (("verify", "i-relation", "--dom", "mat:2:zmod:3"),
     "ring mat:2:zmod:3 carries no imaginary unit"),
], ids=["enumerate-gauss3", "verify-gauss3", "verify-m2z3"])
def test_i_relation_on_a_ring_without_its_elements_exit2(argv, message, capsys):
    """The i-relation search reads e11, e22 and i of the domain; a domain
    that is not a 2x2 matrix ring or has no imaginary unit exits 2 with
    one error line."""
    code, out = run_cli(*argv)
    assert (code, out, capsys.readouterr().err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_verify_i_relation_limit_below_one_exit2(limit, capsys):
    _assert_one_line_error(*run_cli("verify", "i-relation", "--dom", "mat:2:zmod:2",
                                    "--limit", limit), capsys)


@pytest.mark.parametrize("argv,flag", [
    (["witnesses", "--ring", "zmod:4", "--limit", "3"], "--limit"),
    (["tensor", "--dom", "zmod:2", "--limit", "3"], "--limit"),
    (["witnesses", "--ring", "zmod:4", "--dom", "zmod:4"], "--dom"),
    (["doubling-gl", "--map", "{id_z4}", "--cod", "zmod:4"], "--cod"),
    (["prop1", "--dom", "mat:2:zmod:2", "--cod", "zmod:2", "--ring", "zmod:2"],
     "--ring"),
    (["tensor", "--dom", "zmod:4", "--map", "{id_z4}"], "--map"),
    (["i-relation", "--dom", "mat:2:zmod:2", "--replay", "{id_z4}"], "--replay"),
    (["witnesses", "--ring", "zmod:4", "--workers", "2"], "--workers"),
    (["doubling-gl", "--map", "{id_z4}", "--workers", "2"], "--workers"),
], ids=["limit-witnesses", "limit-tensor", "dom", "cod", "ring", "map",
        "replay", "workers", "workers-doubling"])
def test_verify_flag_the_suite_does_not_read_exit2(argv, flag, map_files, capsys):
    """A verify flag the chosen suite ignores is a usage error."""
    code, out = run_cli("verify", *[a.format(**map_files) for a in argv])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: verify {argv[0]} does not take {flag}\n"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--dom", "zmod:4", "--cod", "zmod:2", "--filter", "corner"],
    ["verify", "prop1", "--dom", "zmod:4", "--cod", "zmod:2"],
], ids=["enumerate-corner", "verify-prop1"])
def test_corner_relation_on_non_matrix_domain_exit2(argv, capsys):
    _assert_one_line_error(*run_cli(*argv), capsys)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_prop1_refuses_non_matrix_domain_before_scanning(workers, monkeypatch,
                                                                 capsys):
    """A prop1 domain not built as a 2x2 matrix ring exits 2 before any
    function is scanned, so no thread pool is started."""
    import matsemi.verify

    def not_reached(*args, **kwargs):
        raise AssertionError("functions scanned before the domain was checked")

    monkeypatch.setattr(matsemi.verify, "_run_ring_tasks", not_reached)
    code, out = run_cli("verify", "prop1", "--dom", "zmod:6", "--cod", "zmod:6",
                        "--workers", workers)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: ring zmod:6 was not built as a 2x2 matrix ring\n")


@pytest.mark.parametrize("trace", [
    [1, 2],
    "trace",
    {"mode": "units", "depth": 4, "zero_padding": True},
    {"map": {"dom": "zmod:4", "cod": "zmod:4", "img": [0, 1, 2, 3]},
     "mode": "units", "depth": 4},
    {"map": {"dom": "zmod:4", "cod": "zmod:4", "img": [0, 1, 2, 3]},
     "mode": "units", "depth": "4", "zero_padding": True},
])
def test_verify_replay_malformed_trace_exit2(trace, tmp_path, capsys):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace))
    _assert_one_line_error(
        *run_cli("verify", "doubling-gl", "--replay", str(path)), capsys)


_ID_Z4 = '{"dom": "zmod:4", "cod": "zmod:4", "img": [0, 1, 2, 3]}'


@pytest.mark.parametrize("argv,text", [
    (["verify", "doubling-gl", "--replay", "{path}"],
     '{"map": %s, "mode": "%s", "depth": 4, "zero_padding": true}'
     % (_ID_Z4, "u" * 100_000)),
    (["verify", "doubling-gl", "--replay", "{path}"],
     '{"map": %s, "mode": %s, "depth": 4, "zero_padding": true}'
     % (_ID_Z4, "[" * 960 + "]" * 960)),
    (["map", "check", "{path}", "--mult"],
     '{"dom": "%s", "cod": "zmod:2", "img": [0]}' % ("z" * 100_000)),
], ids=["replay-long-mode", "replay-deep-mode", "map-long-dom"])
def test_oversized_input_gives_a_short_error_line(argv, text, tmp_path):
    """A trace mode of 100000 characters or 960 nested lists, or a map
    domain spec of 100000 characters, exits 2 with one error line of at
    most 200 bytes: the replay names no bad mode, and a quoted spec is
    cut to 80 characters.  A fresh interpreter decodes the 960 levels,
    which the test runner's deeper stack might not."""
    path = tmp_path / "input.json"
    path.write_text(text)
    r = _run_subprocess(*[a.format(path=path) for a in argv])
    assert (r.returncode, r.stdout) == (2, b"")
    assert r.stderr.startswith(b"error: ") and r.stderr.count(b"\n") == 1
    assert len(r.stderr) <= 200


@pytest.mark.parametrize("made,replayed", [
    ("doubling-gl", "doubling-unitary"), ("doubling-unitary", "doubling-gl")])
def test_verify_replay_under_the_other_suite_exit2(made, replayed, map_files,
                                                   tmp_path, capsys):
    """A trace replays only under the suite whose pool made it."""
    code, out = run_cli("verify", made, "--map", map_files["id_z4"])
    trace = json.loads(out)["trace"]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace))
    assert run_cli("verify", made, "--replay", str(path))[0] == code == 0
    code, out = run_cli("verify", replayed, "--replay", str(path))
    mode = "unitaries" if replayed == "doubling-unitary" else "units"
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: verify {replayed} replays {mode!r} traces, not {trace['mode']!r}\n")


def test_verify_replay_refuses_map_exit2(map_files, tmp_path, capsys):
    """``--map`` and ``--replay`` together are a usage error, whether or
    not the map file exists."""
    code, out = run_cli("verify", "doubling-gl", "--map", map_files["id_z4"])
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(json.loads(out)["trace"]))
    for map_path in (map_files["id_z4"], str(tmp_path / "missing.json")):
        code, out = run_cli("verify", "doubling-gl", "--replay", str(path),
                            "--map", map_path)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: verify doubling-gl takes --map or --replay, not both\n")


def test_verify_replay_applies_size_cap(map_files, tmp_path, capsys):
    """``--size-cap`` bounds the replayed map's rings as it bounds ``--map``."""
    code, out = run_cli("verify", "doubling-gl", "--map", map_files["id_z4"])
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(json.loads(out)["trace"]))
    for source in (["--map", map_files["id_z4"]], ["--replay", str(path)]):
        _assert_one_line_error(
            *run_cli("verify", "doubling-gl", *source, "--size-cap", "2"), capsys)


@pytest.mark.parametrize("flags", [["--limit", "0"], ["--filter", "bogus"]],
                         ids=["limit-0", "unknown-filter"])
def test_enumerate_bad_query_exit2(flags, capsys):
    _assert_one_line_error(
        *run_cli("enumerate", "--dom", "zmod:4", "--cod", "zmod:4", *flags), capsys)


@pytest.mark.parametrize("name", ["corner_relation", "i-relation", "multiplicative"])
def test_enumerate_refuses_filter_spellings_outside_the_known_names(name, capsys):
    """Only the names in KNOWN_FILTERS select a filter; other spellings of
    them are unknown filters, a usage error."""
    code, out = run_cli("enumerate", "--dom", "zmod:4", "--cod", "zmod:4",
                        "--filter", name)
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith(f"error: unknown filter {name!r}; known: ")
    assert err.count("\n") == 1


def test_ring_info_beyond_dense_table_limit_exit2(monkeypatch, capsys):
    """A spec within the element cap whose tables exceed the dense-table
    limit (here patched down to 100 entries) is a usage error."""
    monkeypatch.setattr("matsemi.rings._DENSE_TABLE_ENTRY_LIMIT", 100)
    for spec in ("zmod:11", "gauss:4"):
        _assert_one_line_error(*run_cli("ring", "info", spec), capsys)


MALFORMED_INTEGER_SPECS = ["zmod:3_0", "zmod:+3", "zmod: 3", "zmod:\uff13",
                           "gauss:0_3", "mat:+2:zmod:3", "mat:2_0:zmod:1"]
WHITESPACE_SPECS = ["mat:2: zmod:3", " zmod:3 ", "mat: 2:zmod:3", "zmod:3\n",
                    "\tmat:2:zmod:2"]


@pytest.mark.parametrize("spec", MALFORMED_INTEGER_SPECS + WHITESPACE_SPECS)
def test_ring_spec_integers_are_ascii_digits_exit2(spec, tmp_path, capsys):
    """A modulus or dimension that ``int`` would coerce (underscores, a
    sign, a space, a fullwidth digit), and whitespace anywhere in a spec,
    which would otherwise be stripped, are usage errors, in ``ring info``
    and as a map file's ``dom`` or ``cod``."""
    _assert_one_line_error(*run_cli("ring", "info", spec), capsys)
    for field in ("dom", "cod"):
        doc = {"dom": "zmod:3", "cod": "zmod:3", "img": [0, 1, 2]}
        doc[field] = spec
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps(doc))
        _assert_one_line_error(*run_cli("map", "check", str(path), "--mult"), capsys)


@pytest.mark.parametrize("spec", ["mat:8:zmod:1", "mat:8:gauss:1"])
def test_ring_info_one_element_matrix_ring_k8(spec):
    """The 8x8 matrix ring over the one-element ring passes every cap and
    is valid; its product table needs no array of more than 64 axes."""
    code, out = run_cli("ring", "info", spec)
    doc = json.loads(out)
    assert code == 0 and doc["valid"] is True and doc["size"] == 1


@pytest.mark.parametrize("argv", [
    ["map", "check", "{path}", "--mult"],
    ["verify", "doubling-gl", "--map", "{path}"],
    ["verify", "doubling-gl", "--replay", "{path}"],
], ids=["map-check", "doubling-map", "replay"])
@pytest.mark.parametrize("content", [
    ("[" * 100000 + "]" * 100000).encode(),
    b'\xff{"dom": "zmod:2"}',
], ids=["deep-nested", "not-utf8"])
def test_unreadable_json_file_exit2(argv, content, tmp_path, capsys):
    """A map file or replay trace nested too deeply to decode, or not
    UTF-8, is a usage error with one error line, not a traceback."""
    path = tmp_path / "input.json"
    path.write_bytes(content)
    _assert_one_line_error(
        *run_cli(*(arg.format(path=path) for arg in argv)), capsys)


def test_ring_info_matrix_dimension_past_the_unit_grid_bound_exit2(capsys):
    """mat:119:zmod:1 passes the element cap and the dense-table limit,
    but its 14161 x 14161 grid of matrix-unit products does not."""
    _assert_one_line_error(*run_cli("ring", "info", "mat:119:zmod:1"), capsys)


@pytest.mark.parametrize("img", [[0, 1.7], [0, True], [0, "1"]])
def test_map_check_non_integer_img_exit2(img, tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"dom": "zmod:2", "cod": "zmod:2", "img": img}))
    _assert_one_line_error(*run_cli("map", "check", str(path), "--mult"), capsys)


# ---------------------------------------------------------------------------
# Subprocess-level checks: entry point, env var, byte determinism


def _run_subprocess(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "matsemi", *args],
        capture_output=True, env=full_env, timeout=600)


def test_subprocess_exit_codes():
    assert _run_subprocess("ring", "info", "zmod:4").returncode == 0
    assert _run_subprocess("ring", "info", "nonsense:4").returncode == 2
    assert _run_subprocess("totally-bogus-command").returncode == 2


def test_env_size_cap_respected():
    r = _run_subprocess("ring", "info", "mat:2:zmod:4",
                        env={"MATSEMI_SIZE_CAP": "100"})
    assert r.returncode == 2
    assert b"cap" in r.stderr


def test_worker_count_does_not_change_bytes():
    base = None
    for workers in ("1", "8"):
        r = _run_subprocess("verify", "prop1", "--dom", "mat:2:zmod:2",
                            "--cod", "zmod:2", "--workers", workers)
        assert r.returncode == 0
        if base is None:
            base = r.stdout
        else:
            assert r.stdout == base


def test_repeated_runs_byte_identical():
    a = _run_subprocess("enumerate", "--dom", "zmod:4", "--cod", "zmod:4")
    b = _run_subprocess("enumerate", "--dom", "zmod:4", "--cod", "zmod:4")
    assert a.stdout == b.stdout


def test_enumerate_workers_byte_identical():
    outs = [_run_subprocess("enumerate", "--dom", "mat:2:zmod:2",
                            "--cod", "zmod:2", "--workers", w).stdout
            for w in ("1", "3")]
    assert outs[0] and outs[0] == outs[1]


_STARTUP_MODULES = ["matsemi", "matsemi._closure", "matsemi.cli",
                    "matsemi.errors", "matsemi.rings"]
_SEARCH_MODULES = sorted(_STARTUP_MODULES + ["matsemi.maps", "matsemi.search"])
_ENUMERATE = 'main(["enumerate", "--dom", "mat:2:zmod:2", "--cod", "zmod:2", "--workers", "2"])'


@pytest.mark.parametrize("run,package,pool", [
    ("pass", _STARTUP_MODULES, False),
    ('main(["ring", "info", "zmod:4"])', _STARTUP_MODULES, False),
    # Its tasks finish within search._POOL_AFTER_S, so it starts no pool.
    (_ENUMERATE, _SEARCH_MODULES, False),
    ("import matsemi.search; matsemi.search._POOL_AFTER_S = 0; " + _ENUMERATE,
     _SEARCH_MODULES, True),
], ids=["import", "ring-info", "enumerate", "enumerate-pool"])
def test_commands_load_only_what_they_run(run, package, pool):
    """In a fresh interpreter, ``import matsemi.cli`` loads no more of the
    package than ``ring info`` runs; a command loads the modules it runs,
    and ``concurrent.futures`` (which loads ``logging``) only when it
    starts a pool.  Module sets, not timings, so the check holds on any
    host."""
    probe = "\n".join([
        "import contextlib, io, json, sys",
        "from matsemi.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    {run}",
        "print(json.dumps(sorted(m for m in sys.modules",
        "                        if m.split('.')[0] in ('matsemi', 'concurrent'))))",
    ])
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                       timeout=600, check=True)
    modules = json.loads(r.stdout)
    assert [m for m in modules if m.startswith("matsemi")] == package
    assert ("concurrent.futures" in modules) == pool


@pytest.mark.parametrize("argv", [
    ("verify", "i-relation", "--dom", "mat:2:gauss:2", "--cod", "mat:2:gauss:2"),
    ("enumerate", "--dom", "mat:2:zmod:3", "--cod", "mat:2:zmod:3", "--filter", "star"),
], ids=["verify-i-relation", "enumerate-star"])
def test_search_commands_byte_identical_across_workers_and_closure_cache(argv):
    """A search command prints the same bytes at --workers 1 and 2, both
    in a fresh process, where no closure is cached yet, and in this one
    after its rings' closures have been built."""
    outs = []
    for workers in ("1", "2"):
        r = _run_subprocess(*argv, "--workers", workers)
        assert r.returncode == 0
        outs.append(r.stdout.decode())
    for flag in ("--dom", "--cod"):
        ring = parse_ring_spec(argv[argv.index(flag) + 1])
        for op in ("mul", "add"):
            op_closure(ring, op)
    for workers in ("1", "2"):
        code, out = run_cli(*argv, "--workers", workers)
        assert code == 0
        outs.append(out)
    assert outs[0] and outs == [outs[0]] * 4
