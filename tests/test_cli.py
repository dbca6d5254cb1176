"""Command-line interface: exit codes, formats, determinism, replay."""

import json
import os
import subprocess
import sys

import pytest

from matsemi.cli import main
from matsemi.maps import constant_map, determinant_map, identity_map, power_map
from matsemi.rings import make_gaussian, make_matrix_ring, make_zmod


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
     "inverse scan over 33232930569601 candidate matrices exceeds cap 1000000"),
    ("zmod:11", "10", "pair scan over 11^2 parameter pairs exceeds the cap"),
], ids=["inverse-scan-cap", "pair-scan-cap"])
def test_verify_witnesses_checks_size_caps_before_scanning(spec, env_cap, message,
                                                          monkeypatch, capsys):
    """Over either size cap the suite exits 2 with the cap's message, and
    neither identity scan nor the unit computation has run."""
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


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit2(workers, capsys):
    for argv in (["enumerate", "--dom", "zmod:2", "--cod", "zmod:2"],
                 ["verify", "tensor", "--dom", "zmod:2"]):
        _assert_one_line_error(*run_cli(*argv, "--workers", workers), capsys)


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
