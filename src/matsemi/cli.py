"""Command-line front end.

Subcommands: ``ring info``, ``map check``, ``verify``, ``enumerate``.
Output is deterministic: identical invocations produce byte-identical
JSON/CSV regardless of worker count, and no timing information is ever
emitted.  Exit codes: 0 = pass/complete, 1 = a mathematical violation was
found, 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import MatsemiError, PreconditionFailed, decimal_int

# Each handler imports the modules it runs, when it runs, so a command pays
# at start-up only for what it needs: ``ring info`` for nothing beyond
# ``rings``, which the package loads anyway.


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _emit(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _csv_rows(rows: list[list]) -> str:
    out = []
    for row in rows:
        cells = []
        for cell in row:
            s = str(cell)
            if "," in s or '"' in s:
                s = '"' + s.replace('"', '""') + '"'
            cells.append(s)
        out.append(",".join(cells))
    return "\n".join(out)


def _render(fmt: str, json_text: str, rows: list[list], lines: list[str]):
    """Write one report in ``fmt``: the JSON text as is, the rows as CSV,
    or the lines as text."""
    if fmt == "json":
        _emit(json_text)
    elif fmt == "csv":
        _emit(_csv_rows(rows))
    else:
        _emit("\n".join(lines))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="matsemi",
        description="Finite-ring multiplicative-map verification workbench")
    sub = p.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("json", "csv", "text"), default="json")
    shared.add_argument("--size-cap", type=decimal_int, default=None)

    ring = sub.add_parser("ring", help="ring inspection")
    ring_sub = ring.add_subparsers(dest="ring_command", required=True)
    info = ring_sub.add_parser("info", parents=[shared],
                               help="build a ring and run axiom scans")
    info.add_argument("spec", help="ring spec, e.g. zmod:4 or mat:2:gauss:3")
    info.set_defaults(handler=_cmd_ring_info)

    mp = sub.add_parser("map", help="map predicates")
    map_sub = mp.add_subparsers(dest="map_command", required=True)
    check = map_sub.add_parser("check", parents=[shared],
                               help="run predicate checks on a map file")
    check.add_argument("path", help="JSON map file {dom, cod, img}")
    for flag, _, text in _CHECKS:
        check.add_argument(flag, action="store_true", help=text)
    check.set_defaults(handler=_cmd_map_check)

    ver = sub.add_parser("verify", parents=[shared],
                         help="run a named verification suite")
    ver.add_argument("suite", choices=_SUITES)
    for flag, dest, kind, text in _VERIFY_FLAGS:
        ver.add_argument(flag, dest=dest, type=kind, help=text)
    ver.set_defaults(handler=_cmd_verify)

    en = sub.add_parser("enumerate", parents=[shared],
                        help="enumerate multiplicative maps")
    en.add_argument("--dom", required=True)
    en.add_argument("--cod", required=True)
    en.add_argument("--filter", action="append", default=[],
                    help="unital|star|corner|i_relation (repeatable)")
    en.add_argument("--limit", type=decimal_int, default=None)
    en.add_argument("--workers", type=decimal_int, default=1)
    en.set_defaults(handler=_cmd_enumerate)
    return p


def _cmd_ring_info(args) -> int:
    from .rings import parse_ring_spec, unitaries, units, validate_matrix_view, validate_ring

    ring = parse_ring_spec(args.spec, size_cap=args.size_cap)
    val = validate_ring(ring)
    view_ok = True
    view_info = None
    if ring.matrix_view is not None:
        vv = validate_matrix_view(ring.matrix_view)
        view_ok = vv.ok
        view_info = {"k": ring.matrix_view.k,
                     "base": ring.matrix_view.base.label,
                     "checks_pass": vv.ok}
    report = {
        "spec": ring.label,
        "size": ring.size,
        "zero": ring.zero,
        "one": ring.one,
        "valid": val.ok and view_ok,
        "units": int(units(ring).size),
        "unitaries": int(unitaries(ring).size) if ring.has_star else None,
        "has_star": ring.has_star,
        "has_i": ring.has_i,
        "i_elem": ring.i_elem,
        "matrix": view_info,
        "checks": {name: c.passed for name, c in val.checks.items()},
        "info": {k: v for k, v in val.info.items()
                 if not isinstance(v, list)},
    }
    rows = [["field", "value"]]
    rows += [[key, report[key]] for key in (
        "spec", "size", "zero", "one", "valid", "units", "unitaries",
        "has_star", "has_i", "i_elem")]
    lines = [f"ring {report['spec']}: size {report['size']}, "
             f"zero {report['zero']}, one {report['one']}",
             f"valid: {report['valid']}",
             f"units: {report['units']}, unitaries: {report['unitaries']}",
             f"imaginary unit: {report['i_elem']}"]
    lines += [f"  check {name}: {'pass' if ok else 'FAIL'}"
              for name, ok in report["checks"].items()]
    _render(args.format, _dump(report), rows, lines)
    return 0 if report["valid"] else 1


# The ``map check`` predicates as (flag, name in ``matsemi.maps``, help).
# Report rows follow this order, whatever the order of the flags.  The
# handler looks each name up when it runs, so a wrapper installed on the
# module (a tracer, a test's counter) sees the call.
_CHECKS = [
    ("--mult", "is_multiplicative", "multiplicativity scan"),
    ("--add", "is_additive", "additivity scan"),
    ("--ring-hom", "is_ring_hom", "both scans"),
    ("--star", "respects_star", "involution preservation"),
    ("--corner", "corner_relation_holds", "phi(1) = phi(e11) + phi(e22)"),
    ("--i-relation", "i_relation_holds", "phi(i) = i phi(e11) + i phi(e22)"),
    ("--unital", "unital_holds", "phi(1) = 1"),
]


def _cmd_map_check(args) -> int:
    from . import maps

    phi = maps.MapTable.from_json(_read_json(args.path, "map"), size_cap=args.size_cap)
    selected = [getattr(maps, name) for flag, name, _ in _CHECKS
                if getattr(args, flag[2:].replace("-", "_"))]
    if not selected:
        raise MatsemiError("no checks requested; pass "
                           + "/".join(flag for flag, _, _ in _CHECKS))
    reports = [fn(phi).to_json() for fn in selected]
    all_pass = all(r["pass"] for r in reports)
    doc = {"map": {"dom": phi.dom.label, "cod": phi.cod.label},
           "checks": reports, "pass": all_pass}
    rows = [["predicate", "pass", "checked", "violations"]]
    rows += [[r["predicate"], r["pass"], r["counts"]["checked"],
              r["counts"]["violations"]] for r in reports]
    lines = [f"map {phi.dom.label} -> {phi.cod.label}"]
    for r in reports:
        mark = "pass" if r["pass"] else "FAIL"
        lines.append(f"  {r['predicate']}: {mark} "
                     f"({r['counts']['violations']} violations / "
                     f"{r['counts']['checked']} checked)")
        lines += [f"    witness {tuple(w)}" for w in r["witnesses"][:4]]
    lines.append(f"overall: {'pass' if all_pass else 'FAIL'}")
    _render(args.format, _dump(doc), rows, lines)
    return 0 if all_pass else 1


def _read_json(path: str, what: str):
    """The JSON document in the file ``path``, a ``what`` (map or trace).
    A file that is not UTF-8, a malformed document or one nested too
    deeply to decode raises :class:`MatsemiError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise MatsemiError(f"malformed {what} JSON: {exc}") from exc


# Flags of ``verify`` that only some suites read, as (flag, dest, type,
# help), in the order their refusals are checked.
_VERIFY_FLAGS = [
    ("--dom", "dom", str, "domain ring spec"),
    ("--cod", "cod", str, "codomain ring spec"),
    ("--workers", "workers", decimal_int, "worker threads"),
    ("--limit", "limit", decimal_int, "most maps to list"),
    ("--ring", "ring", str, "ring spec for ring-level suites"),
    ("--map", "map_path", str, "JSON map file"),
    ("--replay", "replay", str, "replay a stored doubling trace"),
]

# Each suite's (flags it needs, other flags it may take); it refuses every
# other flag of _VERIFY_FLAGS with exit 2 rather than ignoring it.  The
# doubling suites are not split into tasks, so they refuse --workers, and check
# --map and --replay themselves.
_SUITES = {
    "prop1": (("--dom", "--cod"), ("--workers",)),
    "tensor": (("--dom",), ("--cod", "--workers")),
    "i-relation": (("--dom",), ("--cod", "--workers", "--limit")),
    "witnesses": (("--ring",), ()),
    "doubling-unitary": ((), ("--map", "--replay")),
    "doubling-gl": ((), ("--map", "--replay")),
}


def _cmd_verify(args) -> int:
    from .maps import MapTable
    from .rings import parse_ring_spec
    from .verify import (
        DEFAULT_MAP_LIMIT,
        replay_doubling_trace,
        verify_corner_equivalence,
        verify_doubling,
        verify_fourth_power_search,
        verify_tensor_equivalence,
        verify_witness_suite,
    )

    suite = args.suite
    needs, takes = _SUITES[suite]
    given = {flag: getattr(args, dest) for flag, dest, _, _ in _VERIFY_FLAGS}
    for flag, value in given.items():
        if value is not None and flag not in needs + takes:
            raise MatsemiError(f"verify {suite} does not take {flag}")
    if not all(given[flag] for flag in needs):
        raise MatsemiError(f"verify {suite} needs {' and '.join(needs)}")
    workers = 1 if args.workers is None else args.workers
    lines = None  # the generic text report unless a suite sets its own
    if suite in ("doubling-unitary", "doubling-gl"):
        mode = "unitaries" if suite == "doubling-unitary" else "units"
        if args.replay:
            if args.map_path:
                raise MatsemiError(f"verify {suite} takes --map or --replay, not both")
            stored = _read_json(args.replay, "trace")
            other = "units" if mode == "unitaries" else "unitaries"
            if isinstance(stored, dict) and stored.get("mode") == other:
                raise MatsemiError(f"verify {suite} replays {mode!r} traces, "
                                   f"not {other!r}")
            identical, recomputed = replay_doubling_trace(stored, args.size_cap)
            doc = {"suite": suite, "replay": args.replay,
                   "identical": identical,
                   "pass": identical and recomputed["conflicts_total"] == 0}
            lines = [f"replay {'identical' if identical else 'DIVERGED'}"]
        else:
            if not args.map_path:
                raise MatsemiError(f"verify {suite} needs --map (or --replay)")
            phi = MapTable.from_json(_read_json(args.map_path, "map"),
                                     size_cap=args.size_cap)
            doc = verify_doubling(phi, mode=mode).to_json()
    elif suite == "prop1":
        dom = parse_ring_spec(args.dom, size_cap=args.size_cap)
        cod = parse_ring_spec(args.cod, size_cap=args.size_cap)
        doc = verify_corner_equivalence(dom, cod, workers=workers).to_json()
    elif suite == "tensor":
        dom = parse_ring_spec(args.dom, size_cap=args.size_cap)
        cod = parse_ring_spec(args.cod, size_cap=args.size_cap) if args.cod else None
        doc = verify_tensor_equivalence(dom, cod, workers=workers,
                                        size_cap=args.size_cap).to_json()
    elif suite == "i-relation":
        dom = parse_ring_spec(args.dom, size_cap=args.size_cap)
        cod = parse_ring_spec(args.cod, size_cap=args.size_cap) if args.cod else None
        limit = args.limit if args.limit is not None else DEFAULT_MAP_LIMIT
        doc = verify_fourth_power_search(
            dom, cod, limit=limit, workers=workers).to_json()
    else:  # witnesses
        ring = parse_ring_spec(args.ring, size_cap=args.size_cap)
        doc = verify_witness_suite(ring, args.size_cap).to_json()

    scalars = [[k, v] for k, v in doc.items()
               if isinstance(v, (str, int, bool)) or v is None]
    if lines is None:
        lines = [f"suite {doc.get('suite', suite)}:"]
        lines += [f"  {k}: {v}" for k, v in scalars]
    _render(args.format, _dump(doc), [["key", "value"], *scalars], lines)
    return 0 if doc.get("pass") else 1


def _cmd_enumerate(args) -> int:
    from .rings import parse_ring_spec
    from .search import enumerate_multiplicative_maps

    dom = parse_ring_spec(args.dom, size_cap=args.size_cap)
    cod = parse_ring_spec(args.cod, size_cap=args.size_cap)
    result = enumerate_multiplicative_maps(dom, cod, filters=args.filter,
                                           limit=args.limit, workers=args.workers)
    query = {"dom": args.dom, "cod": args.cod,
             "filters": list(result.filters), "limit": args.limit}
    summary = {"query": query, **result.summary()}
    json_lines = [_dump(m.to_json()) for m in result.maps]
    json_lines.append(_dump({"summary": summary}))
    imgs = [" ".join(str(int(v)) for v in m.img) for m in result.maps]
    lines = [f"map {i}: {img}" for i, img in enumerate(imgs)]
    lines.append(f"count {summary['count']}, nodes {summary['nodes']}, "
                 f"exhaustive {summary['exhaustive']}")
    _render(args.format, "\n".join(json_lines),
            [["index", "img"], *enumerate(imgs)], lines)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "workers", None) is not None and args.workers < 1:
            raise MatsemiError("--workers must be >= 1")
        return args.handler(args)
    except PreconditionFailed as exc:
        _emit(_dump({"error": "precondition_failed", "detail": str(exc),
                     "pass": False}))
        return 1
    except (MatsemiError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
