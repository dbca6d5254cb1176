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
from functools import partial

from .errors import MatsemiError, PreconditionFailed, decimal_int
from .maps import (
    MapTable,
    _relation_report,
    corner_relation_holds,
    i_relation_holds,
    is_additive,
    is_multiplicative,
    is_ring_hom,
    respects_star,
)
from .rings import parse_ring_spec, unitaries, units, validate_matrix_view, validate_ring
from .search import enumerate_multiplicative_maps
from .verify import (
    DEFAULT_MAP_LIMIT,
    replay_doubling_trace,
    verify_corner_equivalence,
    verify_doubling,
    verify_fourth_power_search,
    verify_tensor_equivalence,
    verify_witness_suite,
)

VERIFY_IDS = ("prop1", "tensor", "i-relation", "witnesses",
              "doubling-unitary", "doubling-gl")


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

    ring = sub.add_parser("ring", help="ring inspection")
    ring_sub = ring.add_subparsers(dest="ring_command", required=True)
    info = ring_sub.add_parser("info", help="build a ring and run axiom scans")
    info.add_argument("spec", help="ring spec, e.g. zmod:4 or mat:2:gauss:3")
    info.add_argument("--format", choices=("json", "csv", "text"), default="json")
    info.add_argument("--size-cap", type=decimal_int, default=None)

    mp = sub.add_parser("map", help="map predicates")
    map_sub = mp.add_subparsers(dest="map_command", required=True)
    check = map_sub.add_parser("check", help="run predicate checks on a map file")
    check.add_argument("path", help="JSON map file {dom, cod, img}")
    check.add_argument("--mult", action="store_true", help="multiplicativity scan")
    check.add_argument("--add", action="store_true", help="additivity scan")
    check.add_argument("--ring-hom", action="store_true", help="both scans")
    check.add_argument("--star", action="store_true", help="involution preservation")
    check.add_argument("--corner", action="store_true",
                       help="phi(1) = phi(e11) + phi(e22)")
    check.add_argument("--i-relation", action="store_true",
                       help="phi(i) = i phi(e11) + i phi(e22)")
    check.add_argument("--unital", action="store_true", help="phi(1) = 1")
    check.add_argument("--format", choices=("json", "csv", "text"), default="json")
    check.add_argument("--size-cap", type=decimal_int, default=None)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("suite", choices=VERIFY_IDS)
    ver.add_argument("--dom", help="domain ring spec")
    ver.add_argument("--cod", help="codomain ring spec")
    ver.add_argument("--ring", help="ring spec for ring-level suites")
    ver.add_argument("--map", dest="map_path", help="JSON map file")
    ver.add_argument("--limit", type=decimal_int, default=None)
    ver.add_argument("--workers", type=decimal_int, default=None)
    ver.add_argument("--size-cap", type=decimal_int, default=None)
    ver.add_argument("--replay", help="replay a stored doubling trace")
    ver.add_argument("--format", choices=("json", "csv", "text"), default="json")

    en = sub.add_parser("enumerate", help="enumerate multiplicative maps")
    en.add_argument("--dom", required=True)
    en.add_argument("--cod", required=True)
    en.add_argument("--filter", action="append", default=[],
                    help="unital|star|corner|i_relation (repeatable)")
    en.add_argument("--limit", type=decimal_int, default=None)
    en.add_argument("--workers", type=decimal_int, default=1)
    en.add_argument("--size-cap", type=decimal_int, default=None)
    en.add_argument("--format", choices=("json", "csv", "text"), default="json")
    return p


def _cmd_ring_info(args) -> int:
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


# Report rows follow this order, whatever the order of the flags.
_CHECK_FLAGS = [
    ("mult", is_multiplicative),
    ("add", is_additive),
    ("ring_hom", is_ring_hom),
    ("star", respects_star),
    ("corner", corner_relation_holds),
    ("i_relation", i_relation_holds),
    ("unital", partial(_relation_report, "unital")),
]


def _cmd_map_check(args) -> int:
    phi = _load_map(args.path, args.size_cap)
    selected = [fn for name, fn in _CHECK_FLAGS if getattr(args, name)]
    if not selected:
        raise MatsemiError(
            "no checks requested; pass --mult/--add/--ring-hom/--star/"
            "--corner/--i-relation/--unital")
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


def _load_map(path: str, size_cap) -> MapTable:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MatsemiError(f"malformed map JSON: {exc}") from exc
    return MapTable.from_json(payload, size_cap=size_cap)


# Flags of ``verify`` that only some suites read, as (flag, attribute,
# suites); any other suite refuses them with exit 2 rather than ignoring
# them.  The doubling suites run in one process, so they refuse --workers.
_SUITE_FLAGS = [
    ("--dom", "dom", ("prop1", "tensor", "i-relation")),
    ("--cod", "cod", ("prop1", "tensor", "i-relation")),
    ("--workers", "workers", ("prop1", "tensor", "i-relation")),
    ("--limit", "limit", ("i-relation",)),
    ("--ring", "ring", ("witnesses",)),
    ("--map", "map_path", ("doubling-unitary", "doubling-gl")),
    ("--replay", "replay", ("doubling-unitary", "doubling-gl")),
]


def _cmd_verify(args) -> int:
    suite = args.suite
    for flag, attr, suites in _SUITE_FLAGS:
        if getattr(args, attr) is not None and suite not in suites:
            raise MatsemiError(f"verify {suite} does not take {flag}")
    workers = 1 if args.workers is None else args.workers
    lines = None  # the generic text report unless a suite sets its own
    if suite in ("doubling-unitary", "doubling-gl"):
        mode = "unitaries" if suite == "doubling-unitary" else "units"
        if args.replay:
            if args.map_path:
                raise MatsemiError(f"verify {suite} takes --map or --replay, not both")
            with open(args.replay, "r", encoding="utf-8") as fh:
                stored = json.load(fh)
            if isinstance(stored, dict) and stored.get("mode", mode) != mode:
                raise MatsemiError(f"verify {suite} replays {mode!r} traces, "
                                   f"not {stored['mode']!r}")
            identical, recomputed = replay_doubling_trace(stored, args.size_cap)
            doc = {"suite": suite, "replay": args.replay,
                   "identical": identical,
                   "pass": identical and recomputed["conflicts_total"] == 0}
            lines = [f"replay {'identical' if identical else 'DIVERGED'}"]
        else:
            if not args.map_path:
                raise MatsemiError(f"verify {suite} needs --map (or --replay)")
            phi = _load_map(args.map_path, args.size_cap)
            doc = verify_doubling(phi, mode=mode).to_json()
    elif suite == "prop1":
        if not args.dom or not args.cod:
            raise MatsemiError("verify prop1 needs --dom and --cod")
        dom = parse_ring_spec(args.dom, size_cap=args.size_cap)
        cod = parse_ring_spec(args.cod, size_cap=args.size_cap)
        doc = verify_corner_equivalence(dom, cod, workers=workers).to_json()
    elif suite == "tensor":
        if not args.dom:
            raise MatsemiError("verify tensor needs --dom")
        dom = parse_ring_spec(args.dom, size_cap=args.size_cap)
        cod = parse_ring_spec(args.cod, size_cap=args.size_cap) if args.cod else None
        doc = verify_tensor_equivalence(dom, cod, workers=workers,
                                        size_cap=args.size_cap).to_json()
    elif suite == "i-relation":
        if not args.dom:
            raise MatsemiError("verify i-relation needs --dom")
        dom = parse_ring_spec(args.dom, size_cap=args.size_cap)
        cod = parse_ring_spec(args.cod, size_cap=args.size_cap) if args.cod else None
        limit = args.limit if args.limit is not None else DEFAULT_MAP_LIMIT
        doc = verify_fourth_power_search(
            dom, cod, limit=limit, workers=workers).to_json()
    elif suite == "witnesses":
        if not args.ring:
            raise MatsemiError("verify witnesses needs --ring")
        ring = parse_ring_spec(args.ring, size_cap=args.size_cap)
        doc = verify_witness_suite(ring, args.size_cap).to_json()
    else:  # pragma: no cover - argparse restricts choices
        raise MatsemiError(f"unknown suite {suite}")

    scalars = [[k, v] for k, v in doc.items()
               if isinstance(v, (str, int, bool)) or v is None]
    if lines is None:
        lines = [f"suite {doc.get('suite', suite)}:"]
        lines += [f"  {k}: {v}" for k, v in scalars]
    _render(args.format, _dump(doc), [["key", "value"], *scalars], lines)
    return 0 if doc.get("pass") else 1


def _cmd_enumerate(args) -> int:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "workers", None) is not None and args.workers < 1:
            raise MatsemiError("--workers must be >= 1")
        if args.command == "ring":
            return _cmd_ring_info(args)
        if args.command == "map":
            return _cmd_map_check(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        parser.error(f"unknown command {args.command}")
    except PreconditionFailed as exc:
        _emit(_dump({"error": "precondition_failed", "detail": str(exc),
                     "pass": False}))
        return 1
    except (MatsemiError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
