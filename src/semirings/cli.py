"""Command-line front end.

Exit codes: 0 success or match, 1 mismatch or failed validation,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .catalog import (
    build_catalog,
    compare_with_expected,
    fixture_reports,
    query_catalog,
    render_report_table,
    report_json,
)
from .endo import END_SIZE_LIMIT, SR_BASE_LIMIT, dense_closure, is_dense, load_srs, parse_srs
from .errors import Error, ParseError, SizeLimit, ValidationError, read_text
from .fixtures import FIXTURE_NAMES, load_fixture
from .lattice import condition_d, enumerate_lattices, is_distributive, lattice_iso, parse_lat
from .semimodule import (
    find_irreducible,
    irreducibility,
    load_smod,
    module_lattice,
    parse_smod,
    representation,
)
from .semiring import is_congruence_simple, parse_sr, structure_flags


def cmd_table1(args, out):
    """Recompute the small-lattice classification table and compare it with
    the expected data file."""
    reports = fixture_reports(jobs=args.jobs)
    diffs = compare_with_expected(reports)
    if args.format == "json":
        payload = {
            "command": "table1",
            "ok": not diffs,
            "rows": [report_json(r) for r in reports],
            "mismatches": diffs,
        }
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        out.write(render_report_table(reports) + "\n")
        if diffs:
            out.write("MISMATCHES:\n")
            for d in diffs:
                out.write(f"  {d}\n")
        else:
            out.write("all rows match the expected data\n")
    return 1 if diffs else 0


def cmd_min_order(args, out):
    """Minimum order of a dense subsemiring over lattices of size >= 6.

    The least member of every dense family is the set of sums of
    elementary maps, so only that set is computed per lattice."""
    rows = []
    overall = None
    partial = False
    lats = [l for l in enumerate_lattices(args.max_size) if l.n >= 6] if args.max_size >= 6 else []
    for i, lat in enumerate(lats):
        try:
            size = dense_closure(lat, max_size=args.max_end_size).size
        except SizeLimit:
            partial = True
            if args.format != "json":
                out.write(f"[{i + 1}/{len(lats)}] {lat.name}: skipped (budget)\n")
            rows.append({"name": lat.name, "n": lat.n, "min_order": None})
            continue
        rows.append({"name": lat.name, "n": lat.n, "min_order": size})
        if overall is None or size < overall:
            overall = size
        if args.format != "json":
            out.write(f"[{i + 1}/{len(lats)}] {lat.name} (n={lat.n}): least dense order {size}\n")
    if args.format == "json":
        out.write(json.dumps({
            "command": "min-order",
            "max_size": args.max_size,
            "rows": rows,
            "minimum": overall,
            "partial": partial,
        }, indent=2, sort_keys=True) + "\n")
    else:
        if not lats:
            out.write("no lattices of size >= 6 in range; empty result\n")
        elif overall is None:
            out.write("minimum dense subsemiring order: unknown (every lattice skipped)\n")
        else:
            suffix = " (partial: some lattices skipped)" if partial else ""
            out.write(f"minimum dense subsemiring order: {overall}{suffix}\n")
    return 0


def _write_check(info, text, out, fmt):
    """Write one check result: ``info`` as JSON, or ``text`` as is."""
    if fmt == "json":
        out.write(json.dumps({"command": "check", "ok": True, "result": info},
                             indent=2, sort_keys=True) + "\n")
    else:
        out.write(text)
    return 0


def _check_lattice(lat, out, fmt):
    info = {
        "kind": "lattice",
        "n": lat.n,
        "name": lat.name,
        "top": lat.top,
        "distributive": is_distributive(lat),
        "unique_dense_family": condition_d(lat),
    }
    text = (f"lattice {lat.name or ''}: n = {lat.n}, top = {lat.top}\n"
            f"distributive: {info['distributive']}\n"
            f"dense subsemiring family is a singleton: {info['unique_dense_family']}\n")
    return _write_check(info, text, out, fmt)


def _witness(r):
    """Recovered lattice and dense irreducible representation for a
    congruence-simple non-ring of order > 2."""
    from .semiring import recover_monoid

    lat = recover_monoid(r)
    if lat is None:
        return None
    mod = find_irreducible(r, check=False)
    rep = representation(r, mod)
    iso = lattice_iso(module_lattice(mod), lat)
    return {
        "recovered_lattice_size": lat.n,
        "module_size": mod.m,
        "faithful": rep.faithful,
        "dense": rep.dense,
        "module_matches_recovered_lattice": iso is not None,
    }


def _semiring_facts(r):
    """Structure flags and congruence-simplicity of a semiring, with the
    witness of a congruence-simple non-ring of order > 2."""
    flags = structure_flags(r)
    facts = {
        "congruence_simple": is_congruence_simple(r),
        "is_ring": flags.is_ring,
        "add_idempotent": flags.add_idempotent,
        "has_one": flags.has_one,
        "trivial_mul": flags.trivial_mul,
    }
    if facts["congruence_simple"] and not flags.is_ring and r.n > 2:
        facts["witness"] = _witness(r)
    return facts


def _semiring_text(r, facts):
    verdict = "congruence-simple" if facts["congruence_simple"] else "not congruence-simple"
    ring = "a ring" if facts["is_ring"] else "not a ring"
    text = (f"semiring {r.name or ''}: {verdict}, {ring}, |R| = {r.n}\n"
            f"flags: add_idempotent={facts['add_idempotent']} has_one={facts['has_one']} "
            f"trivial_mul={facts['trivial_mul']}\n")
    witness = facts.get("witness")
    if witness:
        text += ("dense representation witness: recovered lattice of size "
                 f"{witness['recovered_lattice_size']}, irreducible module of size "
                 f"{witness['module_size']}, faithful={witness['faithful']}, "
                 f"dense={witness['dense']}\n")
    return text


def _check_semiring(r, out, fmt):
    facts = _semiring_facts(r)
    info = {"kind": "semiring", "n": r.n, "name": r.name, **facts}
    return _write_check(info, _semiring_text(r, facts), out, fmt)


def _check_subsemiring(path, text, out, fmt):
    lattice_name, members = parse_srs(text)
    lat_path = Path(path).parent / f"{lattice_name}.lat"
    if lat_path.exists():
        lat = parse_lat(read_text(lat_path))
    elif lattice_name in FIXTURE_NAMES:
        lat = load_fixture(lattice_name)
    else:
        raise ParseError(f"cannot resolve lattice {lattice_name!r}")
    sub = load_srs(lattice_name, members, lat)
    r = sub.to_semiring(name=f"sub_of_end_{lattice_name}")
    dense = is_dense(sub)
    facts = _semiring_facts(r)
    text = (f"subsemiring of End({lattice_name}): {sub.size} members, dense={dense}\n"
            + _semiring_text(r, facts))
    del facts["add_idempotent"]  # the subsemiring JSON result has no such key
    info = {"kind": "subsemiring", "lattice": lattice_name, "size": sub.size,
            "dense": dense, **facts}
    return _write_check(info, text, out, fmt)


def _check_semimodule(path, text, out, fmt):
    ring_name, madd, act = parse_smod(text)
    ring_path = Path(path).parent / f"{ring_name}.sr"
    if not ring_path.exists():
        raise ParseError(f"cannot resolve ring {ring_name!r}")
    mod = load_smod(ring_name, madd, act, parse_sr(read_text(ring_path)))
    flags = irreducibility(mod)
    info = {"kind": "semimodule", "ring": ring_name, "m": mod.m,
            "acts_nonzero": flags.acts_nonzero,
            "sub_irreducible": flags.sub_irreducible,
            "quotient_irreducible": flags.quotient_irreducible}
    text = (f"semimodule over {ring_name}: m = {mod.m}, |R| = {mod.ring.n}\n"
            f"acts_nonzero={flags.acts_nonzero} sub_irreducible={flags.sub_irreducible} "
            f"quotient_irreducible={flags.quotient_irreducible}\n")
    return _write_check(info, text, out, fmt)


def cmd_check(args, out):
    path = Path(args.path)
    try:
        text = read_text(path)
        if path.suffix == ".lat":
            return _check_lattice(parse_lat(text), out, args.format)
        if path.suffix == ".sr":
            return _check_semiring(parse_sr(text), out, args.format)
        if path.suffix == ".srs":
            return _check_subsemiring(path, text, out, args.format)
        if path.suffix == ".smod":
            return _check_semimodule(path, text, out, args.format)
    except ValidationError as exc:
        out.write(f"validation failed: {exc}\n")
        return 1
    out.write(f"error: unknown file type {path.suffix!r}\n")
    return 2


def cmd_catalog(args, out):
    if args.action == "build":
        index = build_catalog(args.out, max_size=args.max_size,
                              max_end=args.max_sr_base, jobs=args.jobs)
        if args.format == "json":
            out.write(json.dumps({
                "command": "catalog build",
                "entries": [{"name": n, "digest": d} for n, d in index],
            }, indent=2, sort_keys=True) + "\n")
        else:
            out.write(f"wrote {len(index)} entries to {args.out}\n")
        return 0
    rows = query_catalog(
        args.out,
        min_order=args.min_order,
        max_order=args.max_order,
        has_one=None if args.has_one is None else bool(args.has_one),
        lattice_size=args.lattice_size,
    )
    if args.format == "json":
        out.write(json.dumps({
            "command": "catalog query",
            "rows": [
                {"lattice": name, "n": n, "order": m.order, "has_one": m.has_one,
                 "self_anti_iso": m.self_anti_iso, "iso_class": m.iso_class}
                for name, n, m in rows
            ],
        }, indent=2, sort_keys=True) + "\n")
    else:
        for name, n, m in rows:
            out.write(f"{name} (n={n}): order {m.order} has_one={m.has_one} "
                      f"self_anti_iso={m.self_anti_iso} iso_class={m.iso_class}\n")
        out.write(f"{len(rows)} rows\n")
    return 0


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="semirings",
        description="finite endomorphism semirings and their dense subsemirings",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="parallel worker count for sweeps (capped at the CPU "
                             "and task counts)")
    parser.add_argument("--max-end-size", type=positive_int, default=END_SIZE_LIMIT,
                        help="bound on |End(M)| per lattice")
    parser.add_argument("--max-sr-base", type=positive_int, default=SR_BASE_LIMIT,
                        help="bound on the base semiring of family enumeration")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="reproduce the small-lattice classification table")

    p_min = sub.add_parser("min-order",
                           help="least dense subsemiring order over lattices of size >= 6")
    p_min.add_argument("--max-size", type=int, required=True)

    p_check = sub.add_parser("check", help="validate and report on a .lat/.sr/.srs/.smod file")
    p_check.add_argument("path")

    p_cat = sub.add_parser("catalog", help="build or query the persistent catalog")
    p_cat.add_argument("action", choices=("build", "query"))
    p_cat.add_argument("--out", required=True)
    p_cat.add_argument("--max-size", type=int, default=5)
    p_cat.add_argument("--min-order", type=int)
    p_cat.add_argument("--max-order", type=int)
    p_cat.add_argument("--has-one", type=int, choices=(0, 1))
    p_cat.add_argument("--lattice-size", type=int)
    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "table1":
            return cmd_table1(args, out)
        if args.command == "min-order":
            return cmd_min_order(args, out)
        if args.command == "check":
            return cmd_check(args, out)
        if args.command == "catalog":
            return cmd_catalog(args, out)
    except ParseError as exc:
        out.write(f"parse error: {exc}\n")
        return 2
    except Error as exc:
        out.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
