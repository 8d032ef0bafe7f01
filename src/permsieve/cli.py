"""Command-line interface and report emitters.

Subcommands::

    stat eval <key> <perm>       evaluate a statistic
    stat gf <key> --n N          statistic generating function
    stat list                    registered statistics
    map apply <key> <perm>       apply a bijection
    map orbits <key> --n N       orbit structure over S_n
    map list                     registered maps
    csp check <stat> <map> --n N exact sieving verdict
    equidist <statA> <statB> --n N
    scan --min-n A --max-n B     scan all registered pairs
    verify                       run the acceptance suite

Exit codes: 0 success, 1 property or verdict failure, 2 usage error.

The scan subcommand keeps a cache of generating-function vectors under
``cache/`` (override with ``--cache-dir``); corrupt records are silently
recomputed.  Orbit structures are read off each map's declaration and never
cached.  A scan runs in one process: ``--workers N`` is still accepted, and
rejected below 1, but changes nothing.  Every scan setting comes from its
flag and nowhere else: no file or environment variable is read.

The verify subcommand runs the selected acceptance criteria in worker
processes, at most one per CPU, and prints their results in criterion order.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .bijections import MAPS, get_map
from .cache import RecordCache
from .errors import PermsieveError, UsageError
from .orbits import orbit_sizes
from .permutations import format_permutation, parse_permutation
from .polynomials import IntPolynomial
from .scan import MAX_SCAN_N, ScanReport, ScanRow, scan
from .sieving import csp_check, equidistribution, generating_function, orbit_parts
from .statistics import REGISTRY, get_statistic

_json_scalar = json.JSONEncoder().encode
_json_string = json.encoder.encode_basestring_ascii


def _json_text(obj, newline: str, memo: dict) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, default=vars)``, nested at the line break ``newline``.

    It dispatches on the exact type.  A record, a dataclass instance, is
    written as its fields, ``vars(obj)``, so a report's record types are its
    schema.  A generating function is the record a document shares: every
    row of a statistic at one n holds the same ``IntPolynomial``.  So its
    text is kept in ``memo`` under ``(id(obj), newline)`` and rendered once
    per indentation.  No other record enters the memo, which would then hold
    a second copy of the rows.  Each container is one f-string, so its text
    is allocated once; a chain of ``+`` would copy the whole body once per
    operand, and on a scan report of several MB those transient copies raise
    the peak RSS.
    """
    kind = type(obj)
    if kind is str:
        return _json_string(obj)
    if kind is int:
        return str(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    inner = newline + "  "
    if kind is dict:
        if not obj:
            return "{}"
        items = (_json_string(key) + ": " + _json_text(obj[key], inner, memo) for key in sorted(obj))
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:  # not bool, which JSON writes as true/false
            items = map(str, obj)
        else:
            items = (_json_text(x, inner, memo) for x in obj)
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if kind is IntPolynomial:
        text = memo.get((id(obj), newline))
        if text is None:
            text = memo[id(obj), newline] = _json_text(vars(obj), newline, memo)
        return text
    if hasattr(obj, "__dataclass_fields__"):  # a record: is_dataclass's test, without its call per scalar
        return _json_text(vars(obj), newline, memo)
    return _json_scalar(obj)  # a float


def to_json(doc) -> str:
    """The bytes of ``json.dumps(doc, sort_keys=True, indent=2, default=vars)`` plus a newline.

    Keys are strings only, and a record is written as its fields.  Every JSON
    output is written here.  ``json.dumps`` with ``indent`` always
    takes the pure-Python encoder, which joins one string per token and
    renders an object again wherever it recurs; this writes each list of ints
    with one ``join`` and each generating function once per indentation.  The
    memo lives for one call, and every object in it is reachable from
    ``doc``, so no id in it can be reused while it lives.
    """
    return _json_text(doc, "\n", {}) + "\n"


def scan_report_to_json(report: ScanReport) -> str:
    doc = {
        "n_min": report.n_min,
        "n_max": report.n_max,
        "summary": report.summary(),
        "rows": report.rows,
        "verdicts": report.verdicts,
        "classes": report.classes,
    }
    return to_json(doc)


def _row_cells(row: ScanRow) -> list[str]:
    return [
        row.pair,
        str(row.n),
        str(row.holds).lower(),
        " ".join(str(v) for v in row.table),
        row.signature,
        str(row.gf.offset),
        " ".join(str(v) for v in row.gf.coeffs),
    ]


def scan_report_to_csv(report: ScanReport) -> str:
    lines = ["pair,n,holds,table,signature,gf_offset,gf_coeffs"]
    for row in report.rows:
        lines.append(",".join(cell.replace(",", ";") for cell in _row_cells(row)))
    return "\n".join(lines) + "\n"


def scan_report_to_md(report: ScanReport) -> str:
    header = "| pair | n | holds | table | signature | gf offset | gf coeffs |"
    rule = "|---|---|---|---|---|---|---|"
    lines = [header, rule]
    for row in report.rows:
        cells = [cell.replace("|", "\\|") for cell in _row_cells(row)]
        lines.append("| " + " | ".join(cells) + " |")
    summary = report.summary()
    lines.append("")
    lines.append(
        "pairs: {pairs}, apparent: {apparent}, fail: {fail}, skipped: {skipped}, "
        "classes: {classes}, apparent classes: {apparent_classes}".format(**summary)
    )
    return "\n".join(lines) + "\n"


_SCAN_EMITTERS = {
    "json": scan_report_to_json,
    "csv": scan_report_to_csv,
    "md": scan_report_to_md,
}


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_bytes(text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _list(descriptors: Iterable) -> int:
    """Print one registered statistic or map per line: its key, FindStat id if any, and name."""
    for d in descriptors:
        fid = f" [{d.findstat_id}]" if d.findstat_id is not None else ""
        print(f"{d.key}{fid}: {d.name}")
    return 0


def _cmd_stat(args: argparse.Namespace) -> int:
    if args.stat_command == "list":
        return _list(REGISTRY.values())
    desc = get_statistic(args.key)
    if args.stat_command == "eval":
        print(desc(parse_permutation(args.perm)))
        return 0
    # gf
    f = generating_function(desc, args.n)
    _emit(to_json({"stat": desc.key, "n": args.n, "gf": f, "display": str(f)}),
          args.output)
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    if args.map_command == "list":
        return _list(MAPS.values())
    desc = get_map(args.key)
    if args.map_command == "apply":
        p = parse_permutation(args.perm)
        desc.require_n(len(p))
        print(format_permutation(desc(p)))
        return 0
    # orbits
    sizes = orbit_sizes(desc.key, args.n)
    orbit = orbit_parts(sizes)
    doc = {
        "map": desc.key,
        "n": args.n,
        "signature": orbit.signature,
        "sizes": {str(k): v for k, v in sorted(sizes.items())},
        "order": orbit.order,
        "fixed_counts": orbit.fixed,
    }
    _emit(to_json(doc), args.output)
    return 0


def _cmd_csp(args: argparse.Namespace) -> int:
    stat_key, map_key = get_statistic(args.stat).key, get_map(args.map).key
    v = csp_check(stat_key, map_key, args.n)
    doc = {
        "stat": stat_key,
        "map": map_key,
        "n": args.n,
        "holds": v.holds,
        "order": v.order,
        "table": v.fixed,
        "float_evals": [[z.real, z.imag] for z in v.float_evals],
        "witnesses": v.witnesses,
        "shift_used": v.shift_used,
        "shift_preserves_residue": v.shift_preserves_residue,
        "residue_f": v.residue_f,
        "residue_t": v.residue_t,
    }
    _emit(to_json(doc), args.output)
    return 0 if v.holds else 1


def _cmd_equidist(args: argparse.Namespace) -> int:
    same = equidistribution(get_statistic(args.stat_a).key, get_statistic(args.stat_b).key, args.n)
    print("equidistributed" if same else "different")
    return 0 if same else 1


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise UsageError(f"workers must be a positive integer, got {args.workers}")
    if args.output and not Path(args.output).parent.is_dir():
        raise UsageError(f"cannot write {args.output}: {Path(args.output).parent} is not a directory")
    if args.output and Path(args.output).is_dir():
        raise UsageError(f"cannot write {args.output}: it is a directory")
    cache = RecordCache(args.cache_dir)
    stats = None if args.stats is None else [name.strip() for name in args.stats.split(",")]
    maps = None if args.maps is None else [name.strip() for name in args.maps.split(",")]
    report = scan(args.min_n, args.max_n, stats, maps, cache=cache)
    _emit(_SCAN_EMITTERS[args.format](report), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .acceptance import CRITERIA, run_all

    numbers = None
    if args.criteria is not None:
        valid = [k for k, _ in CRITERIA]
        tokens = [t.strip() for t in args.criteria.split(",")]
        if not all(t.isdecimal() and int(t) in valid for t in tokens):
            raise UsageError(
                f"criteria must be comma-separated numbers in {valid[0]}..{valid[-1]}, "
                f"got {args.criteria!r}"
            )
        numbers = [int(t) for t in tokens]
    results = run_all(numbers)
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"criterion {res.number:2d} [{status}] {res.title}")
        for note in res.details:
            print(f"    {note}")
        ok = ok and res.passed
    return 0 if ok else 1


def _positive_int(text: str) -> int:
    """The type of every ``--n`` option: S_n needs n >= 1, and no command goes past the scan's n."""
    if not text.isdecimal() or not 1 <= int(text) <= MAX_SCAN_N:
        raise argparse.ArgumentTypeError(f"must be a positive integer at most {MAX_SCAN_N}, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals are usage errors, which :func:`main` reports like every other."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="permsieve", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_stat = sub.add_parser("stat", help="statistic operations")
    stat_sub = p_stat.add_subparsers(dest="stat_command", required=True)
    p = stat_sub.add_parser("eval", help="evaluate a statistic on a permutation")
    p.add_argument("key")
    p.add_argument("perm")
    p = stat_sub.add_parser("gf", help="statistic generating function over S_n")
    p.add_argument("key")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--output")
    stat_sub.add_parser("list", help="list registered statistics")
    p_stat.set_defaults(func=_cmd_stat)

    p_map = sub.add_parser("map", help="map operations")
    map_sub = p_map.add_subparsers(dest="map_command", required=True)
    p = map_sub.add_parser("apply", help="apply a map to a permutation")
    p.add_argument("key")
    p.add_argument("perm")
    p = map_sub.add_parser("orbits", help="orbit structure over S_n")
    p.add_argument("key")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--output")
    map_sub.add_parser("list", help="list registered maps")
    p_map.set_defaults(func=_cmd_map)

    p_csp = sub.add_parser("csp", help="cyclic sieving checks")
    csp_sub = p_csp.add_subparsers(dest="csp_command", required=True)
    p = csp_sub.add_parser("check", help="exact sieving verdict for one pair")
    p.add_argument("stat")
    p.add_argument("map")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--output")
    p_csp.set_defaults(func=_cmd_csp)

    p = sub.add_parser("equidist", help="compare two statistic generating functions")
    p.add_argument("stat_a")
    p.add_argument("stat_b")
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_equidist)

    p = sub.add_parser("scan", help="scan all registered pairs")
    p.add_argument("--min-n", type=int, default=4)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--stats", help="comma-separated statistic keys")
    p.add_argument("--maps", help="comma-separated map keys")
    p.add_argument("--format", choices=sorted(_SCAN_EMITTERS), default="json")
    p.add_argument("--workers", type=int, default=1,
                   help="at least 1; changes nothing, since a scan runs in one process")
    p.add_argument("--cache-dir", default="cache")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--criteria", help="comma-separated criterion numbers")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (PermsieveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
