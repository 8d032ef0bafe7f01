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

The scan subcommand keeps a cache of generating-function and orbit-size
vectors under ``cache/`` (override with ``--cache-dir``, the
``PERMSIEVE_CACHE_DIR`` environment variable, or a ``permsieve.cfg`` file of
``key = value`` lines); corrupt records are silently recomputed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import lru_cache
from math import lcm
from pathlib import Path
from typing import Optional, Sequence

from .bijections import get_map, map_keys
from .cache import RecordCache
from .errors import PermsieveError
from .orbits import fixed_counts_from_sizes, orbit_sizes, signature_from_sizes
from .permutations import format_permutation, parse_permutation
from .polynomials import IntPolynomial
from .scan import ScanReport, scan
from .sieving import csp_check, equidistribution, generating_function
from .statistics import get_statistic, statistic_keys

CONFIG_FILE = "permsieve.cfg"
ENV_CACHE_DIR = "PERMSIEVE_CACHE_DIR"
DEFAULT_CACHE_DIR = "cache"


def load_config(path: Optional[str] = None) -> dict[str, str]:
    """Read the optional ``key = value`` config file."""
    cfg_path = Path(path or CONFIG_FILE)
    if not cfg_path.exists():
        return {}
    out: dict[str, str] = {}
    for line in cfg_path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve_cache_dir(flag_value: Optional[str], config: dict[str, str]) -> str:
    if flag_value:
        return flag_value
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    return config.get("cache_dir", DEFAULT_CACHE_DIR)


def _gf_to_dict(f: IntPolynomial) -> dict:
    return {"offset": f.offset, "coeffs": list(f.coeffs)}


def scan_report_rows(report: ScanReport) -> list[dict]:
    """Schema-stable rows: every row carries pair, n, holds, table, signature, gf."""
    return [
        {
            "pair": r.pair,
            "n": r.n,
            "holds": r.holds,
            "table": list(r.table),
            "signature": r.signature,
            "gf": {"offset": r.gf_offset, "coeffs": list(r.gf_coeffs)},
        }
        for r in report.rows
    ]


def scan_report_to_json(report: ScanReport) -> str:
    doc = {
        "n_min": report.n_min,
        "n_max": report.n_max,
        "summary": report.summary(),
        "rows": scan_report_rows(report),
        "verdicts": [asdict(v) for v in report.verdicts],
        "classes": [
            {"members": list(c.members), "apparent": c.apparent,
             "signatures": list(c.signature_key)}
            for c in report.classes
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _row_cells(row: dict) -> list[str]:
    return [
        row["pair"],
        str(row["n"]),
        str(row["holds"]).lower(),
        " ".join(str(v) for v in row["table"]),
        row["signature"],
        str(row["gf"]["offset"]),
        " ".join(str(v) for v in row["gf"]["coeffs"]),
    ]


def scan_report_to_csv(report: ScanReport) -> str:
    lines = ["pair,n,holds,table,signature,gf_offset,gf_coeffs"]
    for row in scan_report_rows(report):
        lines.append(",".join(cell.replace(",", ";") for cell in _row_cells(row)))
    return "\n".join(lines) + "\n"


def scan_report_to_md(report: ScanReport) -> str:
    header = "| pair | n | holds | table | signature | gf offset | gf coeffs |"
    rule = "|---|---|---|---|---|---|---|"
    lines = [header, rule]
    for row in scan_report_rows(report):
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


def _cached_providers(cache: RecordCache):
    """Cache-backed providers, memoized so each record is read or stored once."""

    @lru_cache(maxsize=None)
    def gf_provider(stat_key: str, n: int) -> IntPolynomial:
        rec = cache.load_vector(f"gf_{stat_key}", n)
        if rec is not None:
            offset, coeffs = rec
            return IntPolynomial(coeffs, offset) if coeffs else IntPolynomial.zero()
        f = generating_function(stat_key, n)
        cache.store_vector(f"gf_{stat_key}", n, f.offset, f.coeffs)
        return f

    @lru_cache(maxsize=None)
    def sizes_provider(map_key: str, n: int) -> dict[int, int]:
        rec = cache.load_vector(f"orbit_{map_key}", n)
        if rec is not None:
            _, flat = rec
            if flat and len(flat) % 2 == 0:
                return {flat[i]: flat[i + 1] for i in range(0, len(flat), 2)}
        sizes = orbit_sizes(map_key, n)
        flat = tuple(x for size in sorted(sizes) for x in (size, sizes[size]))
        cache.store_vector(f"orbit_{map_key}", n, 0, flat)
        return sizes

    return gf_provider, sizes_provider


def _write_back(cache: RecordCache, report: ScanReport) -> None:
    """Persist results computed by worker processes, checking each record once."""
    for row in {(r.stat_key, r.n): r for r in report.rows}.values():
        if cache.load_vector(f"gf_{row.stat_key}", row.n) is None:
            cache.store_vector(f"gf_{row.stat_key}", row.n, row.gf_offset, row.gf_coeffs)
    for row in {(r.map_key, r.n): r for r in report.rows}.values():
        if cache.load_vector(f"orbit_{row.map_key}", row.n) is None:
            sizes = {}
            for token in row.signature.split():
                size, count = token.split("^")
                sizes[int(size)] = int(count)
            flat = tuple(x for size in sorted(sizes) for x in (size, sizes[size]))
            cache.store_vector(f"orbit_{row.map_key}", row.n, 0, flat)


def _cmd_stat(args: argparse.Namespace) -> int:
    if args.stat_command == "list":
        for key in statistic_keys():
            d = get_statistic(key)
            fid = f" [{d.findstat_id}]" if d.findstat_id is not None else ""
            print(f"{key}{fid}: {d.name}")
        return 0
    desc = get_statistic(args.key)
    if args.stat_command == "eval":
        print(desc(parse_permutation(args.perm)))
        return 0
    # gf
    f = generating_function(desc, args.n)
    _emit(json.dumps({"stat": desc.key, "n": args.n, "gf": _gf_to_dict(f),
                      "display": str(f)}, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    if args.map_command == "list":
        for key in map_keys():
            d = get_map(key)
            fid = f" [{d.findstat_id}]" if d.findstat_id is not None else ""
            print(f"{key}{fid}: {d.name}")
        return 0
    desc = get_map(args.key)
    if args.map_command == "apply":
        print(format_permutation(desc(parse_permutation(args.perm))))
        return 0
    # orbits
    sizes = orbit_sizes(desc.key, args.n)
    doc = {
        "map": desc.key,
        "n": args.n,
        "signature": signature_from_sizes(sizes),
        "sizes": {str(k): v for k, v in sorted(sizes.items())},
        "order": lcm(*sizes),
        "fixed_counts": list(fixed_counts_from_sizes(sizes)),
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def _cmd_csp(args: argparse.Namespace) -> int:
    v = csp_check(get_statistic(args.stat).key, get_map(args.map).key, args.n)
    doc = {
        "stat": v.stat_key,
        "map": v.map_key,
        "n": v.n,
        "holds": v.holds,
        "order": v.order,
        "table": list(v.fixed),
        "float_evals": [[z.real, z.imag] for z in v.float_evals],
        "witnesses": list(v.witnesses),
        "shift_used": v.shift_used,
        "shift_preserves_residue": v.shift_preserves_residue,
        "residue_f": _gf_to_dict(v.residue_f),
        "residue_t": _gf_to_dict(v.residue_t),
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.output)
    return 0 if v.holds else 1


def _cmd_equidist(args: argparse.Namespace) -> int:
    same = equidistribution(get_statistic(args.stat_a).key, get_statistic(args.stat_b).key, args.n)
    print("equidistributed" if same else "different")
    return 0 if same else 1


def _cmd_scan(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    cache = RecordCache(resolve_cache_dir(args.cache_dir, config))
    stats = args.stats.split(",") if args.stats else None
    maps = args.maps.split(",") if args.maps else None
    workers = args.workers or int(config.get("workers", "1"))
    if workers > 1:
        report = scan(args.min_n, args.max_n, stats, maps, workers=workers)
        _write_back(cache, report)
    else:
        gf_provider, sizes_provider = _cached_providers(cache)
        report = scan(
            args.min_n, args.max_n, stats, maps,
            gf_provider=gf_provider, sizes_provider=sizes_provider,
        )
    fmt = args.format or config.get("format", "json")
    _emit(_SCAN_EMITTERS[fmt](report), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .acceptance import run_all

    numbers = [int(t) for t in args.criteria.split(",")] if args.criteria else None
    results = run_all(numbers)
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"criterion {res.number:2d} [{status}] {res.title}")
        for note in res.details:
            print(f"    {note}")
        ok = ok and res.passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="permsieve", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_stat = sub.add_parser("stat", help="statistic operations")
    stat_sub = p_stat.add_subparsers(dest="stat_command", required=True)
    p = stat_sub.add_parser("eval", help="evaluate a statistic on a permutation")
    p.add_argument("key")
    p.add_argument("perm")
    p = stat_sub.add_parser("gf", help="statistic generating function over S_n")
    p.add_argument("key")
    p.add_argument("--n", type=int, required=True)
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
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output")
    map_sub.add_parser("list", help="list registered maps")
    p_map.set_defaults(func=_cmd_map)

    p_csp = sub.add_parser("csp", help="cyclic sieving checks")
    csp_sub = p_csp.add_subparsers(dest="csp_command", required=True)
    p = csp_sub.add_parser("check", help="exact sieving verdict for one pair")
    p.add_argument("stat")
    p.add_argument("map")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output")
    p_csp.set_defaults(func=_cmd_csp)

    p = sub.add_parser("equidist", help="compare two statistic generating functions")
    p.add_argument("stat_a")
    p.add_argument("stat_b")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_equidist)

    p = sub.add_parser("scan", help="scan all registered pairs")
    p.add_argument("--min-n", type=int, default=4)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--stats", help="comma-separated statistic keys")
    p.add_argument("--maps", help="comma-separated map keys")
    p.add_argument("--format", choices=sorted(_SCAN_EMITTERS))
    p.add_argument("--workers", type=int)
    p.add_argument("--cache-dir")
    p.add_argument("--config")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--criteria", help="comma-separated criterion numbers")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PermsieveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
