"""Traced launcher for one permsieve command, and the span arithmetic.

Run as ``python3 perfbench/tracer.py SPANS_JSON RUN_ID permsieve-args...``:
it imports permsieve, puts timing wrappers around the calls into each layer,
runs ``permsieve.cli.main`` on the remaining arguments and writes the spans
and counters it kept in memory to SPANS_JSON.  Nothing in the package is
edited; because ``from x import f`` binds ``f`` in every importing module,
each wrapper is installed on every ``permsieve`` module attribute that still
holds the original object.

The launcher also notes two clock readings outside every span: once the
wrappers are installed, and when ``main`` returns.  ``time.perf_counter`` is
the system-wide monotonic clock on Linux, so ``run.py`` can set them against
its own readings around the process.

Worker processes of ``scan --workers N`` inherit the wrappers but their spans
stay in the workers and are lost, so on parallel scans the per-layer numbers
cover the parent process only.

:func:`layer_metrics` turns a spans document into the per-layer metrics
(self time per layer, call counts, cache outcomes); ``run.py`` imports it.
"""

from __future__ import annotations

import json
import sys
import time
from functools import lru_cache, wraps
from importlib import import_module

CLASSICAL_PAIRS = frozenset({"st423", "st428", "st436", "st437"})
VINCULAR = frozenset({"st356", "st357", "st358", "st360"})
DISTANCES = frozenset({"st1076", "st1077"})
ENCODED_MAPS = frozenset({"corteel", "invert_laguerre_heap"})
COUNTERS = (
    "bijections.apply_calls",
    "permutations.rank_calls",
    "permutations.unrank_calls",
    "polynomials.evaluate_calls",
    "polynomials.fold_calls",
    "cli.report_bytes",
)


class Recorder:
    """Spans and counters of one process, kept in memory until :meth:`dump`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, detail, start, end, parent index]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.clock: dict[str, float] = {}  # perf_counter readings outside any span

    def open(self, name: str, detail: str = "") -> list:
        parent = self.stack[-1] if self.stack else None
        rec = [name, detail, time.perf_counter(), None, parent]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self.stack.pop()

    def spanned(self, name: str, detail=None):
        """Decorator: one span per call; ``detail(*args)`` labels it."""

        def deco(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                rec = self.open(name, detail(*args) if detail else "")
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(rec)

            return wrapper

        return deco

    def counted(self, counter: str):
        def deco(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[counter] += 1
                return fn(*args, **kwargs)

            return wrapper

        return deco

    def dump(self, path: str) -> None:
        doc = {
            "run_id": self.run_id,
            "counts": self.counts,
            "clock": self.clock,
            "spans": [
                {"run": self.run_id, "name": name, "detail": detail,
                 "start": start, "end": end, "parent": parent}
                for name, detail, start, end, parent in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _rebind(original, wrapper) -> None:
    """Replace ``original`` on every loaded permsieve module that binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "permsieve" and not mod_name.startswith("permsieve."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _map_key(map_desc, n=None) -> str:
    return map_desc if isinstance(map_desc, str) else map_desc.key


def install(rec: Recorder) -> None:
    """Wrap the layer boundaries of an imported permsieve."""
    # import_module, not "import permsieve.scan as scan": the package binds
    # the name ``scan`` to the function, which "import ... as" would return.
    acceptance, cli, orbits, permutations, scan, sieving = (
        import_module(f"permsieve.{name}")
        for name in ("acceptance", "cli", "orbits", "permutations", "scan", "sieving")
    )
    from permsieve.bijections import MapDescriptor
    from permsieve.cache import RecordCache
    from permsieve.polynomials import IntPolynomial

    # GF computations: a fresh memo around the traced computation, so memo
    # hits open no span and every span is one computed generating function.
    gf_inner = sieving._generating_function_cached.__wrapped__
    sieving._generating_function_cached = lru_cache(maxsize=None)(
        rec.spanned("gf", lambda key, n: key)(gf_inner)
    )
    # Orbit decompositions: decompose runs only on a decompose_cached miss.
    _rebind(orbits.decompose, rec.spanned("orbits", _map_key)(orbits.decompose))
    _rebind(sieving.verdict_from_parts,
            rec.spanned("sieving.verdict")(sieving.verdict_from_parts))
    _rebind(scan.scan, rec.spanned("scan")(scan.scan))
    _rebind(scan.dedupe, rec.spanned("scan.dedupe")(scan.dedupe))

    _rebind(permutations.perm_rank,
            rec.counted("permutations.rank_calls")(permutations.perm_rank))
    _rebind(permutations.perm_unrank,
            rec.counted("permutations.unrank_calls")(permutations.perm_unrank))
    MapDescriptor.__call__ = rec.counted("bijections.apply_calls")(MapDescriptor.__call__)
    IntPolynomial.evaluate = rec.counted("polynomials.evaluate_calls")(IntPolynomial.evaluate)
    IntPolynomial.fold = rec.counted("polynomials.fold_calls")(IntPolynomial.fold)

    load_vector = RecordCache.load_vector

    def traced_load(self, key, n):
        span = rec.open("cache.load", f"{key}_{n}")
        try:
            out = load_vector(self, key, n)
        finally:
            rec.close(span)
        if out is not None:
            outcome = "hit"
        else:  # outside the span: the extra stat is tracing cost, not cache work
            outcome = "corrupt" if self._path(key, n).exists() else "miss"
        span[1] += "|" + outcome
        return out

    RecordCache.load_vector = traced_load
    store_vector = RecordCache.store_vector
    RecordCache.store_vector = rec.spanned("cache.store", lambda self, key, n, *a: f"{key}_{n}")(
        store_vector
    )

    for fmt, emitter in list(cli._SCAN_EMITTERS.items()):
        cli._SCAN_EMITTERS[fmt] = rec.spanned("cli.emit", lambda report, fmt=fmt: fmt)(emitter)
    emit = cli._emit

    def traced_emit(text, output):
        rec.counts["cli.report_bytes"] += len(text.encode("utf-8"))
        span = rec.open("cli.emit", "write")
        try:
            return emit(text, output)
        finally:
            rec.close(span)

    _rebind(emit, traced_emit)
    acceptance.CRITERIA = tuple(
        (number, rec.spanned(f"acceptance.c{number:02d}")(fn))
        for number, fn in acceptance.CRITERIA
    )
    cli.main = rec.spanned("cli")(cli.main)


def layer_metrics(doc: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one spans document: name -> (value, unit).

    A span's self time is its duration minus the durations of its direct
    children; ``*_s`` layer metrics are self times, except the
    ``acceptance.cNN_s`` criterion times, which include their children.
    """
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] += sp["end"] - sp["start"]
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_sum = 0.0
    out: dict[str, tuple[float, str]] = {}
    outcomes = {"hit": 0, "miss": 0, "corrupt": 0}
    records: set[str] = set()

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for i, sp in enumerate(spans):
        name, detail = sp["name"], sp["detail"]
        self_s = sp["end"] - sp["start"] - child_time[i]
        self_sum += self_s
        calls[name] = calls.get(name, 0) + 1
        add(name, self_s)
        if name == "gf":
            group = ("classical_pairs" if detail in CLASSICAL_PAIRS else
                     "vincular" if detail in VINCULAR else
                     "distance" if detail in DISTANCES else "other")
            add(f"gf.{group}", self_s)
        elif name == "orbits" and detail in ENCODED_MAPS:
            add("orbits.encoded", self_s)
        elif name.startswith("acceptance.c"):
            out[f"{name}_s"] = (sp["end"] - sp["start"], "s")
        elif name == "cache.load":
            record, _, outcome = detail.rpartition("|")
            outcomes[outcome] += 1
            records.add(record)
        elif name == "cache.store":
            records.add(detail)

    def seconds(metric: str, total: str) -> None:
        out[metric] = (totals.get(total, 0.0), "s")

    for group in ("", ".classical_pairs", ".vincular", ".distance", ".other"):
        seconds(f"gf{group}_s" if group else "gf.s", f"gf{group}")
    out["gf.computed"] = (calls.get("gf", 0), "count")
    seconds("orbits.s", "orbits")
    out["orbits.computed"] = (calls.get("orbits", 0), "count")
    seconds("orbits.encoded_s", "orbits.encoded")
    seconds("sieving.verdict_s", "sieving.verdict")
    out["sieving.verdicts"] = (calls.get("sieving.verdict", 0), "count")
    seconds("cache.load_s", "cache.load")
    loads = calls.get("cache.load", 0)
    out["cache.loads"] = (loads, "count")
    out["cache.hits"] = (outcomes["hit"], "count")
    out["cache.misses"] = (outcomes["miss"], "count")
    out["cache.corrupt"] = (outcomes["corrupt"], "count")
    seconds("cache.store_s", "cache.store")
    out["cache.stores"] = (calls.get("cache.store", 0), "count")
    out["cache.loads_per_record"] = (loads / len(records) if records else 0.0, "loads/record")
    seconds("scan.s", "scan")
    seconds("scan.dedupe_s", "scan.dedupe")
    seconds("cli.s", "cli")
    seconds("cli.emit_s", "cli.emit")
    for counter in COUNTERS:
        out[counter] = (doc["counts"][counter], "bytes" if counter == "cli.report_bytes" else "count")
    for number in range(1, 13):
        out.setdefault(f"acceptance.c{number:02d}_s", (0.0, "s"))
    out["acceptance.s"] = (sum(v for k, v in totals.items() if k.startswith("acceptance.c")), "s")
    out["trace.self_sum_s"] = (self_sum, "s")
    return out


def main(argv: list[str]) -> int:
    spans_path, run_id, *cli_args = argv
    rec = Recorder(run_id)
    import permsieve.cli

    install(rec)
    rec.clock["ready"] = time.perf_counter()
    try:
        return permsieve.cli.main(cli_args)
    finally:
        rec.clock["returned"] = time.perf_counter()
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
