"""Record a benchmark file: every workload at several seeds, plus one traced run.

Usage, from the root of a checkout::

    python3 perfbench/record.py --seeds 1-10 --output perfbench/BASELINE.json

For each workload BENCHMARK.json declares it runs ``perfbench/run.py`` once
per seed with tracing off, then once with tracing on (first seed), and
writes per workload the median, quartiles and spread (interquartile range
over median) of each end-to-end metric, every run's values, the traced
run's per-layer metrics, and the environment record.  Two such files taken on the same machine are
what a claimed speed-up compares.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import run  # noqa: E402

DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
SECONDS = DECLARED["run_seconds"]


def one_run(workload: str, seed: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(int(trace))],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--output", required=True)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    doc = {"environment": run.environment(Path.cwd()), "run_seconds": SECONDS,
           "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in DECLARED["workloads"]):
        runs = []
        for seed in seeds:
            start = time.perf_counter()
            res = one_run(workload, seed, trace=False)
            runs.append(res)
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s, "
                  f"failed {res['failed']}/{res['attempted']}, "
                  + ", ".join(f"{k}={m['value']:.4f}" for k, m in res["metrics"].items()),
                  flush=True)
        traced = one_run(workload, seeds[0], trace=True)
        names = runs[0]["metrics"]
        doc["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                name: dict(summarise([r["metrics"][name]["value"] for r in runs]),
                           unit=names[name]["unit"],
                           values=[r["metrics"][name]["value"] for r in runs])
                for name in names
            },
            "traced": traced,
        }
        for name, s in doc["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.4f} {s['unit']}, "
                  f"quartiles {s['q1']:.4f}..{s['q3']:.4f}, spread {s['spread']:.4f}", flush=True)
    Path(args.output).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
