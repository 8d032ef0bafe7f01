"""Self-test of the benchmark harness on a tiny scan range.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``.

It checks that:

* on scan range 4..5 (and three fast gate criteria), every workload prints
  every metric BENCHMARK.json names, with its unit, with tracing off and on,
  and without failed executions;
* a report with one flipped byte counts as a failed execution;
* a gate criterion forced to fail counts as a failed execution;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import run  # noqa: E402

TINY = run.Spec(
    4, 5,
    "23b8e5c7175721306b310570cb2cb53f111600bfd310499aeac4bbaee152de2c", 1_269_098,
    {"pairs": 1254, "apparent": 337, "fail": 917, "skipped": 0,
     "classes": 304, "apparent_classes": 39},
    criteria=(1, 7, 11),
)
FAILING_GATE = (
    "import sys, permsieve.acceptance as a;"
    "a.CRITERIA = ((1, lambda: a.CriterionResult(1, 'forced failure', False)),) + a.CRITERIA[1:];"
    "from permsieve.cli import main; sys.exit(main())"
)


def flip_one_byte(report: Path) -> None:
    blob = bytearray(report.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    report.write_bytes(bytes(blob))


def main() -> int:
    root = Path.cwd()
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[group]}
        for workload in run.WORKLOADS:
            result, _ = run.run_workload(root, workload, seed=7, seconds=0.1, trace=trace, spec=TINY)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace={int(trace)}: {group} metrics and units")
            expect(result["failed"] == 0 and result["correct"],
                   f"{workload} trace={int(trace)}: no failed executions")

    def tamper(bench: run.Bench) -> None:
        bench.after_exec = flip_one_byte

    result, _ = run.run_workload(root, "scan-cold", 7, 0.1, False, TINY, tamper)
    expect(result["failed"] == result["attempted"] == 1 and not result["correct"],
           "a report with one flipped byte is a failed execution")

    def fail_gate(bench: run.Bench) -> None:
        bench.entry = FAILING_GATE

    result, _ = run.run_workload(root, "gate", 7, 0.1, False, TINY, fail_gate)
    expect(result["failed"] == result["attempted"] == 1 and not result["correct"],
           "a forced gate failure is a failed execution")

    bare = root / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(root / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without the program the benchmark exits non-zero and prints no result")

    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
