"""permsieve benchmark: timed fresh-process runs of four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan-cold --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each one is there):

    scan-cold      permsieve scan --min-n 4 --max-n 7, empty cache, 1 worker
    scan-warm      the same scan against a cache that set-up filled
    scan-parallel  scan-cold with --workers 2
    gate           permsieve verify, all 12 criteria

Every timed execution is a fresh ``permsieve`` process.  The seed shuffles
the order of the full ``--stats``/``--maps`` lists handed to the scans; the
report bytes must not depend on it.  Each execution's output is checked (the
pinned sha256 of the 4..7 report, its summary, the catalogue of known
instances, 12/12 PASS for the gate); a miss counts as a failed execution.

Set-up is everything a run does before its first timed execution: it
byte-compiles the package, makes fresh directories and the seed's inputs,
three times over, and counts the median; on scan-warm it then fills the
cache twice from empty (each fill a checked cold scan) and adds the faster
fill.  A run then starts executions back to back while one more, as long as
the last, would end within ``--seconds``; at least one.  Each timing it
reports is the best of the run's executions, with the median, quartiles and
count printed beside it.  On a shared virtual machine other tenants slow
every process by up to 70% for stretches of seconds to minutes; the fastest
execution is the steadiest estimate of the program's own cost, as the
``timeit`` documentation also advises.  Peak memory is the median.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced execution (perfbench/tracer.py) next to an untraced one, and the
difference between the two walls is the tracing overhead.  Human-readable
lines before it give quartiles, sample counts and the environment record.
Everything the benchmark writes goes under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer  # noqa: E402  (sibling module, importable once the path is set)

WORKLOADS = ("scan-cold", "scan-warm", "scan-parallel", "gate")
ENTRY = "import sys; from permsieve.cli import main; sys.exit(main())"
RUN_BUDGET_S = 175.0  # every run must end within 180 s
FILLS = 2  # cache fills per scan-warm run; the faster one counts toward setup_s
SETUP_REPEATS = 3  # preparations per run; the median counts toward setup_s
TRACE_SLACK_S = 0.1  # allowed |traced wall - start-up - shut-down - layer self times|


@dataclass(frozen=True)
class Spec:
    """The scan range and the outputs the program must produce on it."""

    min_n: int
    max_n: int
    report_sha256: str
    report_bytes: int
    summary: dict
    criteria: Optional[tuple[int, ...]] = None  # None: all 12


FULL = Spec(
    4, 7,
    "0fa6ad370d7c20f8cf958c62e25eb20afbd75672a882a4e2334d2d56220bfcf6", 4_106_028,
    {"pairs": 1254, "apparent": 329, "fail": 925, "skipped": 0,
     "classes": 312, "apparent_classes": 39},
)


@dataclass
class Execution:
    rc: int
    started: float  # perf_counter just before the child was started
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class Bench:
    """One benchmark run of one workload inside a checkout."""

    def __init__(self, root: Path, workload: str, seed: int, spec: Spec = FULL):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.spec = spec
        self.build_dir = root / ".bench_build"
        self.work = self.build_dir / "work" / f"{workload}-{os.getpid()}"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.tally = Tally()
        self.entry = ENTRY  # the self-test swaps in a faulty entry
        self.after_exec: Optional[Callable[[Path], None]] = None  # and a report tamperer
        self.env = dict(os.environ)
        self.env.pop("PERMSIEVE_CACHE_DIR", None)
        self.env.update(
            PYTHONPATH=str(root / "src"),
            PYTHONPYCACHEPREFIX=str(self.build_dir / "pycache"),
            TMPDIR=str(self.work / "tmp"),
        )

    # -- processes ---------------------------------------------------------

    def execute(self, argv: list[str]) -> Execution:
        """Run one child in its own process group; wall, CPU and peak RSS."""
        out_path = self.work / "stdout.txt"
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.work / "cwd", env=self.env,
                stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
            )
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: the child must not outlive us
                _kill_group(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        _reap_group(proc.pid)
        return Execution(
            rc=proc.returncode,
            started=start,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        )

    def permsieve(self, args: list[str], spans: Optional[Path] = None) -> Execution:
        (self.work / "report.json").unlink(missing_ok=True)  # never check a stale report
        if spans is None:
            return self.execute(["-c", self.entry, *args])
        run_id = f"{self.workload}-seed{self.seed}-{os.getpid()}"
        return self.execute([str(Path(tracer.__file__)), str(spans), run_id, *args])

    # -- inputs --------------------------------------------------------------

    def fresh(self, *names: str) -> None:
        for name in names:
            shutil.rmtree(self.work / name, ignore_errors=True)
            (self.work / name).mkdir(parents=True)

    def command(self) -> list[str]:
        if self.workload == "gate":
            criteria = self.spec.criteria
            return ["verify"] + (["--criteria", ",".join(map(str, criteria))] if criteria else [])
        return self.scan_command(workers=2 if self.workload == "scan-parallel" else 1)

    def scan_command(self, workers: int) -> list[str]:
        from permsieve.bijections import map_keys
        from permsieve.statistics import statistic_keys

        rng = random.Random(self.seed)
        stats, maps = list(statistic_keys()), list(map_keys())
        rng.shuffle(stats)
        rng.shuffle(maps)
        return [
            "scan", "--min-n", str(self.spec.min_n), "--max-n", str(self.spec.max_n),
            "--stats", ",".join(stats), "--maps", ",".join(maps),
            "--workers", str(workers),
            "--cache-dir", str(self.work / "cache"), "--output", str(self.work / "report.json"),
        ]

    # -- correctness ---------------------------------------------------------

    def check(self, ex: Execution, also: tuple[str, ...] = ()) -> None:
        if self.after_exec is not None:
            self.after_exec(self.work / "report.json")
        if ex.rc != 0:
            problems = [f"exit code {ex.rc}: {ex.stdout[-400:]!r}"]
        elif self.workload == "gate":
            problems = self.gate_problems(ex.stdout)
        else:
            problems = self.report_problems(self.work / "report.json")
        self.tally.record(problems + list(also))

    def report_problems(self, path: Path) -> list[str]:
        from permsieve.scan import KNOWN_INSTANCES

        if not path.is_file():
            return ["no report written"]
        blob = path.read_bytes()
        problems = []
        digest = hashlib.sha256(blob).hexdigest()
        if digest != self.spec.report_sha256 or len(blob) != self.spec.report_bytes:
            problems.append(f"report sha256 {digest} ({len(blob)} bytes) differs from the pinned one")
        try:
            doc = json.loads(blob)
            summary = doc["summary"]
            status = {v["pair"]: v["status"] for v in doc["verdicts"]}
        except (ValueError, KeyError, TypeError) as exc:
            return problems + [f"report unreadable: {exc}"]
        if summary != self.spec.summary:
            problems.append(f"summary {summary} != {self.spec.summary}")
        for stat, mp, condition in KNOWN_INSTANCES:
            pair = f"{stat}|{mp}"
            if condition == "n>=4" and status.get(pair) != "apparent":
                problems.append(f"known instance {pair} is {status.get(pair)}")
        return problems

    def gate_problems(self, stdout: str) -> list[str]:
        want = self.spec.criteria or tuple(range(1, 13))
        lines = [ln for ln in stdout.splitlines() if ln.startswith("criterion")]
        passed = [int(ln.split()[1]) for ln in lines if "[PASS]" in ln]
        if sorted(passed) != sorted(want) or len(lines) != len(want):
            return [f"gate passed {len(passed)}/{len(want)} criteria: {lines}"]
        return []

    # -- the run -------------------------------------------------------------

    def prepare(self) -> list[str]:
        """Build, make fresh directories and the seed's inputs; the command to time."""
        build(self.root)
        self.work.mkdir(parents=True, exist_ok=True)
        self.fresh("cache", "tmp", "cwd")
        return self.command()

    def fill(self) -> float:
        """Fill an empty cache with one checked cold scan; its wall time."""
        start = time.perf_counter()
        self.fresh("cache")
        self.check(self.permsieve(self.scan_command(workers=1)))
        return time.perf_counter() - start

    def before_exec(self) -> None:
        if self.workload in ("scan-cold", "scan-parallel"):
            self.fresh("cache")
        self.fresh("tmp")

    def time_left_for(self, seconds: float) -> bool:
        """Whether ``seconds`` more still end well inside the run's budget."""
        return time.monotonic() + seconds + 2.0 < self.deadline

    def another(self, start: float, seconds: float, last: float) -> bool:
        """Whether one more execution like the last one ends within --seconds and the budget."""
        return time.perf_counter() - start + last <= seconds and self.time_left_for(1.3 * last)

    def run(self, seconds: float, trace: bool) -> dict:
        """Set up (build, directories, the seed's inputs, scan-warm's fills), then measure."""
        try:
            preps = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                command = self.prepare()
                preps.append(time.perf_counter() - start)
            prepared = statistics.median(preps)
            fills = [self.fill() for _ in range(FILLS)] if self.workload == "scan-warm" else []
            self.setup_s = prepared + min(fills, default=0.0)
            self.notes = ["setup_s: build, directories and inputs "
                          + ", ".join(f"{p:.4f}" for p in preps) + f" s (median {prepared:.4f})"
                          + "".join(f", fill {f:.4f} s" for f in fills)]
            return self.traced(command, seconds) if trace else self.timed(command, seconds)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def timed(self, command: list[str], seconds: float) -> dict:
        runs: list[Execution] = []
        start = time.perf_counter()
        while True:
            self.before_exec()
            runs.append(self.permsieve(command))
            self.check(runs[-1])
            if not self.another(start, seconds, runs[-1].wall_s):
                break
        walls = [r.wall_s for r in runs]
        self.notes.append(_spread_line("wall_s", walls, "s"))
        return {
            "wall_s": (min(walls), "s"),
            "setup_s": (self.setup_s, "s"),
            "cpu_s": (min(r.cpu_s for r in runs), "s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
        }

    def traced(self, command: list[str], seconds: float) -> dict:
        """Alternate untraced and traced executions; report the fastest traced one."""
        spans_dir = self.build_dir / "trace"
        spans_dir.mkdir(parents=True, exist_ok=True)
        plain: list[float] = []
        traced: list[tuple[float, dict, dict]] = []  # wall, accounting, spans
        start = time.perf_counter()
        while True:
            self.before_exec()
            ex = self.permsieve(command)
            self.check(ex)
            plain.append(ex.wall_s)
            # The first traced execution always starts: a traced run needs one.
            if traced and not self.time_left_for(traced[-1][0]):
                break
            self.before_exec()
            spans = spans_dir / f"{self.workload}-seed{self.seed}-{len(traced)}.json"
            spans.unlink(missing_ok=True)
            ex = self.permsieve(command, spans)
            if not spans.is_file():  # killed before it could write its spans
                self.check(ex)
                break
            doc = json.loads(spans.read_text(encoding="utf-8"))
            acct = accounting(ex, doc)
            slack = [] if abs(acct["unaccounted"]) <= TRACE_SLACK_S else [
                f"traced wall {ex.wall_s:.4f} s minus start-up {acct['startup']:.4f} s, "
                f"shut-down {acct['shutdown']:.4f} s and layer self times "
                f"{acct['self_sum']:.4f} s leaves {acct['unaccounted']:.4f} s, "
                f"over the {TRACE_SLACK_S} s slack"]
            self.check(ex, tuple(slack))
            traced.append((ex.wall_s, acct, doc))
            if not self.another(start, seconds, plain[-1] + ex.wall_s):
                break
        if traced:
            wall, acct, doc = min(traced, key=lambda t: t[0])
        else:
            wall, acct, doc = 0.0, dict.fromkeys(_ACCOUNTS, 0.0), _EMPTY_TRACE
        metrics = tracer.layer_metrics(doc)
        untraced = min(plain)
        metrics.update({
            "trace.wall_s": (wall, "s"),
            "trace.untraced_wall_s": (untraced, "s"),
            "trace.overhead_s": (wall - untraced, "s"),
            "trace.startup_s": (acct["startup"], "s"),
            "trace.shutdown_s": (acct["shutdown"], "s"),
            "trace.unaccounted_s": (acct["unaccounted"], "s"),
        })
        self.notes += [
            _spread_line("trace.untraced_wall_s", plain, "s"),
            _spread_line("trace.wall_s", [w for w, _, _ in traced], "s"),
            f"trace: of the traced wall {wall:.4f} s, start-up (process start to wrappers "
            f"installed) takes {acct['startup']:.4f} s and shut-down (main returned to process "
            f"end: writing the spans, interpreter exit) {acct['shutdown']:.4f} s, both clocked "
            f"apart from the spans; the layer self times sum to {acct['self_sum']:.4f} s, "
            f"leaving {acct['unaccounted']:.4f} s (slack {TRACE_SLACK_S} s)",
        ]
        if self.workload == "scan-parallel":
            self.notes.append("trace: scan worker processes are not traced; scan.s is the "
                              "parent's time waiting on the pool")
        return metrics


_ACCOUNTS = ("startup", "shutdown", "self_sum", "unaccounted")


def accounting(ex: Execution, doc: dict) -> dict[str, float]:
    """Split one traced execution's wall into start-up, shut-down, layer self time and the rest.

    Start-up runs from just before the process was started to the tracer's
    "wrappers installed" clock reading, shut-down from its "main returned"
    reading to the end of the process: clocks, not spans.  The rest is time
    the spans should have covered but did not (or covered twice).
    """
    startup = doc["clock"]["ready"] - ex.started
    shutdown = ex.started + ex.wall_s - doc["clock"]["returned"]
    self_sum = tracer.layer_metrics(doc)["trace.self_sum_s"][0]
    return {"startup": startup, "shutdown": shutdown, "self_sum": self_sum,
            "unaccounted": ex.wall_s - startup - shutdown - self_sum}


_EMPTY_TRACE = {"spans": [], "clock": {}, "counts": dict.fromkeys(tracer.COUNTERS, 0)}


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Kill whatever the child left in its process group and wait until it is gone."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _spread_line(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"{name}: no samples"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return (f"{name}: best {min(values):.4f} {unit}, median {statistics.median(values):.4f}, "
            f"quartiles {q1:.4f}..{q3:.4f}, n={len(values)}")


def build(root: Path) -> None:
    """Byte-compile the package into .bench_build; fail if there is no program."""
    if not (root / "src" / "permsieve" / "cli.py").is_file():
        raise SystemExit(f"no permsieve sources under {root / 'src'}; run from a checkout root")
    prefix = root / ".bench_build" / "pycache"
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src" / "permsieve")],
        env={**os.environ, "PYTHONPYCACHEPREFIX": str(prefix)}, check=True,
    )
    sys.pycache_prefix = str(prefix)  # this process imports the package too
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))


def environment(root: Path) -> dict:
    """Python version, CPUs, git SHA (when the checkout is a repo), CPU model."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or None
    except OSError:
        sha = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "cpu_model": cpu,
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 spec: Spec = FULL, configure: Optional[Callable[[Bench], None]] = None):
    """Run one workload; returns (result document, human-readable notes)."""
    bench = Bench(root, workload, seed, spec)
    if configure is not None:
        configure(bench)
    metrics = bench.run(seconds, trace)
    t = bench.tally
    notes = bench.notes + [f"error_rate: {t.failed}/{t.attempted} failed executions"]
    notes += [f"problem: {p}" for p in t.problems[:20]]
    result = {
        "correct": t.failed == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, notes


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    result, notes = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(environment(root), sort_keys=True))
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
