"""hball benchmark: run one workload through the `hball` command and print
its metrics as one JSON object on the last line of standard output.

    python3 hballbench/run.py --workload closure-n2 --seed 0 --seconds 5 --trace 0

Each round is a fresh process (child.py) that loads a config file and writes
a report file, as a user's `hball <experiment> --config ... --out ...` does.
Rounds repeat until their summed duration reaches --seconds; every report
is checked against the benchmark's own reference computations (checks.py)
outside the timed region.  With --trace 0 the metrics are the end-to-end
ones (medians over rounds; setup_s also over set-up-only rounds), with
--trace 1 the per-layer counters of traced rounds (tracing.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up-only rounds per run, after one untimed round that compiles bytecode.
SETUP_ROUNDS = 5
# Each run must end well within 180 s; a round still running then is killed.
RUN_BUDGET_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    # the work pool stays at its default size of 1, and BLAS runs on one
    # thread: on a shared two-core machine a second BLAS thread adds spread
    # to the run times without making them shorter
    env.pop("HBALL_THREADS", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class Round:
    """One child process: its timing marks, peak RSS and report."""

    def __init__(self, workdir: Path, index: int, config_path: Path, *, trace: bool,
                 setup_only: bool, timeout: float):
        self.report_path = workdir / f"report-{index}.json"
        timing_path = workdir / f"timing-{index}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--config", str(config_path),
               "--out", str(self.report_path), "--timing", str(timing_path)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.duration = time.monotonic() - t0
        self.peak_rss_mb = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB
        self.ok = proc.returncode == 0 and timing_path.exists()
        marks = json.loads(timing_path.read_text()) if self.ok else {}
        self.ok = self.ok and "enter" in marks
        self.setup_s = marks["enter"] - t0 if self.ok else None
        self.wall_s = marks["end"] - marks["enter"] if self.ok else None
        self.exit_code = marks.get("exit_code")
        self.counters = marks.get("counters", {})

    def report(self) -> dict:
        if not (self.ok and self.report_path.exists()):
            return {}
        return json.loads(self.report_path.read_text())


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=_runs_dir()))
    try:
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(checks.config(workload, seed)))

        def remaining() -> float:
            return RUN_BUDGET_S - (time.monotonic() - start)

        setups = []
        if not trace:
            for i in range(SETUP_ROUNDS + 1):
                r = Round(workdir, i, config_path, trace=False, setup_only=True,
                          timeout=remaining())
                if i > 0 and r.ok:
                    setups.append(r.setup_s)

        # whole rounds, at least one, until their summed duration reaches `seconds`
        rounds, attempted, failed, measured = [], 0, 0, 0.0
        while not rounds or (measured < seconds and remaining() > 0):
            r = Round(workdir, 100 + len(rounds), config_path, trace=trace, setup_only=False,
                      timeout=remaining())
            rounds.append(r)
            measured += r.duration
            # outside the timed region: check the report against the references
            outcomes = checks.check(workload, r.report(), seed)
            attempted += len(outcomes)
            bad = [o for o in outcomes if not o.ok]
            failed += len(bad)
            for o in bad:
                print(f"{workload} seed={seed} FAILED {o.name}: {o.detail}", file=sys.stderr)
            if not r.ok:
                print(f"{workload} seed={seed} round ended without a report "
                      f"(exit code {r.exit_code})", file=sys.stderr)
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    good = [r for r in rounds if r.ok]
    if trace:
        metrics = {
            name: {"value": statistics.median(r.counters.get(name, 0.0) for r in good)
                   if good else 0.0, "unit": tracing.unit_of(name)}
            for name in tracing.METRICS
        }
    else:
        setups += [r.setup_s for r in good]
        metrics = {
            "setup_s": {"value": statistics.median(setups) if setups else 0.0, "unit": "s"},
            "wall_s": {"value": statistics.median(r.wall_s for r in good) if good else 0.0,
                       "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb for r in good)
                            if good else 0.0, "unit": "MB"},
        }
    return {"correct": failed == 0 and len(good) == len(rounds), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _runs_dir() -> Path:
    path = HERE / ".runs"
    path.mkdir(exist_ok=True)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hball" / "cli.py").is_file():
        print(f"no hball sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in checks.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {checks.WORKLOADS}",
              file=sys.stderr)
        return 2
    # the checks call the program's kernel and reproducing formula directly
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
