"""The repository benchmark: one workload, measured end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``paper-corpus``, ``fuzz-gate``, ``serve-restart`` (see
README.md).  Each pass runs in a fresh worker process; passes repeat
while the next one is projected to end within ``--seconds``, and at
least one runs.  Set-up is sampled ``SETUP_SAMPLES`` times (the passes'
own set-ups plus set-up-only workers) and reported as the median.

With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` one untraced and one traced pass run, and the metrics are
the per-layer metrics plus ``trace.overhead_ratio``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; progress and failure notes go
to standard error.  Exits with status 2, printing no result, when the
checkout holds no ``src/repro`` package.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

WORKLOADS = ("paper-corpus", "fuzz-gate", "serve-restart")
SETUP_SAMPLES = 5
#: A run must end within 180 s; no worker may outlive this budget.
RUN_BUDGET_S = 170.0

_worker_ids = itertools.count()


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, trace: int, deadline: float,
               setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its document.
    The worker gets its own process group, so that a timeout also stops
    any daemon it started."""
    out = harness.OUT_DIR / f"worker-{os.getpid()}-{next(_worker_ids)}.json"
    command = [sys.executable, str(harness.BENCH_DIR / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--out", str(out)]
    if setup_only:
        command.append("--setup-only")
    proc = subprocess.Popen(command, stdout=sys.stderr, cwd=str(harness.ROOT),
                            env=harness.source_env(), start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise WorkerFailed(f"{workload} worker exceeded the run budget")
    finally:
        # reap anything the worker left in its group (a daemon whose
        # worker crashed)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited with {proc.returncode}")
    try:
        return json.loads(out.read_text("utf-8"))
    finally:
        out.unlink()


def end_to_end(passes: List[dict], setups: List[float]) -> Dict[str, tuple]:
    cells = [ms for p in passes for ms in p["cell_ms"]]
    median = statistics.median
    return {
        "setup_s": (median(setups), "s"),
        "total_s": (median([p["total_s"] for p in passes]), "s"),
        "compile_s": (median([p["compile_s"] for p in passes]), "s"),
        "run_s": (median([p["run_s"] for p in passes]), "s"),
        "cell_ms.p50": (harness.percentile(cells, 50), "ms"),
        "cell_ms.p90": (harness.percentile(cells, 90), "ms"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB"),
    }


def measure(workload: str, seed: int, seconds: int, trace: int):
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    if trace:
        plain = run_worker(workload, seed, 0, deadline)
        traced = run_worker(workload, seed, 1, deadline)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = (
            traced["total_s"] / plain["total_s"], "ratio")
        return [plain, traced], metrics
    passes = [run_worker(workload, seed, 0, deadline)]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
        passes.append(run_worker(workload, seed, 0, deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, 0, deadline,
                                 setup_only=True)["setup_s"])
    return passes, end_to_end(passes, setups)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.use_source_tree()
    except harness.SourceTreeMissing as exc:
        print(f"error: {exc}; run from the root of a repro checkout",
              file=sys.stderr)
        return 2
    harness.OUT_DIR.mkdir(exist_ok=True)
    # One CPU for the whole run: the daemon of serve-restart then runs
    # where its client's speed probes run, and no pass migrates.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        passes, metrics = measure(args.workload, args.seed, args.seconds,
                                  args.trace)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for note in p["failures"]:
            print(f"FAILED {note}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
