"""One measured pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --out FILE
    python3 perfbench/worker.py --workload NAME --seed N --setup-only --out FILE

``run.py`` starts one worker per pass so that every pass starts from
the same state and peak memory is that of a single pass.  The worker
writes one JSON document to ``--out``: the set-up time, the pass's
measurements and correctness counts, and with ``--trace 1`` the
per-layer metrics (the raw trace goes to ``.perfbench/``).  Times are
speed-normalized (see ``harness.Timeline``).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

TIMELINE = harness.Timeline()
TIMELINE.mark()  # set-up is timed from here, before any other import

import argparse  # noqa: E402
import gc  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

import tracer as tracing  # noqa: E402

#: Phase-2 requests of serve-restart (repeats served from the memo).
MEMO_REPEATS = 400
#: How many failure messages a pass reports in full.
MAX_FAILURE_NOTES = 5
SERVE_PHASES = ("miss", "memo_hit", "disk_hit")


class Pass:
    """Counts and per-cell latencies of one pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.cell_ms: List[float] = []

    def fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")


def job_times(timeline: harness.Timeline,
              jobs: List[list]) -> Tuple[float, float, List[float]]:
    """Normalized compile and run totals of timed jobs, and each job's
    compile+run latency in ms."""
    compile_s = run_s = 0.0
    latencies = []
    for c0, c1, r0, r1 in jobs:
        if r0 is None:  # the job failed to compile
            continue
        compiled, ran = timeline.scaled(c0, c1), timeline.scaled(r0, r1)
        compile_s += compiled
        run_s += ran
        latencies.append((compiled + ran) * 1000.0)
    return compile_s, run_s, latencies


# ----------------------------------------------------------------------
# paper-corpus

class PaperCorpus:
    """All 100 cells, compiled from source and run once on the codegen
    engine, in seeded order."""

    def __init__(self, seed: int, tracer: tracing.Tracer):
        self.seed, self.tracer = seed, tracer

    def setup(self) -> None:
        from repro.workloads import get

        self.expected = harness.load_expected()
        self.cells = harness.corpus_cells()
        random.Random(f"paper-corpus:{self.seed}").shuffle(self.cells)
        self.workloads = {name: get(name) for name, _ in self.cells}

    def run(self, result: Pass, timeline: harness.Timeline) -> Dict[str, float]:
        jobs = []
        for name, label in self.cells:
            cell = harness.cell_id(name, label)
            self.tracer.cell = cell
            workload = self.workloads[name]
            result.attempted += 1
            try:
                t0 = time.perf_counter()
                program = harness.compile_cell(workload, label)
                t1 = time.perf_counter()
                run = harness.run_cell(program, "codegen")
                jobs.append([t0, t1, t1, time.perf_counter()])
                baseline = self.expected[harness.cell_id(name, "baseline")]
                entry = harness.cell_entry(workload, label, program, run,
                                           baseline["output_sha256"])
                wrong = harness.entry_mismatch(entry, self.expected[cell])
                if wrong:
                    result.fail(cell, "differs from expected in "
                                + ", ".join(wrong))
            except Exception as exc:  # a host exception fails the cell
                result.fail(cell, f"{type(exc).__name__}: {exc}")
            # Every cell starts from a collected heap, as a fresh
            # `repro run` would; otherwise the peak depends on where in
            # the seeded order the garbage of earlier cells is collected.
            program = run = None
            gc.collect()
            timeline.mark()
        compile_s, run_s, result.cell_ms = job_times(timeline, jobs)
        return {"compile_s": compile_s, "run_s": run_s,
                "peak_rss_mb": harness.peak_rss_mb()}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# fuzz-gate

class FuzzGate:
    """The tier-1 differential gate: the fuzz programs through the full
    matrix (9 labels x every engine), serially."""

    def __init__(self, seed: int, tracer: tracing.Tracer):
        self.seed, self.tracer = seed, tracer

    def setup(self) -> None:
        from repro.fuzz import generator
        from repro.fuzz.oracle import FULL_MATRIX, DifferentialOracle

        self.programs = generator.generate_corpus(harness.FUZZ_CORPUS_SEED,
                                                  harness.FUZZ_PROGRAMS)
        random.Random(f"fuzz-gate:{self.seed}").shuffle(self.programs)
        self.oracle = DifferentialOracle(FULL_MATRIX, jobs=1)

    def run(self, result: Pass, timeline: harness.Timeline) -> Dict[str, float]:
        # Like the corpus cells, every job starts from a collected heap,
        # so the garbage of earlier jobs does not land in later ones.
        jobs = tracing.install_job_timer(self.tracer, timeline, collect=True)
        result.attempted = len(self.programs)
        try:
            report = self.oracle.run(self.programs,
                                     seed=harness.FUZZ_CORPUS_SEED)
            for name in sorted({m.program for m in report.mismatches}):
                kinds = sorted({m.kind for m in report.mismatches
                                if m.program == name})
                result.fail(name, "oracle mismatch: " + ", ".join(kinds))
        except Exception as exc:  # a host exception fails every program
            for program in self.programs:
                result.fail(program.name, f"{type(exc).__name__}: {exc}")
        timeline.mark()
        compile_s, run_s, result.cell_ms = job_times(timeline, jobs)
        return {"compile_s": compile_s, "run_s": run_s,
                "peak_rss_mb": harness.peak_rss_mb()}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# serve-restart

class Daemon:
    """``repro serve`` started through ``serve_launcher.py``."""

    def __init__(self, cache_dir: Path, work_dir: Path, life: int,
                 traced: bool):
        self.stats_file = work_dir / f"daemon-{life}.json"
        log_path = work_dir / f"daemon-{life}.log"
        command = [sys.executable, str(harness.BENCH_DIR / "serve_launcher.py"),
                   "--stats", str(self.stats_file)]
        if traced:
            command.append("--trace")
        command += ["--", "serve", "--host", "127.0.0.1", "--port", "0",
                    "--jobs", "1", "--cache-dir", str(cache_dir)]
        with open(log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, text=True,
                env=harness.source_env(), cwd=str(harness.ROOT))
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start (see {log_path})")
        host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
        self.host, self.port = host, int(port)

    def post(self, body: dict) -> Tuple[int, dict]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request("POST", "/run", body=json.dumps(body),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stop(self) -> Optional[dict]:
        """Interrupt the daemon (it shuts down cleanly on SIGINT) and
        return what its launcher recorded."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if not self.stats_file.exists():
            return None
        return json.loads(self.stats_file.read_text("utf-8"))


class ServeRestart:
    """One closed-loop client on one connection at a time: every cell
    once (misses), seeded repeats (memo hits), then a daemon restart
    over the same cache and every cell once more (disk hits)."""

    def __init__(self, seed: int, traced: bool):
        self.seed, self.traced = seed, traced
        self.daemon: Optional[Daemon] = None
        self.latencies: Dict[str, List[float]] = {p: [] for p in SERVE_PHASES}

    def setup(self) -> None:
        self.expected = harness.load_expected()
        cells = harness.corpus_cells()
        rng = random.Random(f"serve-restart:{self.seed}")
        # Misses go in canonical order, baselines first: every phase-1
        # request then computes exactly its own cell (an instrumented
        # cell needs its baseline's output), and the daemon's garbage --
        # so its peak memory -- does not depend on the seed.
        misses = sorted(cells, key=lambda c: c[1] != "baseline")
        memo = [rng.choice(cells) for _ in range(MEMO_REPEATS)]
        disk = list(cells)
        rng.shuffle(disk)
        self.phases = dict(zip(SERVE_PHASES, (misses, memo, disk)))
        self.work_dir = harness.OUT_DIR / f"serve-{os.getpid()}"
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.cache_dir = self.work_dir / "cache"
        self.cache_dir.mkdir(parents=True)
        self.daemon = Daemon(self.cache_dir, self.work_dir, 1, self.traced)

    def _send(self, phase: str, cell: Tuple[str, str], result: Pass):
        """POST one cell and check the answer; returns the request's
        wall-clock (start, end), or None when no answer came."""
        name, label = cell
        cid = harness.cell_id(name, label)
        result.attempted += 1
        body = {"workload": name, "instance": {"label": label}}
        start = time.perf_counter()
        try:
            status, document = self.daemon.post(body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            result.fail(f"{phase} {cid}", f"{type(exc).__name__}: {exc}")
            return None
        interval = (start, time.perf_counter())
        if status != 200:
            result.fail(f"{phase} {cid}", f"HTTP {status}: {document}")
            return interval
        wrong = harness.entry_mismatch(harness.expected_entry(document["result"]),
                                       self.expected[cid])
        if wrong:
            result.fail(f"{phase} {cid}",
                        "differs from expected in " + ", ".join(wrong))
        elif document["cached"] != (phase != "miss"):
            result.fail(f"{phase} {cid}",
                        f"served with cached={document['cached']}")
        return interval

    def run(self, result: Pass, timeline: harness.Timeline) -> Dict[str, float]:
        intervals, lives = [], []
        for phase, cells in self.phases.items():
            if phase == "disk_hit":
                lives.append(self.daemon.stop())
                self.daemon = Daemon(self.cache_dir, self.work_dir, 2,
                                     self.traced)
            for cell in cells:
                timeline.mark()
                intervals.append((phase, self._send(phase, cell, result)))
        timeline.mark()
        lives.append(self.daemon.stop())
        self.daemon = None
        if any(life is None for life in lives):
            raise RuntimeError("a daemon exited without writing its stats")
        for phase, interval in intervals:
            if interval is not None:
                latency = timeline.scaled(*interval) * 1000.0
                result.cell_ms.append(latency)
                self.latencies[phase].append(latency)
        compile_s = run_s = 0.0
        for life in lives:
            daemon_timeline = harness.Timeline()
            daemon_timeline.marks = life["marks"]
            compiled, ran, _ = job_times(daemon_timeline, life["jobs"])
            compile_s += compiled
            run_s += ran
        self.trace = tracing.merge_dumps([life["trace"] for life in lives])
        return {"compile_s": compile_s, "run_s": run_s,
                "peak_rss_mb": max(life["peak_rss_mb"] for life in lives)}

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
        shutil.rmtree(self.work_dir, ignore_errors=True)


def _serve_layers(latencies: Dict[str, List[float]],
                  trace: dict) -> Dict[str, tuple]:
    """Client-side latency per cache tier, and the client latency not
    spent in the daemon's ``run_job`` (HTTP, JSON and queueing); zero
    for workloads that send no requests."""
    metrics = {}
    for phase in SERVE_PHASES:
        values = latencies.get(phase, [])
        for q in (50, 90):
            metrics[f"campaign.serve.{phase}_ms.p{q}"] = (
                harness.percentile(values, q) if values else 0.0, "ms")
    run_job = sum(s["end"] - s["start"] for s in trace["spans"]
                  if s["name"] == "campaign.serve.run_job")
    client = sum(sum(v) for v in latencies.values()) / 1000.0
    metrics["campaign.serve.http_s"] = (client - run_job if client else 0.0,
                                        "s")
    return metrics


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark pass")
    parser.add_argument("--workload", required=True,
                        choices=("paper-corpus", "fuzz-gate", "serve-restart"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    harness.use_source_tree()
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    if args.workload == "paper-corpus":
        workload = PaperCorpus(args.seed, tracer)
    elif args.workload == "fuzz-gate":
        workload = FuzzGate(args.seed, tracer)
    else:
        workload = ServeRestart(args.seed, bool(args.trace))
    timeline = TIMELINE
    document: Dict[str, object] = {}
    try:
        workload.setup()
        timeline.mark()
        document["setup_s"] = timeline.total()
        if not args.setup_only:
            result = Pass()
            tracer.cell = None
            start = timeline.marks[-1][1]
            document.update(workload.run(result, timeline))
            end = timeline.marks[-1][0]
            document.update(
                total_s=timeline.scaled(start, end), wall_s=end - start,
                attempted=result.attempted, failed=len(result.failures),
                failures=result.failures[:MAX_FAILURE_NOTES],
                cell_ms=result.cell_ms)
            if args.trace:
                serve = isinstance(workload, ServeRestart)
                trace = workload.trace if serve else tracer.dump()
                layers = tracing.layer_metrics(trace)
                layers.update(_serve_layers(workload.latencies if serve else {},
                                            trace))
                layers["trace.uncovered_s"] = (
                    document["wall_s"] - tracing.root_seconds(trace, start),
                    "s")
                document["layers"] = layers
                trace_file = (harness.OUT_DIR /
                              f"trace-{args.workload}-seed{args.seed}.json")
                trace_file.write_text(json.dumps(trace), encoding="utf-8")
    finally:
        workload.close()
        tracer.uninstall()
    Path(args.out).write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
