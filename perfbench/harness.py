"""Shared pieces of the benchmark: paths, the paper corpus, the
expected-results file, percentiles, memory readings and speed-normalized
time.

Everything here is plain Python; the ``repro`` package is imported
lazily so that ``run.py`` can refuse to start (without printing a
result) in a directory that holds no source tree.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for cache directories, daemon logs and traces.  It is
#: listed in the root ``.gitignore``.
OUT_DIR = ROOT / ".perfbench"
EXPECTED_FILE = BENCH_DIR / "expected.json"

#: The configurations of the paper's Figure 9 / Table 2 evaluation plus
#: the loop-hoisting variants, i.e. every configuration the paper-corpus
#: and serve-restart workloads measure.
LABELS = ("baseline", "softbound", "lowfat", "softbound-hoist",
          "lowfat-hoist")
#: Instruction budget of every corpus cell (the experiment engine's
#: default, so serve results and direct runs are the same cells).
CORPUS_MAX_INSTRUCTIONS = 50_000_000

#: The fuzz-gate checks this fixed draw of the tier-1 gate's corpus
#: (``generate_corpus(FUZZ_CORPUS_SEED, FUZZ_PROGRAMS)``); the run seed
#: only orders it.  See README.md for why the draw is not re-seeded.
FUZZ_CORPUS_SEED = 0
FUZZ_PROGRAMS = 4


class SourceTreeMissing(RuntimeError):
    """The checkout has no ``src/repro`` package to measure."""


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src`` directory."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_env() -> Dict[str, str]:
    """Environment for child processes that import ``repro``."""
    env = dict(os.environ)
    # string hashing (and so set/dict iteration and allocation order) is
    # fixed, so a pass does the same work on every run
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def corpus_cells() -> List[Tuple[str, str]]:
    """All 100 (workload, label) cells, in canonical order."""
    from repro.workloads import all_names

    return [(name, label) for name in all_names() for label in LABELS]


def cell_id(workload: str, label: str) -> str:
    return f"{workload}/{label}"


def compile_cell(workload, label: str):
    """``compile_program`` for one corpus cell, as the experiment
    engine compiles it (looked up on the module at call time, so the
    traced run's wrappers see the call)."""
    from repro import driver
    from repro.experiments.common import config_for

    options = driver.CompileOptions(
        obfuscate_pointer_copies=tuple(workload.obfuscated_units))
    config = config_for(label)
    if config is None:
        return driver.compile_program(workload.sources, options=options)
    return driver.compile_program(workload.sources, config, options)


def run_cell(program, engine: str):
    from repro import driver

    return driver.run_program(program, max_instructions=CORPUS_MAX_INSTRUCTIONS,
                              engine=engine)


def cell_entry(workload, label: str, program, run,
               baseline_digest: str) -> dict:
    """The expected-file entry of one executed cell.  Instrumented cells
    are ``ok`` only when their output equals the baseline's (the
    experiment engine's transparency check)."""
    from repro.experiments.common import BenchResult

    output_ok = (label == "baseline"
                 or output_digest(run.output) == baseline_digest)
    result = BenchResult.from_run(workload, label, program.options.extension_point,
                                  program, run, output_ok=output_ok)
    return expected_entry(result.to_json())


# ----------------------------------------------------------------------
# expected results

def output_digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def expected_entry(result: dict) -> dict:
    """The comparable part of a ``BenchResult.to_json()`` document:
    every counter, the status and ``describe()``, with the output lines
    replaced by their digest and count."""
    entry = {k: v for k, v in result.items()
             if k not in ("workload", "label", "extension_point", "output")}
    entry["output_sha256"] = output_digest(result["output"])
    entry["output_lines"] = len(result["output"])
    return entry


def load_expected(path: Path = EXPECTED_FILE) -> Dict[str, dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["cells"]


def entry_mismatch(got: dict, want: dict) -> List[str]:
    """Names of the fields in which ``got`` differs from ``want``."""
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))


# ----------------------------------------------------------------------
# statistics

def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``values``.

    Refuses (``ValueError``) unless at least ten samples lie beyond the
    percentile, so a reported p90 always rests on at least 100 samples
    and a p50 on at least 20."""
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    n = len(values)
    beyond = n * (100 - q) / 100
    if beyond < 10:
        raise ValueError(
            f"p{q:g} needs at least 10 samples beyond it; "
            f"{n} samples leave {beyond:g}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * n) - 1)]


# ----------------------------------------------------------------------
# speed-normalized time

#: Iterations of one speed-probe loop, and the loop's duration at the
#: reference speed.  Normalized times are seconds at that speed.
PROBE_ITERATIONS = 6000
PROBE_REFERENCE_S = 0.0011


def _probe_loop() -> int:
    total, table = 0, {}
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
        table[i & 1023] = total
    return total


def probe() -> Tuple[float, float, float]:
    """Run the probe loop twice; ``(start, end, duration)`` where the
    duration is the faster of the two runs (robust to one interrupt)."""
    start = time.perf_counter()
    _probe_loop()
    middle = time.perf_counter()
    _probe_loop()
    end = time.perf_counter()
    return start, end, min(middle - start, end - middle)


class Timeline:
    """Wall-clock intervals rescaled to a reference CPU speed.

    The hosts this benchmark runs on change speed by up to 1.5x within
    seconds (other tenants share the cores), which moves wall-clock
    figures far more than the changes they are meant to judge.  The
    benchmark therefore runs a fixed pure-Python probe loop at every
    boundary it controls (between cells, jobs and requests) and reports
    each interval scaled by ``PROBE_REFERENCE_S`` over the mean probe
    duration of the two marks around it.  Time spent in probes is not
    counted.
    """

    def __init__(self) -> None:
        #: (start, end, probe duration) per mark, in time order
        self.marks: List[Tuple[float, float, float]] = []

    def mark(self) -> None:
        self.marks.append(probe())

    def scaled(self, start: float, end: float) -> float:
        """Normalized length of the wall-clock interval [start, end]."""
        total = 0.0
        for (_, open_, before), (close, _, after) in zip(self.marks,
                                                         self.marks[1:]):
            lo, hi = max(start, open_), min(end, close)
            if hi > lo:
                total += (hi - lo) * 2 * PROBE_REFERENCE_S / (before + after)
        return total

    def total(self) -> float:
        """Normalized time from the first mark to the last."""
        return self.scaled(self.marks[0][1], self.marks[-1][0])


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in /proc/{pid}/status")
