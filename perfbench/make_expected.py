"""Write or verify ``expected.json``, the benchmark's reference results.

The file holds, for each of the 100 paper-corpus cells, the digest of
the output lines, ``describe()`` and every ``BenchResult`` counter.  It
is generated with the reference tree-walker (``engine="interp"``), never
with an engine under test, and every benchmark run compares its results
against it.

    python3 perfbench/make_expected.py            # (re)write the file
    python3 perfbench/make_expected.py --verify   # determinism checks

``--verify`` generates the file in two separate processes and requires
both to be byte-identical to each other and to the committed file,
checks that the file's softbound/lowfat cycle ratios and wide-bounds
percentages print exactly as Figure 9 and Table 2 of
``report_output.md`` do, and checks that the fuzz-gate's programs are
generated identically in two processes.  It takes several minutes.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

REFERENCE_ENGINE = "interp"


def build() -> str:
    """The expected file's text, computed with the reference engine."""
    harness.use_source_tree()
    from repro.workloads import get

    cells: Dict[str, dict] = {}
    baseline_digest = ""
    for name, label in harness.corpus_cells():
        workload = get(name)
        program = harness.compile_cell(workload, label)
        run = harness.run_cell(program, REFERENCE_ENGINE)
        if label == "baseline":
            baseline_digest = harness.output_digest(run.output)
        cells[harness.cell_id(name, label)] = harness.cell_entry(
            workload, label, program, run, baseline_digest)
    document = {
        "engine": REFERENCE_ENGINE,
        "max_instructions": harness.CORPUS_MAX_INSTRUCTIONS,
        "cells": cells,
    }
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def fuzz_sources() -> str:
    harness.use_source_tree()
    from repro.fuzz.generator import generate_corpus

    programs = generate_corpus(harness.FUZZ_CORPUS_SEED, harness.FUZZ_PROGRAMS)
    return json.dumps([p.sources for p in programs], sort_keys=True)


# ----------------------------------------------------------------------
# cross-check against the committed report

def _report_block(text: str, title: str) -> List[List[str]]:
    """Rows (split on whitespace) of the per-benchmark table that
    follows ``title`` in the report, up to the first blank line after
    them."""
    rows: List[List[str]] = []
    for line in text[text.index(title):].splitlines():
        fields = line.split()
        if fields and re.fullmatch(r"\d{3}\w+", fields[0]):
            rows.append(fields)
        elif rows and not fields:
            break
    return rows


def report_mismatches(cells: Dict[str, dict], report: str) -> List[str]:
    """Differences between the expected file and Figure 9 / Table 2 of
    the report, each printed to the report's two decimals."""
    problems = []
    workloads = len(cells) // len(harness.LABELS)
    for title in ("Figure 9:", "Table 2:"):
        rows = len(_report_block(report, title))
        if rows != workloads:
            problems.append(f"{title} has {rows} rows, not {workloads}")
    for fields in _report_block(report, "Figure 9:"):
        name, printed = fields[0], fields[1:3]
        base = cells[harness.cell_id(name, "baseline")]["cycles"]
        for label, want in zip(("softbound", "lowfat"), printed):
            ratio = cells[harness.cell_id(name, label)]["cycles"] / base
            if f"{ratio:.2f}x" != want:
                problems.append(f"Figure 9 {name} {label}: "
                                f"{ratio:.2f}x != {want}")
    for fields in _report_block(report, "Table 2:"):
        name, printed = fields[0], fields[1:3]
        for label, want in zip(("softbound", "lowfat"), printed):
            entry = cells[harness.cell_id(name, label)]
            star = "*" if entry["checks_wide"] == 0 else ""
            got = f"{entry['unsafe_percent']:.2f}{star}"
            if got != want:
                problems.append(f"Table 2 {name} {label}: {got} != {want}")
    return problems


def verify() -> int:
    out = harness.OUT_DIR / "expected-check"
    out.mkdir(parents=True, exist_ok=True)
    script = str(Path(__file__).resolve())
    procs = [subprocess.Popen([sys.executable, script, "--write",
                               str(out / f"expected-{i}.json")])
             for i in range(2)]
    for proc in procs:
        proc.wait()
        if proc.returncode != 0:
            print(f"generation failed (exit {proc.returncode})")
            return 1
    texts = [(out / f"expected-{i}.json").read_text("utf-8") for i in range(2)]
    ok = True
    if texts[0] != texts[1]:
        print("FAIL: two processes generated different expected files")
        ok = False
    if texts[0] != harness.EXPECTED_FILE.read_text("utf-8"):
        print("FAIL: regenerated file differs from the committed one")
        ok = False
    report = (harness.ROOT / "report_output.md").read_text("utf-8")
    for problem in report_mismatches(json.loads(texts[0])["cells"], report):
        print(f"FAIL: {problem}")
        ok = False
    fuzz = [subprocess.run([sys.executable, script, "--fuzz-sources"],
                           check=True, capture_output=True, text=True).stdout
            for _ in range(2)]
    if fuzz[0] != fuzz[1]:
        print("FAIL: generate_corpus differs across processes")
        ok = False
    print("expected file verified" if ok else "verification failed")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--verify", action="store_true",
                       help="run the determinism and report checks")
    group.add_argument("--write", metavar="FILE",
                       help="write the generated file to FILE")
    group.add_argument("--fuzz-sources", action="store_true",
                       help="print the fuzz-gate program sources as JSON")
    args = parser.parse_args(argv)
    if args.verify:
        return verify()
    if args.fuzz_sources:
        sys.stdout.write(fuzz_sources())
        return 0
    target = Path(args.write) if args.write else harness.EXPECTED_FILE
    target.write_text(build(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
