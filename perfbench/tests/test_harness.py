"""Tests of the benchmark harness's own logic.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import harness
import run
import tracer as tracing
import worker
from make_expected import report_mismatches

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text("utf-8"))
EMPTY_TRACE = {"spans": [], "leaves": {}, "counts": {},
               "distinct_compiles": 0, "executed_jobs": 0}


# -- self time -----------------------------------------------------------

def test_self_time_subtracts_the_union_of_children_and_leaf_time():
    S = tracing.Span
    spans = [S(1, None, "c", "root", 0.0, 10.0, 1.0),
             S(2, 1, "c", "a", 1.0, 4.0, 0.0),
             S(3, 2, "c", "a.inner", 2.0, 3.0, 0.5),
             S(4, 1, "c", "b", 5.0, 8.0, 0.0),
             S(5, 1, "c", "overlaps-b", 7.0, 9.0, 0.0)]
    assert tracing.self_times(spans) == {1: 2.0, 2: 2.0, 3: 0.5, 4: 3.0,
                                         5: 2.0}


def test_tracer_nests_spans_and_credits_leaf_time_to_the_enclosing_span():
    ticks = iter(range(100))
    t = tracing.Tracer(clock=lambda: float(next(ticks)))
    hot = t.leaf("hot", lambda: None)
    inner = t.span("inner", lambda: hot())
    outer = t.span("outer", lambda: (hot(), inner()))
    outer()
    by_name = {s.name: s for s in t.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert tracing.self_times(t.spans) == {by_name["inner"].id: 2.0,
                                           by_name["outer"].id: 3.0}
    assert t.leaves["hot"] == [2, 2.0, 2.0]


# -- percentiles ---------------------------------------------------------

def test_percentile_refuses_fewer_than_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        harness.percentile(list(range(19)), 50)
    with pytest.raises(ValueError):
        harness.percentile(list(range(99)), 90)
    assert harness.percentile(list(range(20)), 50) == 9
    assert harness.percentile(list(range(100)), 90) == 89


# -- correctness accounting ----------------------------------------------

def _one_cell_corpus(cell):
    corpus = worker.PaperCorpus(0, tracing.Tracer())
    corpus.setup()
    corpus.cells = [cell]
    return corpus


def _run(corpus):
    timeline = harness.Timeline()
    timeline.mark()
    result = worker.Pass()
    corpus.run(result, timeline)
    return result


def test_a_perturbed_expected_entry_counts_as_a_failure_not_a_crash():
    corpus = _one_cell_corpus(("197parser", "softbound"))
    corpus.expected["197parser/softbound"]["cycles"] += 1
    result = _run(corpus)
    assert result.attempted == 1
    assert len(result.failures) == 1
    assert "cycles" in result.failures[0]


def test_an_unperturbed_cell_passes():
    result = _run(_one_cell_corpus(("197parser", "lowfat-hoist")))
    assert (result.attempted, result.failures) == (1, [])


# -- wrapper removal -----------------------------------------------------

def test_traced_wrappers_are_removed_so_an_untraced_pass_sees_the_originals():
    from repro import driver
    from repro.experiments import runner
    from repro.ir.module import BasicBlock, Module
    from repro.opt.mem2reg import Mem2Reg
    from repro.vm.stats import RuntimeStats

    before = {
        "compile": driver.compile_program,
        "runner_compile": runner.compile_program,
        "pass_manager": driver.PassManager,
        "predecessors": vars(BasicBlock)["predecessors"],
        "link": vars(Module)["link"],
        "record_check": RuntimeStats.record_check,
    }
    t = tracing.install(tracing.Tracer())
    assert driver.compile_program is not before["compile"]
    assert "run" in vars(Mem2Reg)
    cell = ("197parser", "softbound")
    corpus = _one_cell_corpus(cell)
    corpus.tracer = t
    _run(corpus)
    assert t.spans and t.leaves["softbound.check"][0] > 0
    t.uninstall()

    after = {
        "compile": driver.compile_program,
        "runner_compile": runner.compile_program,
        "pass_manager": driver.PassManager,
        "predecessors": vars(BasicBlock)["predecessors"],
        "link": vars(Module)["link"],
        "record_check": RuntimeStats.record_check,
    }
    assert after == before
    assert "run" not in vars(Mem2Reg)
    recorded = (len(t.spans), dict(t.counts),
                {k: list(v) for k, v in t.leaves.items()})
    assert _run(_one_cell_corpus(cell)).failures == []
    assert recorded == (len(t.spans), dict(t.counts),
                        {k: list(v) for k, v in t.leaves.items()})


# -- the benchmark definition --------------------------------------------

def test_benchmark_json_lists_exactly_the_metrics_the_runs_print():
    one_pass = {"total_s": 1.0, "compile_s": 0.5, "run_s": 0.5,
                "peak_rss_mb": 1.0, "cell_ms": list(range(1, 101))}
    printed = {name: unit for name, (_, unit)
               in run.end_to_end([one_pass], [0.1]).items()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == printed

    layers = tracing.layer_metrics(EMPTY_TRACE)
    layers.update(worker._serve_layers({}, EMPTY_TRACE))
    layers["trace.uncovered_s"] = (0.0, "s")
    layers["trace.overhead_ratio"] = (1.0, "ratio")
    assert ({m["name"]: m["unit"] for m in SPEC["per_layer"]}
            == {name: unit for name, (_, unit) in layers.items()})
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_every_per_layer_metric_names_the_end_to_end_metric_it_moves():
    provenance = json.loads(
        (harness.BENCH_DIR / "provenance.json").read_text("utf-8"))
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["per_layer"]:
        targets = provenance["layer_map"][metric["name"]]
        assert targets, metric["name"]
        for target in targets:
            assert target["metric"] in end_to_end, metric["name"]
            assert target["workload"] in run.WORKLOADS, metric["name"]
    assert set(provenance["workloads"]) == set(run.WORKLOADS)


def test_expected_file_matches_figure_9_and_table_2_of_the_report():
    report = (harness.ROOT / "report_output.md").read_text("utf-8")
    cells = harness.load_expected()
    assert len(cells) == 100
    assert report_mismatches(cells, report) == []


def test_run_refuses_without_a_source_tree(tmp_path):
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-corpus",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
