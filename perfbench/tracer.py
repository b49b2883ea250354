"""Spans and counts around the calls into each layer of ``repro``.

The benchmark never edits the package: :func:`install` replaces public
functions and methods of the layers with wrappers from this file, and
:meth:`Tracer.uninstall` puts every original back.  Two kinds of
wrapper exist:

* a *span* records one interval -- name, start, end, parent span, the
  cell or request it belongs to, and the time spent in leaves directly
  inside it -- for coarse boundaries (a compile, a pass, a VM run);
* a *leaf* only accumulates calls, inclusive time and self time per
  name, for hot boundaries called millions of times per pass (CFG
  queries, runtime natives, check bookkeeping), where one record per
  call would cost more memory than the program itself.

A span's self time is its duration minus the part covered by its child
spans and the leaves directly inside it (:func:`self_times`).
"""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    cell: Optional[str]
    name: str
    start: float
    end: float
    #: time covered by leaf calls made directly inside this span
    leaf_s: float


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        #: leaf name -> [calls, inclusive seconds, self seconds]
        self.leaves: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        #: id of the cell or request the current work belongs to
        self.cell: Optional[str] = None
        #: distinct (sources, config, options) the experiment engine
        #: compiled, for the compile-reuse ratio
        self.compile_keys = set()
        #: experiment engines seen, read for their executed-job counts
        self.engines: list = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list = []

    # -- wrappers ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, before: Callable = None,
             after: Callable = None) -> Callable:
        """Wrap ``fn`` in a recorded span.  ``before(tracer, args,
        kwargs)`` and ``after(tracer, args, kwargs, result)`` run outside
        the timed interval."""
        tracer, clock = self, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            stack = tracer._stack()
            parent = stack[-1][0] if stack else None
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(Span(frame[0], parent, tracer.cell, name,
                                         start, end, frame[1]))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def leaf(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so its calls, inclusive and self time add up under
        ``name``; the time is credited to the enclosing frame."""
        record = self.leaves.setdefault(name, [0, 0.0, 0.0])
        tracer, clock = self, self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = tracer._stack()
            frame = [None, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]

        return timed

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` to count its calls only (no clock reads)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------
    def patch(self, owner, attr: str, wrap: Callable[[Callable], object]) -> None:
        """Replace ``owner.attr`` with ``wrap(original)``; properties and
        static methods keep their kind.  Undone by :meth:`uninstall`."""
        own = vars(owner)
        had_own = attr in own
        raw = own[attr] if had_own else getattr(owner, attr)
        if isinstance(raw, property):
            new = property(wrap(raw.fget))
        elif isinstance(raw, staticmethod):
            new = staticmethod(wrap(raw.__func__))
        else:
            new = wrap(raw)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw, had_own))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- results -------------------------------------------------------
    def executed_jobs(self) -> int:
        return sum(engine.executed_jobs for engine in self.engines)

    def dump(self) -> dict:
        """Plain-data form of everything recorded (for ``--trace``)."""
        return {
            "spans": [span._asdict() for span in self.spans],
            "leaves": {name: {"calls": calls, "s": total, "self_s": own}
                       for name, (calls, total, own) in self.leaves.items()},
            "counts": dict(self.counts),
            "distinct_compiles": len(self.compile_keys),
            "executed_jobs": self.executed_jobs(),
        }


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover (their
    union, so overlapping children count once) and minus the leaf time
    recorded directly inside it."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = max(0.0, span.end - span.start - covered - span.leaf_s)
    return result


# ----------------------------------------------------------------------
# what gets wrapped

#: Runtime natives grouped into the per-layer metrics they feed, by
#: name prefix (first match wins).
NATIVE_GROUPS = (
    ("__sb_check", "softbound.check"),
    ("__sb_trie_", "softbound.trie"),
    ("__sb_ss_", "softbound.shadow_stack"),
    ("__sb_wrap_", "softbound.wrappers"),
    ("__lf_check", "lowfat.check"),
    ("__lf_invariant_check", "lowfat.invariant"),
    ("__lf_compute_base", "lowfat.base"),
    ("__lf_", "lowfat.alloc"),
)

def _wrap_natives(tracer: Tracer, args, kwargs, vm) -> None:
    for name, impl in list(vm.natives.items()):
        for prefix, group in NATIVE_GROUPS:
            if name.startswith(prefix):
                vm.natives[name] = tracer.leaf(group, impl)
                break


def _count_pass(tracer: Tracer, args, kwargs, changed) -> None:
    tracer.counts["opt.pass_runs"] += 1
    tracer.counts["opt.pass_changed"] += int(bool(changed))


def _count_checks(tracer: Tracer, args, kwargs, program) -> None:
    stats = program.instrumentation
    tracer.counts["core.checks_gathered"] += stats.gathered_checks
    tracer.counts["core.checks_emitted"] += stats.emitted_checks


def _compile_key(tracer: Tracer, args, kwargs) -> None:
    names = ("sources", "config", "options")
    bound = dict(zip(names, args), **kwargs)
    config, options = bound.get("config"), bound.get("options")
    blob = json.dumps([bound["sources"],
                       asdict(config) if config is not None else None,
                       asdict(options) if options is not None else None],
                      sort_keys=True, default=str)
    tracer.compile_keys.add(hashlib.sha256(blob.encode("utf-8")).hexdigest())
    tracer.counts["experiments.compile_calls"] += 1


def _see_engine(tracer: Tracer, args, kwargs) -> None:
    if not any(engine is args[0] for engine in tracer.engines):
        tracer.engines.append(args[0])


def _count_get(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["experiments.cache.gets"] += 1
    tracer.counts["experiments.cache.get_hits"] += result is not None


def _count_put(tracer: Tracer, args, kwargs, result) -> None:
    cache, key = args[0], args[1]
    tracer.counts["experiments.cache.put.bytes"] += cache.path_for(key).stat().st_size


def _next_request(tracer: Tracer, args, kwargs) -> None:
    tracer.counts["campaign.serve.requests"] += 1
    tracer.cell = f"request-{int(tracer.counts['campaign.serve.requests'])}"


def _count_source(tracer: Tracer, args, kwargs) -> None:
    tracer.counts["frontend.source_bytes"] += len(args[0])


def install_job_timer(tracer: Tracer, timeline, collect: bool) -> List[list]:
    """Mark ``timeline`` before and after every job the experiment
    engine executes, and record each job's wall-clock compile and run
    intervals as ``[compile start, compile end, run start, run end]``.
    With ``collect``, every job starts from a collected heap.  Installed
    over any traced wrappers, so probe time stays outside their spans."""
    from repro.experiments import runner

    jobs: List[list] = []

    def time_compile(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if collect:
                gc.collect()
            timeline.mark()
            start = time.perf_counter()
            program = fn(*args, **kwargs)
            jobs.append([start, time.perf_counter(), None, None])
            return program
        return timed

    def time_run(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            jobs[-1][2:] = [start, time.perf_counter()]
            timeline.mark()
            return result
        return timed

    tracer.patch(runner, "compile_program", time_compile)
    tracer.patch(runner, "run_program", time_run)
    return jobs


def install(tracer: Tracer) -> Tracer:
    """Wrap the public entry points of every layer."""
    from repro import driver
    from repro.analysis.ranges import FunctionRangeAnalysis
    from repro.campaign.serve import CampaignService
    from repro.core import instrument
    from repro.core.lf_mechanism import LowFatMechanism
    from repro.core.sb_mechanism import SoftBoundMechanism
    from repro.experiments import runner
    from repro.experiments.cache import ResultCache
    from repro.fuzz import generator
    from repro.fuzz.oracle import DifferentialOracle
    from repro.ir.module import BasicBlock, Module
    from repro.vm.codegen import CodegenFunction
    from repro.vm.interpreter import VirtualMachine
    from repro.vm.stats import RuntimeStats
    from repro.opt import dce, gvn, inline, instcombine, licm, mem2reg, simplifycfg

    span, leaf = tracer.span, tracer.leaf
    patch = tracer.patch

    # driver: the user-facing compile/run, linking and link-time opt
    for owner in (driver, runner):
        patch(owner, "compile_program",
              lambda fn, owner=owner: span(
                  "driver.compile_program", fn,
                  before=_compile_key if owner is runner else None,
                  after=_count_checks))
        patch(owner, "run_program", lambda fn: span("driver.run_program", fn))
    patch(Module, "link", lambda fn: span("driver.link", fn))
    patch(driver, "PassManager", lambda cls: type(
        "LinkTimePassManager", (cls,),
        {"run": span("driver.lto", cls.run)}))

    # frontend
    patch(driver, "compile_source",
          lambda fn: span("frontend.compile_source", fn, before=_count_source))

    # opt: every pass of the pipeline, by its pass name
    for cls in (simplifycfg.SimplifyCFG, mem2reg.Mem2Reg, inline.Inliner,
                instcombine.InstCombine, gvn.GVN, licm.LICM, dce.DCE):
        patch(cls, "run", lambda fn, cls=cls: span(
            f"opt.{cls.name}", fn, after=_count_pass))

    # core: the instrumentation pass and its stages
    patch(instrument.MemInstrumentPass, "run",
          lambda fn: span("core.instrument", fn))
    for attr, name in (("gather_function_targets", "core.gather"),
                       ("dominance_filter", "core.filter.dominance"),
                       ("range_filter", "core.filter.ranges"),
                       ("hoist_filter", "core.filter.hoist"),
                       ("check_verdicts", "core.verdicts")):
        patch(instrument, attr, lambda fn, name=name: span(name, fn))
    for cls in (SoftBoundMechanism, LowFatMechanism):
        patch(cls, "instrument_function", lambda fn: span("core.lower", fn))

    # analysis
    patch(FunctionRangeAnalysis, "__init__",
          lambda fn: span("analysis.ranges", fn))

    # ir: CFG queries are hot; successors and index_of are only counted
    patch(BasicBlock, "predecessors", lambda fn: leaf("ir.predecessors", fn))
    patch(BasicBlock, "successors",
          lambda fn: tracer.counter("ir.successors.calls", fn))
    patch(BasicBlock, "index_of",
          lambda fn: tracer.counter("ir.index_of.calls", fn))

    # vm (the runtime natives are wrapped per VM, right after make_vm)
    patch(driver, "make_vm",
          lambda fn: span("vm.make_vm", fn, after=_wrap_natives))
    patch(CodegenFunction, "__init__", lambda fn: span("vm.codegen.build", fn))
    patch(VirtualMachine, "run", lambda fn: span("vm.run", fn))
    patch(RuntimeStats, "record_check",
          lambda fn: leaf("vm.stats.record_check", fn))

    # experiments
    patch(runner.ExperimentEngine, "run_many",
          lambda fn: span("experiments.run_many", fn, before=_see_engine))
    patch(ResultCache, "get",
          lambda fn: span("experiments.cache.get", fn, after=_count_get))
    patch(ResultCache, "put",
          lambda fn: span("experiments.cache.put", fn, after=_count_put))

    # fuzz
    patch(generator, "generate_corpus", lambda fn: span("fuzz.generate", fn))
    patch(DifferentialOracle, "run", lambda fn: span("fuzz.oracle", fn))

    # campaign
    patch(CampaignService, "run_job",
          lambda fn: span("campaign.serve.run_job", fn, before=_next_request))
    return tracer


# ----------------------------------------------------------------------
# per-layer metrics

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> Dict[str, tuple]:
    """Per-layer metrics, name -> (value, unit), from one or more
    merged :meth:`Tracer.dump` documents."""
    spans = [Span(**s) for s in trace["spans"]]
    selfs = self_times(spans)
    named: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        entry = named[span.name]
        entry[0] += 1
        entry[1] += span.end - span.start
        entry[2] += selfs[span.id]
    leaves = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0},
                         trace["leaves"])
    counts = defaultdict(float, trace["counts"])

    m: Dict[str, tuple] = {}
    m["ir.predecessors.calls"] = (leaves["ir.predecessors"]["calls"], "count")
    m["ir.predecessors.s"] = (leaves["ir.predecessors"]["s"], "s")
    m["ir.successors.calls"] = (counts["ir.successors.calls"], "count")
    m["ir.index_of.calls"] = (counts["ir.index_of.calls"], "count")

    fe = named["frontend.compile_source"]
    m["frontend.compile_source.s"] = (fe[1], "s")
    m["frontend.compile_source.calls"] = (fe[0], "count")
    m["frontend.source_bytes_per_s"] = (
        _ratio(counts["frontend.source_bytes"], fe[1]), "B/s")

    for name in ("simplifycfg", "mem2reg", "inline", "instcombine", "gvn",
                 "licm", "dce"):
        m[f"opt.{name}.s"] = (named[f"opt.{name}"][1], "s")
    m["opt.changed_ratio"] = (
        _ratio(counts["opt.pass_changed"], counts["opt.pass_runs"]), "ratio")

    for name in ("instrument", "gather", "filter.dominance", "filter.ranges",
                 "filter.hoist", "verdicts", "lower"):
        m[f"core.{name}.s"] = (named[f"core.{name}"][1], "s")
    m["core.checks_kept_ratio"] = (
        _ratio(counts["core.checks_emitted"], counts["core.checks_gathered"]),
        "ratio")

    m["analysis.ranges.s"] = (named["analysis.ranges"][1], "s")
    m["analysis.ranges.calls"] = (named["analysis.ranges"][0], "count")

    m["driver.link.s"] = (named["driver.link"][1], "s")
    m["driver.lto.s"] = (named["driver.lto"][1], "s")

    m["vm.make_vm.s"] = (named["vm.make_vm"][1], "s")
    m["vm.codegen.build.s"] = (named["vm.codegen.build"][1], "s")
    m["vm.codegen.builds"] = (named["vm.codegen.build"][0], "count")
    m["vm.run.s"] = (named["vm.run"][1], "s")
    m["vm.run.self_s"] = (named["vm.run"][2], "s")
    m["vm.stats.record_check.calls"] = (
        leaves["vm.stats.record_check"]["calls"], "count")
    m["vm.stats.record_check.s"] = (leaves["vm.stats.record_check"]["s"], "s")

    for group in ("softbound.check", "softbound.trie", "softbound.shadow_stack",
                  "lowfat.check", "lowfat.invariant", "lowfat.base",
                  "lowfat.alloc"):
        m[f"{group}.calls"] = (leaves[group]["calls"], "count")
        m[f"{group}.s"] = (leaves[group]["s"], "s")
    m["softbound.wrappers.s"] = (leaves["softbound.wrappers"]["s"], "s")
    for mechanism in ("softbound", "lowfat"):
        m[f"{mechanism}.self_s"] = (sum(
            leaf["self_s"] for name, leaf in trace["leaves"].items()
            if name.startswith(mechanism + ".")), "s")

    m["experiments.run_many.s"] = (named["experiments.run_many"][1], "s")
    m["experiments.executed_jobs"] = (trace["executed_jobs"], "count")
    m["experiments.compile_calls"] = (counts["experiments.compile_calls"], "count")
    m["experiments.compile_reuse_ratio"] = (
        _ratio(trace["distinct_compiles"], counts["experiments.compile_calls"]),
        "ratio")
    m["experiments.cache.get.s"] = (named["experiments.cache.get"][1], "s")
    m["experiments.cache.put.s"] = (named["experiments.cache.put"][1], "s")
    m["experiments.cache.put.bytes"] = (counts["experiments.cache.put.bytes"], "B")
    m["experiments.cache.hit_ratio"] = (
        _ratio(counts["experiments.cache.get_hits"],
               counts["experiments.cache.gets"]), "ratio")

    m["fuzz.generate.s"] = (named["fuzz.generate"][1], "s")
    m["fuzz.compare.s"] = (named["fuzz.oracle"][2], "s")
    m["campaign.serve.run_job.s"] = (named["campaign.serve.run_job"][1], "s")
    return m


def merge_dumps(dumps: Sequence[dict]) -> dict:
    """Combine the trace documents of several processes (the two daemon
    lives of one serve-restart pass)."""
    merged = {"spans": [], "leaves": {}, "counts": defaultdict(float),
              "distinct_compiles": 0, "executed_jobs": 0}
    offset = 0
    for dump in dumps:
        for span in dump["spans"]:
            span = dict(span, id=span["id"] + offset)
            if span["parent"] is not None:
                span["parent"] += offset
            merged["spans"].append(span)
        offset += max((s["id"] for s in dump["spans"]), default=0)
        for name, leaf in dump["leaves"].items():
            into = merged["leaves"].setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += leaf[key]
        for name, value in dump["counts"].items():
            merged["counts"][name] += value
        merged["distinct_compiles"] += dump["distinct_compiles"]
        merged["executed_jobs"] += dump["executed_jobs"]
    merged["counts"] = dict(merged["counts"])
    return merged


def root_seconds(trace: dict, since: float) -> float:
    """Time covered by top-level spans that started at or after
    ``since`` (the rest of a traced pass is time no span covers)."""
    return sum(s["end"] - s["start"] for s in trace["spans"]
               if s["parent"] is None and s["start"] >= since)
