"""Tests for the parallel experiment engine and its on-disk cache.

Covers the hard guarantees the engine makes:

* ``BenchResult`` JSON serialization round-trips *exactly* (property-
  based) -- this is what makes worker transport and the disk cache
  lossless;
* cache hit / miss / automatic invalidation when any keyed input
  changes;
* a 2-worker parallel run is bit-identical to the serial path;
* ``verify_cache`` turns a corrupted cache entry into a hard error.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.itarget import TargetStatistics
from repro.errors import CacheVerificationError
from repro.experiments.cache import ResultCache, job_key
from repro.experiments.common import BenchResult
from repro.experiments.runner import ExperimentEngine, JobRequest
from repro.experiments import runner as runner_mod
from repro.vm.engines import DEFAULT_ENGINE, ENGINES
from repro.workloads import Workload, get

FAST_WORKLOADS = ("197parser", "456hmmer")


# ----------------------------------------------------------------------
# BenchResult JSON round-trip (property-based)

_counts = st.integers(min_value=0, max_value=2**40)
_names = st.text(min_size=0, max_size=30)

_static_stats = st.builds(
    TargetStatistics,
    gathered_checks=_counts,
    gathered_invariants=_counts,
    filtered_checks=_counts,
    by_kind=st.dictionaries(_names, _counts, max_size=6),
)

_bench_results = st.builds(
    BenchResult,
    workload=_names,
    label=_names,
    extension_point=_names,
    cycles=_counts,
    instructions=_counts,
    output=st.lists(_names, max_size=6),
    ok=st.booleans(),
    describe=_names,
    checks_executed=_counts,
    checks_wide=_counts,
    unsafe_percent=st.floats(min_value=0.0, max_value=100.0,
                             allow_nan=False),
    invariant_checks=_counts,
    trie_loads=_counts,
    trie_stores=_counts,
    shadow_stack_ops=_counts,
    lowfat_fallbacks=_counts,
    static=_static_stats,
    status=st.sampled_from(["exit", "violation", "fault", "abort", "failed"]),
    violation_kind=st.sampled_from(["", "deref", "invariant", "wrapper"]),
    failure=_names,
    lowfat_allocs=_counts,
    opcode_counts=st.dictionaries(_names, _counts, max_size=8),
)


class TestBenchResultJson:
    @given(_bench_results)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_exact(self, result):
        document = json.loads(json.dumps(result.to_json(), sort_keys=True))
        assert BenchResult.from_json(document) == result

    @given(_bench_results)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_is_plain_data(self, result):
        # to_json must not leak live objects into the cache document.
        document = result.to_json()
        assert isinstance(document["static"], dict)
        restored = BenchResult.from_json(document)
        assert isinstance(restored.static, TargetStatistics)
        assert restored.static == result.static

    def test_real_result_round_trips(self):
        engine = ExperimentEngine()
        result = engine.run(get("197parser"), "softbound")
        assert BenchResult.from_json(
            json.loads(json.dumps(result.to_json()))) == result

    def test_failed_result_is_structured(self):
        result = BenchResult.failed(get("197parser"), "softbound",
                                    "VectorizerStart", "worker exploded")
        assert not result.ok
        assert result.status == "failed"
        assert result.failure == "worker exploded"
        assert result.cycles == 0
        assert BenchResult.from_json(result.to_json()) == result


# ----------------------------------------------------------------------
# cache hit / miss / invalidation

def _engine(tmp_path, **kwargs):
    kwargs.setdefault("cache", ResultCache(tmp_path / "cache"))
    return ExperimentEngine(**kwargs)


def _forbid_execution(monkeypatch):
    def explode(payload):
        raise AssertionError(
            f"unexpected recomputation of {payload['workload']}"
            f"/{payload['label']}")
    monkeypatch.setattr(runner_mod, "_execute_payload", explode)


class TestDiskCache:
    def test_cold_run_populates_cache(self, tmp_path):
        engine = _engine(tmp_path)
        engine.run(get("197parser"), "softbound")
        assert engine.cache.stores >= 2  # baseline + instrumented
        assert len(engine.cache) == engine.cache.stores

    def test_second_process_hits_without_recompute(self, tmp_path,
                                                   monkeypatch):
        first = _engine(tmp_path)
        original = first.run(get("197parser"), "softbound")

        _forbid_execution(monkeypatch)
        second = _engine(tmp_path)
        cached = second.run(get("197parser"), "softbound")
        assert cached.to_json() == original.to_json()
        assert second.cache_hits == 1
        assert second.executed_jobs == 0

    def test_config_change_invalidates(self, tmp_path):
        first = _engine(tmp_path)
        first.run(get("197parser"), "softbound")

        second = _engine(tmp_path)
        second.run(get("197parser"), "softbound-unopt")
        # the shared baseline hits; the changed config is recomputed
        assert second.cache_hits == 1
        assert second.executed_jobs == 1

    def test_budget_change_invalidates(self, tmp_path, monkeypatch):
        first = _engine(tmp_path)
        first.run(get("197parser"), "baseline")

        same = _engine(tmp_path)
        same.run(get("197parser"), "baseline")
        assert same.cache_hits == 1

        changed = _engine(tmp_path, max_instructions=10_000_000)
        changed.run(get("197parser"), "baseline")
        assert changed.cache_hits == 0
        assert changed.executed_jobs == 1

    def test_source_change_invalidates(self, tmp_path):
        base = get("197parser")
        first = _engine(tmp_path)
        first.run(base, "baseline")

        edited = Workload(
            name=base.name,
            sources={name: source + "\n// edited\n"
                     for name, source in base.sources.items()},
            description=base.description,
            characteristics=base.characteristics,
            obfuscated_units=base.obfuscated_units,
        )
        second = _engine(tmp_path)
        second.run(edited, "baseline")
        assert second.cache_hits == 0
        assert second.executed_jobs == 1

    def test_key_ignores_reference_and_timeout(self):
        payload = {"workload": "w", "sources": {"tu0": "int main(){}"},
                   "reference_output": ["1"], "timeout": 5.0}
        same = dict(payload, reference_output=None, timeout=None)
        other = dict(payload, sources={"tu0": "int main(){return 1;}"})
        assert job_key(payload) == job_key(same)
        assert job_key(payload) != job_key(other)

    def test_key_is_engine_qualified(self):
        # A cached result must never answer for another engine; a
        # payload without the field keys as the default engine.
        payload = {"workload": "w", "sources": {"tu0": "int main(){}"}}
        keys = {job_key(dict(payload, engine=name)) for name in ENGINES}
        assert len(keys) == len(ENGINES)
        assert job_key(payload) == \
            job_key(dict(payload, engine=DEFAULT_ENGINE))

    def test_key_is_pinned(self):
        # Campaign and serve caches stay valid: these digests are the
        # keys the engine-qualified scheme has always produced for this
        # payload.  Update them only when ``__version__`` or
        # ``CACHE_FORMAT_VERSION`` changes, never for a refactoring of
        # the key function.
        payload = {
            "workload": "pinned", "label": "softbound",
            "extension_point": "VectorizerStart",
            "sources": {"main.c": "int main() { return 0; }"},
            "obfuscated_units": [], "config": None, "opt_level": 3,
            "link_time_optimization": True, "max_instructions": 1000000,
            "lf_region_capacity": None, "reference_output": ["0"],
            "timeout": 5.0, "engine": "interp",
        }
        assert job_key(payload) == (
            "f89e219d76f34a912ca36dac5ca7c795"
            "4b9d1c70ebfbeaa4b85244ebfd9969ea")
        assert job_key(dict(payload, engine="compiled")) == (
            "0584fec5502e678673a8f4045ddb1a7a"
            "0e16e1633322f2242567d96da72dd23c")

    def test_format_version_tracks_schema_changes(self):
        # The closure-compiled tier required no bump (engines are
        # bit-identical), but the hoist filter did: TargetStatistics
        # grew the hoist counters and static verdicts, so version-2
        # entries would deserialize with missing fields.
        from repro.experiments.cache import CACHE_FORMAT_VERSION

        assert CACHE_FORMAT_VERSION == 3

    def test_switching_engine_recomputes(self, tmp_path):
        # --engine must not be ignored once the cache is warm: the
        # interp run executes its jobs instead of replaying the
        # compiled tier's entries.
        first = _engine(tmp_path, vm_engine="compiled")
        original = first.run(get("197parser"), "softbound")

        second = _engine(tmp_path, vm_engine="interp")
        fresh = second.run(get("197parser"), "softbound")
        assert second.cache_hits == 0
        assert second.executed_jobs == 2  # baseline + instrumented
        assert fresh.to_json() == original.to_json()
        assert len(second.cache) == 4

    def test_old_style_payload_without_engine_field_replays(self, tmp_path,
                                                            monkeypatch):
        # A payload built before the engine field existed names no
        # engine; it must key as today's default-engine payload, so the
        # default engine's entries resolve for it.
        engine = _engine(tmp_path)
        request = JobRequest(get("197parser"), "baseline")
        payload = engine._payload(request)
        assert payload["engine"] == DEFAULT_ENGINE
        old_payload = {k: v for k, v in payload.items() if k != "engine"}
        assert job_key(old_payload) == engine.fingerprint(request)

        fresh = engine.run_request(request)
        _forbid_execution(monkeypatch)
        replay = _engine(tmp_path)
        assert replay.run_request(request).to_json() == fresh.to_json()
        assert replay.cache_hits == 1

    def test_corrupt_file_is_a_miss(self, tmp_path):
        engine = _engine(tmp_path)
        engine.run(get("197parser"), "baseline")
        for path in engine.cache.paths():
            path.write_text("{ not json")
        fresh = _engine(tmp_path)
        result = fresh.run(get("197parser"), "baseline")
        assert result.ok
        assert fresh.cache_hits == 0

    def test_failed_results_are_not_cached(self, tmp_path, monkeypatch):
        def explode(payload):
            raise RuntimeError("boom")
        monkeypatch.setattr(runner_mod, "_execute_payload", explode)
        engine = _engine(tmp_path)
        result = engine.run(get("197parser"), "baseline")
        assert result.status == "failed"
        assert len(engine.cache) == 0


# ----------------------------------------------------------------------
# serial == parallel (bit-identical)

class TestParallelDeterminism:
    def test_two_worker_matrix_matches_serial(self):
        requests = [
            JobRequest(get(name), label)
            for name in FAST_WORKLOADS
            for label in ("baseline", "softbound", "lowfat")
        ]
        serial = ExperimentEngine(jobs=1).run_many(list(requests))
        parallel = ExperimentEngine(jobs=2).run_many(list(requests))
        assert [r.to_json() for r in serial] == \
               [r.to_json() for r in parallel]

    def test_parallel_results_memoized(self):
        engine = ExperimentEngine(jobs=2)
        requests = [JobRequest(get(name), "softbound")
                    for name in FAST_WORKLOADS]
        first = engine.run_many(list(requests))
        # repeated requests come from the memo: identical objects
        assert engine.run(get(FAST_WORKLOADS[0]), "softbound") is first[0]
        assert engine.executed_jobs == 4  # 2 baselines + 2 instrumented

    def test_warm_cache_serves_parallel_run(self, tmp_path, monkeypatch):
        requests = [JobRequest(get(name), "softbound")
                    for name in FAST_WORKLOADS]
        cold = _engine(tmp_path, jobs=2)
        expected = [r.to_json() for r in cold.run_many(list(requests))]

        _forbid_execution(monkeypatch)
        warm = _engine(tmp_path, jobs=2)
        got = [r.to_json() for r in warm.run_many(list(requests))]
        assert got == expected


# ----------------------------------------------------------------------
# --verify-cache: cached counters must equal a fresh recomputation

class TestVerifyCache:
    def _corrupt_one(self, cache, label, field, value):
        for path in cache.paths():
            document = json.loads(path.read_text())
            if document["result"]["label"] == label:
                document["result"][field] = value
                path.write_text(json.dumps(document))
                return True
        return False

    def test_intact_cache_passes(self, tmp_path):
        _engine(tmp_path).run(get("197parser"), "softbound")
        engine = _engine(tmp_path, verify_cache=True)
        result = engine.run(get("197parser"), "softbound")
        assert result.ok

    def test_corrupted_cycles_is_a_hard_error(self, tmp_path):
        seed = _engine(tmp_path)
        seed.run(get("197parser"), "softbound")
        assert self._corrupt_one(seed.cache, "softbound", "cycles", 1)

        engine = _engine(tmp_path, verify_cache=True)
        with pytest.raises(CacheVerificationError, match="cycles"):
            engine.run(get("197parser"), "softbound")

    def test_corrupted_check_counters_detected(self, tmp_path):
        seed = _engine(tmp_path)
        seed.run(get("197parser"), "softbound")
        assert self._corrupt_one(seed.cache, "softbound",
                                 "checks_executed", 123456)

        engine = _engine(tmp_path, verify_cache=True)
        with pytest.raises(CacheVerificationError, match="checks_executed"):
            engine.run(get("197parser"), "softbound")

    def test_without_flag_no_recompute_happens(self, tmp_path, monkeypatch):
        seed = _engine(tmp_path)
        seed.run(get("197parser"), "softbound")
        _forbid_execution(monkeypatch)
        engine = _engine(tmp_path, verify_cache=False)
        engine.run(get("197parser"), "softbound")  # must not raise


# ----------------------------------------------------------------------
# per-request engine overrides (mixed-engine batches)

class TestEngineOverride:
    """``JobRequest.engine`` lets one batch mix VM tiers (the fuzz
    oracle's engine-differential matrix).  The memo must keep the tiers
    apart and the implicit baseline must inherit the override."""

    def test_override_reaches_the_worker(self):
        engine = ExperimentEngine(jobs=1, vm_engine="compiled")
        workload = get("197parser")
        seen = []
        original = runner_mod._execute_payload

        def spy(payload):
            seen.append((payload["label"], payload["engine"]))
            return original(payload)

        runner_mod._execute_payload, saved = spy, runner_mod._execute_payload
        try:
            engine.run_many([
                JobRequest(workload, "softbound", engine="interp"),
            ])
        finally:
            runner_mod._execute_payload = saved
        # both the instrumented job and its implicit baseline reference
        # ran under the overridden tier
        assert sorted(seen) == [("baseline", "interp"),
                                ("softbound", "interp")]

    def test_mixed_batch_not_memo_aliased(self):
        """The same (workload, label) under each engine must execute
        separately -- a shared memo entry would make the comparison
        vacuous."""
        engine = ExperimentEngine(jobs=1, vm_engine="compiled")
        workload = get("197parser")
        tiers = ("compiled", "interp", "codegen")
        results = engine.run_many([
            JobRequest(workload, "softbound", engine=tier)
            for tier in tiers
        ])
        # 3 instrumented jobs + 3 baseline references
        assert engine.executed_jobs == 6
        assert len({id(r) for r in results}) == len(tiers)
        # ...and the tiers really are bit-identical (the invariant the
        # fuzz oracle checks at scale)
        assert results[1].to_json() == results[0].to_json()
        assert results[2].to_json() == results[0].to_json()

    def test_matching_override_still_uses_cache(self, tmp_path,
                                                monkeypatch):
        """An explicit override equal to another engine's ``vm_engine``
        keys like that engine's own jobs: the disk cache serves it."""
        workload = get("197parser")
        first = _engine(tmp_path, vm_engine="interp")
        first.run(workload, "baseline")

        _forbid_execution(monkeypatch)
        second = _engine(tmp_path, vm_engine="compiled")
        second.run_request(JobRequest(workload, "baseline",
                                      engine="interp"))
        assert second.cache_hits == 1


class TestEngineKeyedCache:
    """The disk cache is partitioned per VM engine: mixed-engine
    batches cache every cell, and no cell can ever be served another
    engine's stored stats."""

    def test_override_jobs_are_cached(self, tmp_path, monkeypatch):
        """Overridden-engine jobs persist -- that is what makes a
        mixed-engine campaign shard resumable."""
        workload = get("197parser")
        first = _engine(tmp_path)
        first.run_request(JobRequest(workload, "baseline",
                                     engine="interp"))
        assert len(first.cache) == 1

        _forbid_execution(monkeypatch)
        second = _engine(tmp_path)
        result = second.run_request(JobRequest(workload, "baseline",
                                               engine="interp"))
        assert second.cache_hits == 1
        assert result.cycles > 0

    def test_engines_never_share_entries(self, tmp_path):
        """A compiled entry must not satisfy an interp request for the
        byte-identical job (the satellite-6 regression: mixed-engine
        campaign shards being served another engine's cached stats)."""
        workload = get("197parser")
        first = _engine(tmp_path)
        first.run_request(JobRequest(workload, "baseline",
                                     engine="compiled"))

        second = _engine(tmp_path)
        second.run_request(JobRequest(workload, "baseline",
                                      engine="interp"))
        assert second.cache_hits == 0
        assert second.executed_jobs == 1
        # both engines' results are now stored, under distinct keys
        assert len(second.cache) == 2

    def test_disk_keys_differ_only_by_engine(self):
        engine = ExperimentEngine()
        workload = get("197parser")
        payloads = [
            engine._payload(JobRequest(workload, "baseline", engine=tier))
            for tier in ENGINES
        ]
        assert len({job_key(p) for p in payloads}) == len(payloads)
        # with the engine field dropped, the payloads are one job
        stripped = [{k: v for k, v in p.items() if k != "engine"}
                    for p in payloads]
        assert all(p == stripped[0] for p in stripped)

    def test_codegen_entries_keyed_apart(self, tmp_path, monkeypatch):
        """A codegen campaign shard stores and replays its own entries
        without ever touching the closure tier's."""
        workload = get("197parser")
        first = _engine(tmp_path)
        first.run_request(JobRequest(workload, "baseline",
                                     engine="compiled"))
        first.run_request(JobRequest(workload, "baseline",
                                     engine="codegen"))
        assert first.cache_hits == 0
        assert len(first.cache) == 2

        _forbid_execution(monkeypatch)
        second = _engine(tmp_path)
        result = second.run_request(JobRequest(workload, "baseline",
                                               engine="codegen"))
        assert second.cache_hits == 1
        assert result.cycles > 0

    def test_fingerprint_is_engine_qualified_and_mode_independent(self):
        """Campaign sharding hashes the fingerprint; it must not depend
        on the local engine's vm_engine default."""
        workload = get("197parser")
        request = JobRequest(workload, "softbound", engine="interp")
        compiled = ExperimentEngine(vm_engine="compiled")
        codegen = ExperimentEngine(vm_engine="codegen")
        assert compiled.fingerprint(request) == codegen.fingerprint(request)
        other = JobRequest(workload, "softbound", engine="compiled")
        assert compiled.fingerprint(request) != compiled.fingerprint(other)
