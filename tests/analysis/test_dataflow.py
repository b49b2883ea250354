"""Tests for the generic forward dataflow engine (worklist + widening)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cfg import reverse_postorder
from repro.analysis.dataflow import (
    INFEASIBLE,
    DataflowClient,
    ForwardDataflow,
    State,
)
from repro.analysis.ranges import IntRange, PtrFact, RangeClient
from repro.frontend import compile_source
from repro.ir import GlobalVariable, I32
from repro.ir.instructions import BinOp
from repro.opt import Mem2Reg, SimplifyCFG


def _fn(src, name="main"):
    mod = compile_source(src)
    SimplifyCFG().run(mod)
    Mem2Reg().run(mod)
    return mod.get_function(name)


DIAMOND = r"""
int g;
int main() {
    int x = g;
    if (x > 0) g = 1; else g = 2;
    return g;
}"""

LOOP = r"""
int f(int n) {
    int i = 0;
    while (i < n) i = i + 1;
    return i;
}"""


class TestReachability:
    def test_every_block_gets_an_entry_state(self):
        fn = _fn(DIAMOND)
        block_in = ForwardDataflow(DataflowClient()).run(fn)
        assert set(block_in) == set(reverse_postorder(fn))

    def test_infeasible_edges_prune_successors(self):
        # A client that declares every branch edge infeasible: only the
        # entry block is ever reached.
        class DeadEnds(DataflowClient):
            def refine_edge(self, pred, succ, state):
                state[INFEASIBLE] = True
                return state

        fn = _fn(DIAMOND)
        block_in = ForwardDataflow(DeadEnds()).run(fn)
        assert list(block_in) == [reverse_postorder(fn)[0]]

    def test_loop_converges_with_default_client(self):
        fn = _fn(LOOP, "f")
        block_in = ForwardDataflow(DataflowClient()).run(fn)
        assert set(block_in) == set(reverse_postorder(fn))


class TestJoin:
    def _engine(self, client=None):
        return ForwardDataflow(client or DataflowClient())

    def test_equal_facts_survive_the_join(self):
        merged = self._engine()._merge_edges(
            [{"k": 1, "only": 2}, {"k": 1}], phi_keys=set())
        # differing presence: default keep_unmatched_key keeps "only"
        assert merged == {"k": 1, "only": 2}

    def test_conflicting_facts_drop_to_top(self):
        merged = self._engine()._merge_edges(
            [{"k": 1}, {"k": 2}], phi_keys=set())
        assert merged == {}

    def test_phi_keys_require_every_edge(self):
        key = ("v", 123)
        merged = self._engine()._merge_edges(
            [{key: 1}, {}], phi_keys={key})
        assert merged == {}

    def test_memory_keys_do_not_survive_unmatched(self):
        class MemoryClient(DataflowClient):
            def keep_unmatched_key(self, key):
                return key[0] != "m"

        merged = self._engine(MemoryClient())._merge_edges(
            [{("m", 1): 5, ("v", 1): 7}, {("v", 1): 7}], phi_keys=set())
        assert merged == {("v", 1): 7}


class CountingClient(DataflowClient):
    """A deliberately diverging client: a counter that grows by one per
    arithmetic instruction and joins via max never stabilizes on a loop
    unless widening kicks in."""

    WIDENED = "many"

    def boundary_state(self, fn) -> State:
        return {"count": 0}

    def transfer(self, inst, state):
        count = state.get("count")
        if isinstance(inst, BinOp) and isinstance(count, int):
            state["count"] = count + 1

    def join_fact(self, a, b):
        if a == self.WIDENED or b == self.WIDENED:
            return self.WIDENED
        return max(a, b)

    def widen_fact(self, old, new):
        return self.WIDENED


class TestWidening:
    def test_diverging_client_terminates_through_widening(self):
        fn = _fn(LOOP, "f")
        engine = ForwardDataflow(CountingClient(), max_iterations=200)
        block_in = engine.run(fn)  # must not hit the iteration backstop
        facts = {state.get("count") for state in block_in.values()}
        assert CountingClient.WIDENED in facts

    def test_default_widening_drops_to_top(self):
        # Same client but with the default widen_fact (= give up): the
        # unstable key is dropped instead, which also terminates.
        class Dropping(CountingClient):
            def widen_fact(self, old, new):
                return None

        fn = _fn(LOOP, "f")
        block_in = ForwardDataflow(Dropping(), max_iterations=200).run(fn)
        loop_states = [s for s in block_in.values() if "count" not in s]
        assert loop_states  # the widened (dropped) fact is really gone

    def test_acyclic_cfg_never_widens(self):
        # On a diamond the counter stays exact: no widening point fires.
        fn = _fn(DIAMOND)
        block_in = ForwardDataflow(CountingClient()).run(fn)
        assert CountingClient.WIDENED not in {
            state.get("count") for state in block_in.values()
        }


class TestReplay:
    def test_replay_visits_each_instruction_with_pre_state(self):
        fn = _fn(LOOP, "f")
        client = CountingClient()
        engine = ForwardDataflow(client)
        block_in = engine.run(fn)
        for block, entry in block_in.items():
            seen = []
            engine.replay(block, entry,
                          lambda inst, state: seen.append(dict(state)))
            assert len(seen) == len(block.instructions)
            if seen:
                assert seen[0] == entry  # state *before* the first inst


# -- the merge fast paths ------------------------------------------------
#
# ``_merge_edges`` copies a lone incoming edge and skips joining a fact
# with its equal.  Both shortcuts are exact only for an idempotent join,
# which the range analysis's two domains must therefore provide.


def _bounds(bits):
    """Extreme and near-extreme values of a signed ``bits``-wide type."""
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return sorted(v for v in {lo, lo + 1, -1, 0, 1, hi - 1, hi}
                  if lo <= v <= hi)


def _ranges(bits):
    values = _bounds(bits)
    return [IntRange(bits, lo, hi) for lo in values for hi in values]


_SITES = (GlobalVariable("g0", I32), GlobalVariable("g1", I32))


class TestJoinIdempotence:
    @pytest.mark.parametrize("bits", range(1, 65))
    def test_int_ranges(self, bits):
        for fact in _ranges(bits):
            assert fact.join(fact) == fact
            assert fact.join(IntRange(fact.bits, fact.lo, fact.hi)) == fact

    @pytest.mark.parametrize("size", [None, 0, 1, 16, (1 << 63) - 1])
    def test_pointer_facts(self, size):
        # A known allocation size, or none (the site's size is not a
        # compile-time constant).
        for site in _SITES:
            for offset in _ranges(64):
                fact = PtrFact(site, size, offset)
                assert fact.join(fact) == fact
                assert fact.join(PtrFact(site, size, offset)) == fact

    def test_range_client_joins_each_domain_idempotently(self):
        client = RangeClient(_fn("int main() { return 0; }"))
        for fact in _ranges(32) + [PtrFact(_SITES[0], 16, r)
                                   for r in _ranges(64)]:
            assert client.join_fact(fact, fact) == fact


def _general_merge(client, edges, phi_keys):
    """``_merge_edges`` without its shortcuts: every fact is joined."""
    merged = {}
    for key in set().union(*edges):
        facts = [state[key] for state in edges if key in state]
        if len(facts) < len(edges) and (
                key in phi_keys or not client.keep_unmatched_key(key)):
            continue
        joined = facts[0]
        for fact in facts[1:]:
            joined = client.join_fact(joined, fact)
            if joined is None:
                break
        if joined is not None:
            merged[key] = joined
    return merged


#: A small pool, so generated edges often carry equal facts (as distinct
#: objects too) and facts of different widths or domains.
_FACT_POOL = (
    [IntRange(8, lo, hi) for lo, hi in ((0, 0), (0, 7), (-128, 127), (3, 5))]
    + [IntRange(8, 0, 7), IntRange(32, 0, 7), IntRange(64, -1, 1)]
    + [PtrFact(site, size, IntRange(64, 0, hi))
       for site in _SITES for size in (None, 16) for hi in (0, 8)]
    + [PtrFact(_SITES[0], 16, IntRange(64, 0, 8))]
)
_VALUE_KEYS = [("v", i) for i in range(3)]
_MEMORY_KEYS = [("m", i) for i in range(2)]
_facts = st.sampled_from(_FACT_POOL)
_states = st.dictionaries(st.sampled_from(_VALUE_KEYS + _MEMORY_KEYS), _facts)


class TestMergeFastPaths:
    @pytest.fixture(scope="class")
    def client(self):
        return RangeClient(_fn("int main() { return 0; }"))

    def _both(self, client, edges, phi_keys):
        fast = ForwardDataflow(client)._merge_edges(edges, phi_keys)
        assert fast == _general_merge(client, edges, phi_keys)
        return fast

    def test_single_edge_is_copied(self, client):
        edge = {("v", 0): IntRange(8, 0, 7), ("m", 0): _FACT_POOL[0]}
        merged = self._both(client, [edge], {("v", 0)})
        assert merged == edge and merged is not edge

    def test_equal_facts_as_distinct_objects(self, client):
        a, b = IntRange(8, 0, 7), IntRange(8, 0, 7)
        assert self._both(client, [{("v", 0): a}, {("v", 0): b}],
                          set()) == {("v", 0): a}

    def test_unmatched_keys(self, client):
        fact = IntRange(8, 3, 5)
        merged = self._both(client, [{("v", 0): fact, ("m", 0): fact},
                                     {("v", 1): fact}], set())
        assert merged == {("v", 0): fact, ("v", 1): fact}

    def test_phi_keys(self, client):
        fact = IntRange(8, 3, 5)
        merged = self._both(client, [{("v", 0): fact}, {("v", 0): fact},
                                     {("v", 1): fact}], {("v", 0)})
        assert merged == {("v", 1): fact}

    @given(edges=st.lists(_states, min_size=1, max_size=4),
           phi_keys=st.sets(st.sampled_from(_VALUE_KEYS)))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_general_join(self, client, edges, phi_keys):
        self._both(client, edges, phi_keys)
