"""The one predecessor definition: ``predecessor_map`` is a snapshot of
``BasicBlock.predecessors`` for every block at once, and SimplifyCFG's
block merging keeps its snapshot equal to a fresh sweep."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cfg import predecessor_map
from repro.driver import CompileOptions, compile_program
from repro.fuzz import generate_corpus
from repro.ir import Br, CondBr, ConstantInt, FunctionType, I1, I32, Module, Ret
from repro.opt.simplifycfg import SimplifyCFG
from repro.workloads.registry import all_names, get


def _function(successors):
    """A function whose block ``i`` branches to ``successors[i]`` (a list
    of zero, one or two block indices; two may be equal)."""
    mod = Module("t")
    fn = mod.add_function("f", FunctionType(I32, [I1]), ["c"])
    blocks = [fn.add_block(f"b{i}") for i in range(len(successors))]
    for block, succs in zip(blocks, successors):
        if not succs:
            block.append(Ret(ConstantInt(I32, 0)))
        elif len(succs) == 1:
            block.append(Br(blocks[succs[0]]))
        else:
            block.append(CondBr(fn.args[0], blocks[succs[0]], blocks[succs[1]]))
    return fn, blocks


class TestPredecessorMap:
    def test_condbr_to_one_block_lists_the_predecessor_once(self):
        # b0 -> b2; b1 (unreachable) -> b3; b2 -> b3 on both edges.
        fn, (b0, b1, b2, b3) = _function([[2], [3], [3, 3], []])
        preds = predecessor_map(fn)
        assert preds[b3] == [b1, b2]  # once each, in block order
        assert preds[b2] == [b0]
        assert preds[b0] == [] and preds[b1] == []
        assert preds == {b: b.predecessors for b in fn.blocks}

    @given(st.lists(st.lists(st.integers(0, 7), max_size=2),
                    min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_equals_the_one_block_query(self, successors):
        n = len(successors)
        fn, _ = _function([[t % n for t in succs] for succs in successors])
        assert predecessor_map(fn) == {b: b.predecessors for b in fn.blocks}


@pytest.fixture
def checked_merges(monkeypatch):
    """Check after every SimplifyCFG block merge that the pass's updated
    predecessor map equals a fresh sweep; yields the merge counter."""
    merges = []
    merge_into = SimplifyCFG._merge_into

    def checked(self, fn, block, succ, preds, position):
        merge_into(self, fn, block, succ, preds, position)
        assert preds == predecessor_map(fn), (fn.name, block.name)
        merges.append(succ.name)

    monkeypatch.setattr(SimplifyCFG, "_merge_into", checked)
    return merges


_FUZZ = generate_corpus(0, 100)
_FUZZ_CHUNK = 20


class TestSimplifyCFGKeepsTheMap:
    def test_corpus_workloads(self, checked_merges):
        for name in all_names():
            workload = get(name)
            compile_program(workload.sources, options=CompileOptions(
                verify=True,
                obfuscate_pointer_copies=tuple(workload.obfuscated_units)))
        assert checked_merges

    @pytest.mark.parametrize("chunk", range(0, len(_FUZZ), _FUZZ_CHUNK))
    def test_seed0_fuzz_programs(self, checked_merges, chunk):
        for program in _FUZZ[chunk:chunk + _FUZZ_CHUNK]:
            compile_program(program.sources,
                            options=CompileOptions(verify=True))
        assert checked_merges
