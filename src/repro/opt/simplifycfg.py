"""CFG simplification.

Four local rewrites to a fixpoint:

1. remove blocks unreachable from the entry;
2. fold conditional branches on constant conditions;
3. merge a block into its unique predecessor when the predecessor
   branches unconditionally to it;
4. remove trivial phi nodes (single incoming value, or all incoming
   values identical).
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.cfg import predecessor_map, reachable_blocks
from ..ir.instructions import Br, CondBr, Phi
from ..ir.module import BasicBlock, Function
from ..ir.values import ConstantInt, UndefValue
from .pass_manager import FunctionPass


class SimplifyCFG(FunctionPass):
    name = "simplifycfg"

    def run_on_function(self, fn: Function) -> bool:
        changed = False
        while self._run_once(fn):
            changed = True
        return changed

    def _run_once(self, fn: Function) -> bool:
        changed = False
        changed |= self._remove_unreachable(fn)
        changed |= self._fold_constant_branches(fn)
        changed |= self._merge_blocks(fn)
        changed |= self._simplify_phis(fn)
        return changed

    # -- 1: unreachable block elimination --------------------------------
    def _remove_unreachable(self, fn: Function) -> bool:
        reachable = reachable_blocks(fn)
        dead = [b for b in fn.blocks if b not in reachable]
        if not dead:
            return False
        dead_set = set(dead)
        # Remove phi edges coming from dead blocks.
        for block in fn.blocks:
            if block in dead_set:
                continue
            for phi in block.phis():
                for pred in list(phi.incoming_blocks):
                    if pred in dead_set:
                        phi.remove_incoming(pred)
        for block in dead:
            # Break the use-def links of dead instructions.
            for inst in list(block.instructions):
                if inst.num_uses:
                    inst.replace_all_uses_with(UndefValue(inst.type))
                inst.erase_from_parent()
            fn.remove_block(block)
        return True

    # -- 2: constant condbr folding -----------------------------------------
    def _fold_constant_branches(self, fn: Function) -> bool:
        changed = False
        for block in list(fn.blocks):
            term = block.terminator
            if not isinstance(term, CondBr):
                continue
            cond = term.condition
            if isinstance(cond, ConstantInt):
                taken = term.true_block if cond.value else term.false_block
                not_taken = term.false_block if cond.value else term.true_block
                if not_taken is not taken:
                    for phi in not_taken.phis():
                        if block in phi.incoming_blocks:
                            phi.remove_incoming(block)
                term.erase_from_parent()
                block.append(Br(taken))
                changed = True
            elif term.true_block is term.false_block:
                target = term.true_block
                term.erase_from_parent()
                block.append(Br(target))
                changed = True
        return changed

    # -- 3: block merging ------------------------------------------------------
    def _merge_blocks(self, fn: Function) -> bool:
        changed = False
        # One predecessor snapshot per sweep, kept current by each merge.
        preds = predecessor_map(fn)
        position = {b: i for i, b in enumerate(fn.blocks)}
        for block in list(fn.blocks):
            if block not in preds:
                continue  # merged away earlier in this sweep
            term = block.terminator
            if not isinstance(term, Br):
                continue
            succ = term.target
            if succ is block or succ is fn.entry:
                continue
            if preds[succ] != [block]:
                continue
            self._merge_into(fn, block, succ, preds, position)
            changed = True
        return changed

    def _merge_into(self, fn: Function, block: BasicBlock, succ: BasicBlock,
                    preds: Dict[BasicBlock, List[BasicBlock]],
                    position: Dict[BasicBlock, int]) -> None:
        """Append ``succ``, whose only predecessor ``block`` branches to
        it unconditionally, to ``block``.  ``preds`` is updated to equal
        a fresh :func:`predecessor_map` of the result; ``position`` (the
        blocks' original order) keeps its lists in block order."""
        # Fold succ's phis (single incoming edge).
        for phi in succ.phis():
            phi.replace_all_uses_with(phi.incoming_value_for(block))
            phi.erase_from_parent()
        block.terminator.erase_from_parent()
        for inst in list(succ.instructions):
            succ.remove_instruction(inst)
            inst.parent = None
            block.append(inst)
        # Rewire grandchildren's phis and predecessor lists to the
        # merged block.
        for grandchild in block.successors:
            for phi in grandchild.phis():
                for i, pred in enumerate(phi.incoming_blocks):
                    if pred is succ:
                        phi.incoming_blocks[i] = block
            preds[grandchild] = sorted(
                (block if p is succ else p for p in preds[grandchild]),
                key=position.__getitem__)
        del preds[succ]
        fn.remove_block(succ)

    # -- 4: trivial phi elimination ------------------------------------------------
    def _simplify_phis(self, fn: Function) -> bool:
        changed = False
        for block in fn.blocks:
            for phi in list(block.phis()):
                values = [v for v in phi.operands if v is not phi]
                if not values:
                    continue
                first = values[0]
                if all(v is first for v in values):
                    phi.replace_all_uses_with(first)
                    phi.erase_from_parent()
                    changed = True
        return changed
