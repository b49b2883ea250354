"""Control-flow graph utilities."""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from ..ir.module import BasicBlock, Function


def successors(block: BasicBlock) -> List[BasicBlock]:
    return block.successors


def predecessor_map(fn: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    """Predecessors of every block, in one sweep over the terminators.

    Each list is in block order and names a predecessor once, even when
    a ``CondBr`` sends both edges to the same block: exactly what
    :attr:`BasicBlock.predecessors` returns, for all blocks at once.
    The map is a snapshot; a pass that rewires terminators must update
    it or build a new one."""
    preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in fn.blocks}
    for block in fn.blocks:
        for succ in block.successors:
            entry = preds.setdefault(succ, [])
            if not entry or entry[-1] is not block:
                entry.append(block)
    return preds


def reachable_blocks(fn: Function) -> Set[BasicBlock]:
    """Blocks reachable from the entry block."""
    if not fn.blocks:
        return set()
    seen: Set[BasicBlock] = set()
    stack = [fn.entry]
    while stack:
        block = stack.pop()
        if block in seen:
            continue
        seen.add(block)
        stack.extend(block.successors)
    return seen


def reverse_postorder(fn: Function) -> List[BasicBlock]:
    """Blocks in reverse postorder of a DFS from the entry block.

    Reverse postorder visits every block before its successors (except
    along back edges), which makes dataflow analyses converge quickly.
    """
    if not fn.blocks:
        return []
    visited: Set[BasicBlock] = set()
    postorder: List[BasicBlock] = []

    # Iterative DFS to avoid recursion limits on long CFGs.
    stack: List[tuple] = [(fn.entry, iter(fn.entry.successors))]
    visited.add(fn.entry)
    while stack:
        block, it = stack[-1]
        advanced = False
        for succ in it:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(succ.successors)))
                advanced = True
                break
        if not advanced:
            postorder.append(block)
            stack.pop()
    postorder.reverse()
    return postorder
