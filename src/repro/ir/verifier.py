"""IR verifier.

The verifier enforces the structural invariants that the optimizer and
the instrumentation passes rely on:

* every block ends in exactly one terminator, and terminators appear
  nowhere else;
* phi nodes are grouped at block starts and their incoming edges match
  the block's predecessors exactly;
* SSA dominance: every use of an instruction result is dominated by its
  definition;
* operand types are consistent (stores, calls, branches);
* instruction parent links are consistent.

It is run after the frontend, after every optimization pass when the
pipeline is in ``verify_each`` mode, and after instrumentation.
"""

from __future__ import annotations

from typing import List

from .instructions import (
    Call,
    CondBr,
    Instruction,
    Phi,
    Ret,
)
from .module import BasicBlock, Function, Module
from .types import FunctionType, VoidType


class VerificationError(Exception):
    """Raised when a module violates an IR invariant."""

    def __init__(self, errors: List[str]):
        super().__init__("\n".join(errors))
        self.errors = errors


def verify_module(mod: Module) -> None:
    errors: List[str] = []
    for fn in mod.functions.values():
        if fn.is_declaration or fn.native:
            continue
        errors.extend(_verify_function(fn))
    if errors:
        raise VerificationError(errors)


def verify_function(fn: Function) -> None:
    errors = _verify_function(fn)
    if errors:
        raise VerificationError(errors)


def _verify_function(fn: Function) -> List[str]:
    errors: List[str] = []
    ctx = f"@{fn.name}"

    if not fn.blocks:
        return [f"{ctx}: function definition has no blocks"]

    for block in fn.blocks:
        if block.parent is not fn:
            errors.append(f"{ctx}/{block.name}: wrong block parent link")
        if not block.instructions:
            errors.append(f"{ctx}/{block.name}: empty basic block")
            continue
        term = block.instructions[-1]
        if not term.is_terminator():
            errors.append(f"{ctx}/{block.name}: block does not end in a terminator")
        for i, inst in enumerate(block.instructions):
            if inst.parent is not block:
                errors.append(f"{ctx}/{block.name}: bad parent link on '{inst}'")
            if inst.is_terminator() and i != len(block.instructions) - 1:
                errors.append(f"{ctx}/{block.name}: terminator in mid-block: '{inst}'")
            if isinstance(inst, Phi) and i >= block.first_non_phi_index():
                errors.append(f"{ctx}/{block.name}: phi after non-phi: '{inst}'")

        # Successor blocks must belong to the same function.
        for succ in block.successors:
            if succ.parent is not fn:
                errors.append(
                    f"{ctx}/{block.name}: branch to foreign block {succ.name}"
                )

    # The analysis package imports the IR package, so these imports
    # are lazy: at module level they would be circular.
    from ..analysis.cfg import predecessor_map
    from ..analysis.dominators import DominatorTree

    # Phi incoming edges must match predecessors.
    preds = predecessor_map(fn)
    for block in fn.blocks:
        expected = preds[block]
        for phi in block.phis():
            incoming = phi.incoming_blocks
            if len(incoming) != len(set(id(b) for b in incoming)):
                errors.append(f"{ctx}/{block.name}: duplicate phi predecessor in '{phi}'")
            missing = [b.name for b in expected if b not in incoming]
            extra = [b.name for b in incoming if b not in expected]
            if missing:
                errors.append(
                    f"{ctx}/{block.name}: phi '{phi}' missing incoming for {missing}"
                )
            if extra:
                errors.append(
                    f"{ctx}/{block.name}: phi '{phi}' has stale incoming from {extra}"
                )

    # Return types.
    for block in fn.blocks:
        term = block.terminator
        if isinstance(term, Ret):
            if term.value is None:
                if not isinstance(fn.return_type, VoidType):
                    errors.append(f"{ctx}: 'ret void' in non-void function")
            elif term.value.type != fn.return_type:
                errors.append(
                    f"{ctx}: return type mismatch: {term.value.type} vs {fn.return_type}"
                )

    # Call signatures.
    for inst in fn.instructions():
        if not isinstance(inst, Call):
            continue
        fnty = Call._callee_fnty(inst.callee)
        args = inst.args
        if len(args) < len(fnty.params) or (
            len(args) > len(fnty.params) and not fnty.vararg
        ):
            errors.append(f"{ctx}: call argument count mismatch in '{inst}'")
            continue
        for arg, param_ty in zip(args, fnty.params):
            if arg.type != param_ty:
                errors.append(
                    f"{ctx}: call argument type mismatch in '{inst}': "
                    f"{arg.type} vs {param_ty}"
                )

    # SSA dominance.
    domtree = DominatorTree(fn)
    for block in fn.blocks:
        if not domtree.is_reachable(block):
            continue  # uses in unreachable code are not constrained
        for inst in block.instructions:
            for index, op in enumerate(inst.operands):
                if isinstance(op, Instruction):
                    if op.parent is None:
                        errors.append(
                            f"{ctx}/{block.name}: use of erased instruction in '{inst}'"
                        )
                        continue
                    if op.parent.parent is not fn:
                        errors.append(
                            f"{ctx}/{block.name}: cross-function operand in '{inst}'"
                        )
                        continue
                    if not domtree.is_reachable(op.parent):
                        continue
                    if not domtree.value_dominates_use(op, inst, index):
                        errors.append(
                            f"{ctx}/{block.name}: use of '%{op.name}' in '{inst}' "
                            f"not dominated by its definition"
                        )
    return errors
