"""Instruction set of the mini-IR.

The instruction set mirrors the fragment of LLVM IR that the paper's
Table 1 operates on: memory access (``load``/``store``), allocation
(``alloca``), pointer arithmetic (``gep``), value selection
(``phi``/``select``), calls and returns, plus the scalar arithmetic,
comparison, cast and branch instructions needed to express real
programs.

Instruction operands use the :class:`~repro.ir.values.User` machinery,
so ``replace_all_uses_with`` works uniformly.  Branch targets and phi
incoming blocks are *block references* (not operands); CFG edits update
them explicitly.

Every instruction carries a ``meta`` dictionary.  The instrumentation
framework uses it to tag inserted code (e.g. ``meta["mi_check_id"]``)
and to mark accesses it has already handled.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, TYPE_CHECKING

from ..errors import MemoryFault
from .types import (
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    Type,
    VoidType,
    I1,
    I64,
    POINTER_BITS,
)
from .values import User, Value

if TYPE_CHECKING:  # pragma: no cover
    from .module import BasicBlock, Function


class Instruction(User):
    """Base class of all instructions."""

    opcode: str = "<abstract>"

    def __init__(self, ty: Type, operands: Sequence[Value], name: str = ""):
        super().__init__(ty, operands, name)
        self.parent: Optional["BasicBlock"] = None
        self.meta: Dict[str, object] = {}

    # -- position management ------------------------------------------
    def erase_from_parent(self) -> None:
        """Remove this instruction from its block and drop operands."""
        assert self.parent is not None, "instruction has no parent"
        self.parent.remove_instruction(self)
        self.drop_all_operands()

    @property
    def function(self) -> Optional["Function"]:
        return self.parent.parent if self.parent is not None else None

    # -- classification ------------------------------------------------
    def is_terminator(self) -> bool:
        return isinstance(self, (Ret, Br, CondBr, Unreachable))

    def has_side_effects(self) -> bool:
        """Conservatively true if removing this instruction (when its
        value is unused) could change program behaviour."""
        if isinstance(self, (Store, Ret, Br, CondBr, Unreachable)):
            return True
        if isinstance(self, Call):
            return not self.is_pure_call()
        return False

    def may_read_memory(self) -> bool:
        if isinstance(self, Load):
            return True
        if isinstance(self, Call):
            return not self.callee_has_attribute("readnone")
        return False

    def may_write_memory(self) -> bool:
        if isinstance(self, Store):
            return True
        if isinstance(self, Call):
            return not (
                self.callee_has_attribute("readonly")
                or self.callee_has_attribute("readnone")
            )
        return False

    def __str__(self) -> str:
        from .printer import format_instruction

        return format_instruction(self)


# ---------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------


class Alloca(Instruction):
    """Stack allocation of ``allocated_type`` (times optional count)."""

    opcode = "alloca"

    def __init__(self, allocated_type: Type, count: Optional[Value] = None, name: str = ""):
        ops = [count] if count is not None else []
        super().__init__(PointerType(allocated_type), ops, name)
        self.allocated_type = allocated_type

    @property
    def count(self) -> Optional[Value]:
        return self.operand(0) if self.num_operands else None


class Load(Instruction):
    opcode = "load"

    def __init__(self, pointer: Value, name: str = ""):
        pty = pointer.type
        if not isinstance(pty, PointerType):
            raise TypeError(f"load requires a pointer operand, got {pty}")
        super().__init__(pty.pointee, [pointer], name)

    @property
    def pointer(self) -> Value:
        return self.operand(0)


class Store(Instruction):
    opcode = "store"

    def __init__(self, value: Value, pointer: Value):
        pty = pointer.type
        if not isinstance(pty, PointerType):
            raise TypeError(f"store requires a pointer operand, got {pty}")
        if pty.pointee != value.type:
            raise TypeError(f"store type mismatch: {value.type} into {pty}")
        super().__init__(VoidType(), [value, pointer])

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def pointer(self) -> Value:
        return self.operand(1)


def gep_result_type(base: Type, indices: Sequence[Value]) -> Type:
    """Compute the pointee type a GEP with these indices produces."""
    if not isinstance(base, PointerType):
        raise TypeError(f"gep base must be a pointer, got {base}")
    current: Type = base.pointee
    for idx in indices[1:]:
        if isinstance(current, ArrayType):
            current = current.element
        elif isinstance(current, StructType):
            from .values import ConstantInt

            if not isinstance(idx, ConstantInt):
                raise TypeError("struct gep index must be a constant int")
            current = current.fields[idx.value]
        else:
            raise TypeError(f"cannot index into {current}")
    return PointerType(current)


class GEP(Instruction):
    """``getelementptr`` -- pointer arithmetic over a typed layout."""

    opcode = "gep"

    def __init__(self, pointer: Value, indices: Sequence[Value], name: str = "", inbounds: bool = True):
        result = gep_result_type(pointer.type, list(indices))
        super().__init__(result, [pointer, *indices], name)
        self.inbounds = inbounds

    @property
    def pointer(self) -> Value:
        return self.operand(0)

    @property
    def indices(self) -> List[Value]:
        return [self.operand(i) for i in range(1, self.num_operands)]


# ---------------------------------------------------------------------
# SSA / selection
# ---------------------------------------------------------------------


class Phi(Instruction):
    opcode = "phi"

    def __init__(self, ty: Type, name: str = ""):
        super().__init__(ty, [], name)
        self.incoming_blocks: List["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type != self.type:
            raise TypeError(f"phi incoming type mismatch: {value.type} vs {self.type}")
        self.append_operand(value)
        self.incoming_blocks.append(block)

    @property
    def incoming(self) -> List[tuple]:
        return list(zip(self.operands, self.incoming_blocks))

    def incoming_value_for(self, block: "BasicBlock") -> Value:
        for value, pred in self.incoming:
            if pred is block:
                return value
        raise KeyError(f"phi has no incoming edge from {block.name}")

    def remove_incoming(self, block: "BasicBlock") -> None:
        for i, pred in enumerate(self.incoming_blocks):
            if pred is block:
                self.remove_operand(i)
                del self.incoming_blocks[i]
                return
        raise KeyError(f"phi has no incoming edge from {block.name}")


class Select(Instruction):
    opcode = "select"

    def __init__(self, cond: Value, true_value: Value, false_value: Value, name: str = ""):
        if cond.type != I1:
            raise TypeError("select condition must be i1")
        if true_value.type != false_value.type:
            raise TypeError("select arm types differ")
        super().__init__(true_value.type, [cond, true_value, false_value], name)

    @property
    def condition(self) -> Value:
        return self.operand(0)

    @property
    def true_value(self) -> Value:
        return self.operand(1)

    @property
    def false_value(self) -> Value:
        return self.operand(2)


# ---------------------------------------------------------------------
# Arithmetic / comparison / casts
# ---------------------------------------------------------------------

INT_BINOPS = {
    "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
    "and", "or", "xor", "shl", "lshr", "ashr",
}
FLOAT_BINOPS = {"fadd", "fsub", "fmul", "fdiv", "frem"}
BINOPS = INT_BINOPS | FLOAT_BINOPS


class BinOp(Instruction):
    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in BINOPS:
            raise ValueError(f"unknown binary op: {op}")
        if lhs.type != rhs.type:
            raise TypeError(f"binop operand types differ: {lhs.type} vs {rhs.type}")
        super().__init__(lhs.type, [lhs, rhs], name)
        self.opcode = op

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)


ICMP_PREDICATES = {"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}
FCMP_PREDICATES = {
    # ordered: false if either operand is NaN
    "oeq", "one", "olt", "ole", "ogt", "oge", "ord",
    # unordered: true if either operand is NaN
    "ueq", "une", "ult", "ule", "ugt", "uge", "uno",
}

class ICmp(Instruction):
    opcode = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate: {predicate}")
        if lhs.type != rhs.type:
            raise TypeError("icmp operand types differ")
        super().__init__(I1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)


class FCmp(Instruction):
    opcode = "fcmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"unknown fcmp predicate: {predicate}")
        if lhs.type != rhs.type:
            raise TypeError("fcmp operand types differ")
        super().__init__(I1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)


CAST_OPS = {
    "trunc", "zext", "sext",
    "fptrunc", "fpext", "fptosi", "sitofp", "fptoui", "uitofp",
    "ptrtoint", "inttoptr", "bitcast",
}


class Cast(Instruction):
    def __init__(self, op: str, value: Value, dest: Type, name: str = ""):
        if op not in CAST_OPS:
            raise ValueError(f"unknown cast op: {op}")
        super().__init__(dest, [value], name)
        self.opcode = op

    @property
    def value(self) -> Value:
        return self.operand(0)


# ---------------------------------------------------------------------
# Scalar semantics
# ---------------------------------------------------------------------
#
# The meaning of every binop, comparison and cast, defined once.  Each
# entry is a Python expression template over the operands ``{a}`` and
# ``{b}`` and the width constants ``{bits}``, ``{mask}`` and ``{half}``
# (``half`` is the sign bit, so ``(x ^ half) - half`` is the signed
# value of a canonical unsigned ``x``).  Every template is an atom or
# fully parenthesized, so it embeds in any expression.  Ops that need a
# statement call a helper from ``SCALAR_HELPERS``.
#
# Codegen inlines the templates; the closure tier and the constant
# folder evaluate them through :func:`scalar_evaluator`; LICM reads
# ``may_raise``.  The tree-walker keeps its own hand-written copy as
# the independent reference.


class ScalarOp(NamedTuple):
    """One scalar op: its expression template, and whether evaluating
    it can raise (a modelled trap such as integer division by zero)."""

    template: str
    may_raise: bool = False


def _sdiv(x: int, y: int, half: int, mask: int) -> int:
    # A compare per operand is cheaper here than ``(x ^ half) - half``.
    if x >= half:
        x -= mask + 1
    if y >= half:
        y -= mask + 1
    if not y:
        raise MemoryFault(0, 0, "integer division by zero")
    q = abs(x) // abs(y)  # C division truncates toward zero
    return (q if (x < 0) == (y < 0) else -q) & mask


def _srem(x: int, y: int, half: int, mask: int) -> int:
    if x >= half:
        x -= mask + 1
    if y >= half:
        y -= mask + 1
    if not y:
        raise MemoryFault(0, 0, "integer division by zero")
    r = abs(x) % abs(y)  # the remainder takes the dividend's sign
    return (r if x >= 0 else -r) & mask


def _udiv(x: int, y: int, mask: int) -> int:
    if not y:
        raise MemoryFault(0, 0, "integer division by zero")
    return (x // y) & mask


def _urem(x: int, y: int, mask: int) -> int:
    if not y:
        raise MemoryFault(0, 0, "integer division by zero")
    return (x % y) & mask


def _fdiv_zero(x: float, y: float) -> float:
    """IEEE 754 ``x / ±0.0``: NaN for 0/0 and NaN/0, otherwise an
    infinity signed by both operands."""
    if x != x or not x:
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _frem(x: float, y: float) -> float:
    """C ``fmod``: NaN for an infinite or NaN dividend and for a zero
    or NaN divisor."""
    if y and x - x == 0.0:
        return math.fmod(x, y)
    return math.nan


def _fptoi_trap() -> int:
    raise MemoryFault(0, 0, "float-to-integer conversion of a non-finite value")


def _bits_to_float(x: int, bits: int) -> float:
    return struct.unpack("<f" if bits == 32 else "<d",
                         x.to_bytes(bits // 8, "little"))[0]


def _float_to_bits(x: float, bits: int) -> int:
    return int.from_bytes(struct.pack("<f" if bits == 32 else "<d", x),
                          "little")


#: Names the templates call; generated code binds them in its namespace.
SCALAR_HELPERS: Dict[str, Callable] = {
    "_sdiv": _sdiv, "_srem": _srem, "_udiv": _udiv, "_urem": _urem,
    "_fdiv_zero": _fdiv_zero, "_frem": _frem, "_fptoi_trap": _fptoi_trap,
    "_bits_to_float": _bits_to_float, "_float_to_bits": _float_to_bits,
}

INT_BINOP_SEMANTICS: Dict[str, ScalarOp] = {
    "add": ScalarOp("(({a} + {b}) & {mask})"),
    "sub": ScalarOp("(({a} - {b}) & {mask})"),
    "mul": ScalarOp("(({a} * {b}) & {mask})"),
    "and": ScalarOp("({a} & {b})"),
    "or": ScalarOp("({a} | {b})"),
    "xor": ScalarOp("({a} ^ {b})"),
    "shl": ScalarOp("(({a} << ({b} % {bits})) & {mask})"),
    "lshr": ScalarOp("({a} >> ({b} % {bits}))"),
    "ashr": ScalarOp("(((({a} ^ {half}) - {half}) >> ({b} % {bits})) & {mask})"),
    "sdiv": ScalarOp("_sdiv({a}, {b}, {half}, {mask})", True),
    "srem": ScalarOp("_srem({a}, {b}, {half}, {mask})", True),
    "udiv": ScalarOp("_udiv({a}, {b}, {mask})", True),
    "urem": ScalarOp("_urem({a}, {b}, {mask})", True),
}

FLOAT_BINOP_SEMANTICS: Dict[str, ScalarOp] = {
    "fadd": ScalarOp("({a} + {b})"),
    "fsub": ScalarOp("({a} - {b})"),
    "fmul": ScalarOp("({a} * {b})"),
    "fdiv": ScalarOp("({a} / {b} if {b} else _fdiv_zero({a}, {b}))"),
    "frem": ScalarOp("_frem({a}, {b})"),
}

#: Comparisons all have the shape ``(1 if C else 0)``.
ICMP_SEMANTICS: Dict[str, ScalarOp] = {
    "eq": ScalarOp("(1 if {a} == {b} else 0)"),
    "ne": ScalarOp("(1 if {a} != {b} else 0)"),
    "ult": ScalarOp("(1 if {a} < {b} else 0)"),
    "ule": ScalarOp("(1 if {a} <= {b} else 0)"),
    "ugt": ScalarOp("(1 if {a} > {b} else 0)"),
    "uge": ScalarOp("(1 if {a} >= {b} else 0)"),
    "slt": ScalarOp("(1 if ({a} ^ {half}) < ({b} ^ {half}) else 0)"),
    "sle": ScalarOp("(1 if ({a} ^ {half}) <= ({b} ^ {half}) else 0)"),
    "sgt": ScalarOp("(1 if ({a} ^ {half}) > ({b} ^ {half}) else 0)"),
    "sge": ScalarOp("(1 if ({a} ^ {half}) >= ({b} ^ {half}) else 0)"),
}

#: IEEE-754/LLVM NaN semantics with plain comparisons: ``<``/``>`` are
#: already false on NaN, and ``x != x`` is the NaN test.
FCMP_SEMANTICS: Dict[str, ScalarOp] = {
    "oeq": ScalarOp("(1 if {a} == {b} else 0)"),
    "ogt": ScalarOp("(1 if {a} > {b} else 0)"),
    "oge": ScalarOp("(1 if {a} >= {b} else 0)"),
    "olt": ScalarOp("(1 if {a} < {b} else 0)"),
    "ole": ScalarOp("(1 if {a} <= {b} else 0)"),
    "one": ScalarOp("(1 if ({a} < {b} or {a} > {b}) else 0)"),
    "ord": ScalarOp("(1 if ({a} == {a} and {b} == {b}) else 0)"),
    "ueq": ScalarOp("(1 if not ({a} < {b} or {a} > {b}) else 0)"),
    "ugt": ScalarOp("(1 if not {a} <= {b} else 0)"),
    "uge": ScalarOp("(1 if not {a} < {b} else 0)"),
    "ult": ScalarOp("(1 if not {a} >= {b} else 0)"),
    "ule": ScalarOp("(1 if not {a} > {b} else 0)"),
    "une": ScalarOp("(1 if {a} != {b} else 0)"),
    "uno": ScalarOp("(1 if ({a} != {a} or {b} != {b}) else 0)"),
}

_FPTOI = ScalarOp("(int({a}) & {mask} if {a} - {a} == 0.0 else _fptoi_trap())",
                  True)

#: Casts take ``bits``/``half`` from the source type and ``mask`` from
#: the destination type.  ``{a}`` alone is the identity.
CAST_SEMANTICS: Dict[str, ScalarOp] = {
    "trunc": ScalarOp("({a} & {mask})"),
    "zext": ScalarOp("{a}"),
    "sext": ScalarOp("((({a} ^ {half}) - {half}) & {mask})"),
    "fptrunc": ScalarOp("float({a})"),
    "fpext": ScalarOp("float({a})"),
    "fptosi": _FPTOI,
    "fptoui": _FPTOI,
    "sitofp": ScalarOp("float(({a} ^ {half}) - {half})"),
    "uitofp": ScalarOp("float({a})"),
    "ptrtoint": ScalarOp("({a} & {mask})"),
    "inttoptr": ScalarOp("({a} & {mask})"),
    "bitcast": ScalarOp("{a}"),
}
_BITCAST_INT_TO_FLOAT = ScalarOp("_bits_to_float({a}, {bits})")
_BITCAST_FLOAT_TO_INT = ScalarOp("_float_to_bits({a}, {bits})")


def _width(ty: Type) -> int:
    return ty.bits if isinstance(ty, (IntType, FloatType)) else POINTER_BITS


@functools.lru_cache(maxsize=None)
def _instantiate(op: ScalarOp, bits: int, mask_bits: int) -> ScalarOp:
    """``op`` with its width constants filled in; operands stay open."""
    return op._replace(template=op.template.format(
        a="{a}", b="{b}", bits=bits, mask=(1 << mask_bits) - 1,
        half=1 << (bits - 1)))


def binop_semantics(op: str, ty: Type) -> Optional[ScalarOp]:
    table = FLOAT_BINOP_SEMANTICS if isinstance(ty, FloatType) else INT_BINOP_SEMANTICS
    entry = table.get(op)
    return None if entry is None else _instantiate(entry, _width(ty), _width(ty))


def icmp_semantics(pred: str, ty: Type) -> ScalarOp:
    return _instantiate(ICMP_SEMANTICS[pred], _width(ty), _width(ty))


def cast_semantics(op: str, src: Type, dst: Type) -> ScalarOp:
    entry = CAST_SEMANTICS[op]
    if op == "bitcast":
        if isinstance(src, IntType) and isinstance(dst, FloatType):
            entry = _BITCAST_INT_TO_FLOAT
        elif isinstance(src, FloatType) and isinstance(dst, IntType):
            entry = _BITCAST_FLOAT_TO_INT
    return _instantiate(entry, _width(src), _width(dst))


def semantics_of(inst: Instruction) -> Optional[ScalarOp]:
    """The table entry of a binop, comparison or cast with its widths
    filled in; None for any other instruction (or an op its type has
    no entry for)."""
    if isinstance(inst, BinOp):
        return binop_semantics(inst.opcode, inst.type)
    if isinstance(inst, ICmp):
        return icmp_semantics(inst.predicate, inst.lhs.type)
    if isinstance(inst, FCmp):
        return FCMP_SEMANTICS[inst.predicate]
    if isinstance(inst, Cast):
        return cast_semantics(inst.opcode, inst.value.type, inst.type)
    return None


_EVAL_GLOBALS = dict(SCALAR_HELPERS)


@functools.lru_cache(maxsize=None)
def scalar_evaluator(op: ScalarOp) -> Callable:
    """``op`` (widths filled in) as a Python function of its operands,
    compiled once per distinct text."""
    params = "a, b" if "{b}" in op.template else "a"
    return eval(f"lambda {params}: " + op.template.format(a="a", b="b"),
                _EVAL_GLOBALS)


#: Every fcmp predicate as a function of its two operands.
FCMP_EVAL: Dict[str, Callable] = {
    pred: scalar_evaluator(op) for pred, op in FCMP_SEMANTICS.items()}


# ---------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------


class Ret(Instruction):
    opcode = "ret"

    def __init__(self, value: Optional[Value] = None):
        ops = [value] if value is not None else []
        super().__init__(VoidType(), ops)

    @property
    def value(self) -> Optional[Value]:
        return self.operand(0) if self.num_operands else None

    @property
    def successors(self) -> List["BasicBlock"]:
        return []


class Br(Instruction):
    opcode = "br"

    def __init__(self, target: "BasicBlock"):
        super().__init__(VoidType(), [])
        self.target = target

    @property
    def successors(self) -> List["BasicBlock"]:
        return [self.target]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.target is old:
            self.target = new


class CondBr(Instruction):
    opcode = "condbr"

    def __init__(self, cond: Value, true_block: "BasicBlock", false_block: "BasicBlock"):
        if cond.type != I1:
            raise TypeError("conditional branch condition must be i1")
        super().__init__(VoidType(), [cond])
        self.true_block = true_block
        self.false_block = false_block

    @property
    def condition(self) -> Value:
        return self.operand(0)

    @property
    def successors(self) -> List["BasicBlock"]:
        return [self.true_block, self.false_block]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.true_block is old:
            self.true_block = new
        if self.false_block is old:
            self.false_block = new


class Unreachable(Instruction):
    opcode = "unreachable"

    def __init__(self):
        super().__init__(VoidType(), [])

    @property
    def successors(self) -> List["BasicBlock"]:
        return []


# ---------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------


class Call(Instruction):
    opcode = "call"

    def __init__(self, callee: Value, args: Sequence[Value], name: str = ""):
        fnty = Call._callee_fnty(callee)
        super().__init__(fnty.ret, [callee, *args], name)

    @staticmethod
    def _callee_fnty(callee: Value) -> FunctionType:
        ty = callee.type
        if isinstance(ty, FunctionType):
            return ty
        if isinstance(ty, PointerType) and isinstance(ty.pointee, FunctionType):
            return ty.pointee
        raise TypeError(f"call target is not a function: {ty}")

    @property
    def callee(self) -> Value:
        return self.operand(0)

    @property
    def args(self) -> List[Value]:
        return [self.operand(i) for i in range(1, self.num_operands)]

    @property
    def callee_function(self):
        """The statically known callee, or None for indirect calls."""
        from .module import Function

        target = self.callee
        return target if isinstance(target, Function) else None

    def callee_has_attribute(self, attr: str) -> bool:
        fn = self.callee_function
        return fn is not None and attr in fn.attributes

    def is_pure_call(self) -> bool:
        """True if the call can be removed when its result is unused.

        Possibly-aborting calls (memory-safety checks) are never pure,
        even when they read no memory: removing one would silence the
        abort."""
        if self.callee_has_attribute("may_abort") or self.callee_has_attribute(
            "noreturn"
        ):
            return False
        return self.callee_has_attribute("readnone") or self.callee_has_attribute(
            "readonly"
        )
