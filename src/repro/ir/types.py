"""Type system for the mini-IR.

The IR is typed in the style of LLVM 12 (typed pointers).  Types are
immutable value objects: two structurally equal types compare equal and
hash equally, so they can be used freely as dictionary keys.

Supported types:

* ``VoidType`` -- function return type only.
* ``IntType(bits)`` -- arbitrary-width integers (i1, i8, i16, i32, i64).
* ``FloatType(bits)`` -- 32- and 64-bit IEEE floats (f32/f64).
* ``PointerType(pointee)`` -- typed pointers; 64 bits wide.
* ``ArrayType(element, count)`` -- fixed-size arrays.
* ``StructType(name, fields)`` -- named or literal structs.
* ``FunctionType(ret, params, vararg)`` -- function signatures.

The module also implements the *data layout*: ``size_of`` and
``align_of`` compute in-memory sizes matching a conventional LP64
target, and ``struct_field_offset`` computes padded member offsets.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

POINTER_SIZE = 8
POINTER_BITS = 64
#: Value range of a pointer (and of every address computation).
U64_MASK = (1 << POINTER_BITS) - 1


class Type:
    """Base class of all IR types."""

    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    def is_int(self) -> bool:
        return isinstance(self, IntType)

    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    def is_struct(self) -> bool:
        return isinstance(self, StructType)

    def is_function(self) -> bool:
        return isinstance(self, FunctionType)

    def is_aggregate(self) -> bool:
        return self.is_array() or self.is_struct()

    def is_first_class(self) -> bool:
        """First-class values can be produced by instructions."""
        return not self.is_void() and not self.is_function()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)


class VoidType(Type):
    def __eq__(self, other: object) -> bool:
        return isinstance(other, VoidType)

    def __hash__(self) -> int:
        return hash("void")

    def __str__(self) -> str:
        return "void"


class IntType(Type):
    def __init__(self, bits: int):
        if bits <= 0 or bits > 128:
            raise ValueError(f"unsupported integer width: {bits}")
        self.bits = bits

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntType) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(("int", self.bits))

    def __str__(self) -> str:
        return f"i{self.bits}"

    @property
    def mask(self) -> int:
        """Bit mask covering the value range of this type."""
        return (1 << self.bits) - 1

    @property
    def min_signed(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def max_signed(self) -> int:
        return (1 << (self.bits - 1)) - 1


class FloatType(Type):
    def __init__(self, bits: int):
        if bits not in (32, 64):
            raise ValueError(f"unsupported float width: {bits}")
        self.bits = bits

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FloatType) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(("float", self.bits))

    def __str__(self) -> str:
        return "f32" if self.bits == 32 else "f64"


class PointerType(Type):
    def __init__(self, pointee: Type):
        if pointee.is_void():
            # Use i8* for untyped memory, as C compilers do.
            raise ValueError("void* is not a valid IR type; use i8*")
        self.pointee = pointee

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointerType) and other.pointee == self.pointee

    def __hash__(self) -> int:
        return hash(("ptr", self.pointee))

    def __str__(self) -> str:
        return f"{self.pointee}*"


class ArrayType(Type):
    def __init__(self, element: Type, count: int):
        if count < 0:
            raise ValueError("array count must be non-negative")
        self.element = element
        self.count = count

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayType)
            and other.element == self.element
            and other.count == self.count
        )

    def __hash__(self) -> int:
        return hash(("array", self.element, self.count))

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"


class StructType(Type):
    """A struct type.

    Named structs (``name`` set) compare by name, which permits
    recursive structs (e.g. linked-list nodes).  Literal structs
    (``name`` is None) compare structurally.
    """

    def __init__(self, name: Optional[str], fields: Sequence[Type] = ()):
        self.name = name
        self.fields: List[Type] = list(fields)

    def set_body(self, fields: Sequence[Type]) -> None:
        self.fields = list(fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructType):
            return False
        if self.name is not None or other.name is not None:
            return self.name == other.name
        return self.fields == other.fields

    def __hash__(self) -> int:
        if self.name is not None:
            return hash(("struct", self.name))
        return hash(("struct", tuple(self.fields)))

    def __str__(self) -> str:
        if self.name is not None:
            return f"%{self.name}"
        inner = ", ".join(str(f) for f in self.fields)
        return "{" + inner + "}"


class FunctionType(Type):
    def __init__(self, ret: Type, params: Sequence[Type], vararg: bool = False):
        self.ret = ret
        self.params: Tuple[Type, ...] = tuple(params)
        self.vararg = vararg

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionType)
            and other.ret == self.ret
            and other.params == self.params
            and other.vararg == self.vararg
        )

    def __hash__(self) -> int:
        return hash(("fn", self.ret, self.params, self.vararg))

    def __str__(self) -> str:
        parts = [str(p) for p in self.params]
        if self.vararg:
            parts.append("...")
        return f"{self.ret} ({', '.join(parts)})"


# Commonly used singletons.
VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)


def ptr(pointee: Type) -> PointerType:
    """Shorthand constructor for pointer types."""
    return PointerType(pointee)


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


def align_of(ty: Type) -> int:
    """ABI alignment of a type in bytes (LP64-style layout)."""
    if isinstance(ty, IntType):
        if ty.bits <= 8:
            return 1
        if ty.bits <= 16:
            return 2
        if ty.bits <= 32:
            return 4
        return 8
    if isinstance(ty, FloatType):
        return ty.bits // 8
    if isinstance(ty, PointerType):
        return POINTER_SIZE
    if isinstance(ty, ArrayType):
        return align_of(ty.element)
    if isinstance(ty, StructType):
        if not ty.fields:
            return 1
        return max(align_of(f) for f in ty.fields)
    raise ValueError(f"type has no alignment: {ty}")


def size_of(ty: Type) -> int:
    """In-memory size of a type in bytes, including padding."""
    if isinstance(ty, IntType):
        if ty.bits == 1:
            return 1
        return _round_up(ty.bits, 8) // 8
    if isinstance(ty, FloatType):
        return ty.bits // 8
    if isinstance(ty, PointerType):
        return POINTER_SIZE
    if isinstance(ty, ArrayType):
        return ty.count * size_of(ty.element)
    if isinstance(ty, StructType):
        offset = 0
        for field in ty.fields:
            offset = _round_up(offset, align_of(field)) + size_of(field)
        return _round_up(offset, align_of(ty)) if ty.fields else 0
    raise ValueError(f"type has no size: {ty}")


def struct_field_offset(ty: StructType, index: int) -> int:
    """Byte offset of struct field ``index``, with padding."""
    if index >= len(ty.fields):
        raise IndexError(f"struct {ty} has no field {index}")
    offset = 0
    for i, field in enumerate(ty.fields):
        offset = _round_up(offset, align_of(field))
        if i == index:
            return offset
        offset += size_of(field)
    raise AssertionError("unreachable")
