"""Scalar-semantics sweep: every engine and the constant folder agree.

Every int binop and icmp at widths 1/8/16/32/64 (icmp also on
pointers), every float binop and fcmp, and every cast pair the
frontend emits (plus the remaining table entries) are evaluated by

* the tree-walker -- its hand-written ``_binop``/``_icmp``/``_cast``
  are the independent reference;
* the closure tier and the codegen tier, which both read the shared
  semantics table in :mod:`repro.ir.instructions`;
* InstCombine, which folds constant operands through the same table.

Each op also runs on *fused* operands (each argument behind a
single-use identity op), so the closure tier evaluates getter operands
and codegen inlines compound expressions -- the shapes where a
template that reads an operand twice must evaluate it once.

Results must be equal, with NaN equal to NaN, ``0.0`` distinct from
``-0.0``, and a trap (``MemoryFault``) equal only to the same trap.
The folder must fold every case it can express unless the evaluation
traps.  The engines' ``RuntimeStats`` must also agree after the sweep,
which pins the exact charge rollback at every trap.

The MiniC reproducers at the end pin the float division and
float-to-int conversion semantics end to end on every engine.
"""

import math

import pytest

from repro.driver import NOOP, CompileOptions, compile_and_run
from repro.errors import MemoryFault
from repro.ir import (
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    F32,
    F64,
    FloatType,
    FunctionType,
    I1,
    I8,
    I16,
    I32,
    I64,
    IntType,
    IRBuilder,
    Module,
    PointerType,
    ptr,
)
from repro.ir.instructions import FCMP_PREDICATES, FLOAT_BINOPS, ICMP_PREDICATES, INT_BINOPS
from repro.opt import InstCombine
from repro.vm import VirtualMachine
from repro.vm.engines import ENGINES

INF = math.inf
NAN = math.nan
FLOATS = (0.0, -0.0, 1.5, -1.5, INF, -INF, NAN)
WIDTHS = (1, 8, 16, 32, 64)
POINTERS = (0, 1, 0x1000, (1 << 64) - 1)

#: Casts the folder evaluates on a constant operand (fptoui and the
#: bit/pointer casts are left to the runtime).
FOLDED_CASTS = {"trunc", "zext", "sext", "sitofp", "uitofp",
                "fpext", "fptrunc", "fptosi"}

#: (op, source, destination): every cast pair the frontend emits, plus
#: fptoui and the int<->float bitcasts the table also defines.
CASTS = [
    ("trunc", I64, I32), ("trunc", I64, I16), ("trunc", I64, I8),
    ("trunc", I32, I16), ("trunc", I32, I8), ("trunc", I16, I8),
    ("zext", I1, I32), ("zext", I8, I32), ("zext", I16, I32),
    ("zext", I32, I64), ("zext", I1, I64),
    ("sext", I8, I32), ("sext", I16, I32), ("sext", I32, I64),
    ("sext", I8, I64), ("sext", I16, I64),
    ("fpext", F32, F64), ("fptrunc", F64, F32),
    ("fptosi", F64, I32), ("fptosi", F64, I64), ("fptosi", F64, I8),
    ("fptosi", F32, I32), ("fptoui", F64, I32), ("fptoui", F64, I64),
    ("sitofp", I32, F64), ("sitofp", I64, F64), ("sitofp", I8, F64),
    ("sitofp", I32, F32), ("uitofp", I32, F64), ("uitofp", I64, F64),
    ("ptrtoint", ptr(I8), I64), ("inttoptr", I64, ptr(I8)),
    ("bitcast", ptr(I8), ptr(I32)),
    ("bitcast", I64, F64), ("bitcast", F64, I64),
    ("bitcast", I32, F32), ("bitcast", F32, I32),
]


def int_operands(bits: int):
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    return sorted({0, 1, half - 1, half, mask, 0x5A5A5A5A5A5A5A5A & mask})


def operands_of(ty):
    if isinstance(ty, FloatType):
        return FLOATS
    if isinstance(ty, IntType):
        return int_operands(ty.bits)
    return POINTERS


def comparable(value):
    """Equality key: NaN equals NaN, and the sign of zero counts."""
    if isinstance(value, float):
        return "nan" if value != value else value.hex()
    return value


def _emit(b: IRBuilder, kind: str, op: str, args, dst):
    if kind == "binop":
        return b.binop(op, *args)
    if kind == "icmp":
        return b.icmp(op, *args)
    if kind == "fcmp":
        return b.fcmp(op, *args)
    return b.cast(op, args[0], dst)


def _fused(b: IRBuilder, arg):
    """``arg`` behind a single-use identity op (``x ^ 0``, ``x + -0.0``);
    pointers stay as they are."""
    if isinstance(arg.type, FloatType):
        return b.binop("fadd", arg, ConstantFloat(arg.type, -0.0))
    if isinstance(arg.type, IntType):
        return b.binop("xor", arg, ConstantInt(arg.type, 0))
    return arg


def _result_type(kind: str, src, dst):
    if kind in ("icmp", "fcmp"):
        return I1
    return dst if kind == "cast" else src


def run_engines(kind: str, op: str, src, dst=None, fused: bool = False):
    """``{engine: [outcome per operand tuple]}`` plus the tuples, and
    each engine's final ``RuntimeStats`` counters."""
    arity = 1 if kind == "cast" else 2
    values = operands_of(src)
    cases = ([(a,) for a in values] if arity == 1
             else [(a, b) for a in values for b in values])
    outcomes, stats = {}, {}
    for engine in ENGINES:
        mod = Module("sweep")
        fn = mod.add_function(
            "f", FunctionType(_result_type(kind, src, dst), [src] * arity))
        b = IRBuilder(fn.add_block("entry"))
        args = [_fused(b, a) for a in fn.args] if fused else fn.args
        b.ret(_emit(b, kind, op, args, dst))
        vm = VirtualMachine(mod, engine=engine, install_default_libc=False)
        vm.load_globals()
        results = []
        for args in cases:
            try:
                results.append(comparable(vm.call_function(fn, list(args))))
            except MemoryFault as fault:
                results.append(("trap", str(fault)))
        outcomes[engine] = results
        stats[engine] = (vm.stats.cycles, vm.stats.instructions,
                         dict(vm.stats.opcode_counts))
    return cases, outcomes, stats


def _constant(ty, value):
    if isinstance(ty, FloatType):
        return ConstantFloat(ty, value)
    if isinstance(ty, IntType):
        return ConstantInt(ty, value)
    return ConstantNull(ty) if value == 0 else None


def fold(kind: str, op: str, src, dst, args):
    """The folder's value for ``op`` on constant operands, or None when
    it leaves the instruction in place."""
    constants = [_constant(src, a) for a in args]
    mod = Module("fold")
    fn = mod.add_function("f", FunctionType(_result_type(kind, src, dst), []))
    b = IRBuilder(fn.add_block("entry"))
    b.ret(_emit(b, kind, op, constants, dst))
    InstCombine().run(mod)
    value = fn.entry.instructions[-1].value
    if not isinstance(value, Constant):
        return None
    return comparable(0 if isinstance(value, ConstantNull) else value.value)


def check(kind: str, op: str, src, dst=None, folds: bool = True,
          fused: bool = False):
    cases, outcomes, stats = run_engines(kind, op, src, dst, fused)
    reference = outcomes["interp"]
    for engine in ENGINES:
        for args, want, got in zip(cases, reference, outcomes[engine]):
            assert got == want, f"{engine}: {op} {args} -> {got!r}, want {want!r}"
        assert stats[engine] == stats["interp"], engine
    if fused or not folds:
        return
    for args, want in zip(cases, reference):
        if any(_constant(src, a) is None for a in args):
            continue  # a non-null pointer has no constant form
        folded = fold(kind, op, src, dst, args)
        if isinstance(want, tuple):
            assert folded is None, f"folded trapping {op} {args}"
        else:
            assert folded == want, f"fold {op} {args} -> {folded!r}, want {want!r}"


@pytest.mark.parametrize("fused", [False, True], ids=["slots", "fused"])
@pytest.mark.parametrize("bits", WIDTHS)
@pytest.mark.parametrize("op", sorted(INT_BINOPS))
def test_int_binop(op, bits, fused):
    check("binop", op, IntType(bits), fused=fused)


@pytest.mark.parametrize("ty", [IntType(w) for w in WIDTHS] + [ptr(I8)], ids=str)
@pytest.mark.parametrize("pred", sorted(ICMP_PREDICATES))
@pytest.mark.parametrize("fused", [False, True], ids=["slots", "fused"])
def test_icmp(pred, ty, fused):
    check("icmp", pred, ty, fused=fused)


@pytest.mark.parametrize("ty", [F32, F64], ids=str)
@pytest.mark.parametrize("op", sorted(FLOAT_BINOPS))
@pytest.mark.parametrize("fused", [False, True], ids=["slots", "fused"])
def test_float_binop(op, ty, fused):
    check("binop", op, ty, fused=fused)


@pytest.mark.parametrize("pred", sorted(FCMP_PREDICATES))
@pytest.mark.parametrize("fused", [False, True], ids=["slots", "fused"])
def test_fcmp(pred, fused):
    check("fcmp", pred, F64, fused=fused)


@pytest.mark.parametrize("op,src,dst", CASTS,
                         ids=[f"{o}-{s}-{d}" for o, s, d in CASTS])
@pytest.mark.parametrize("fused", [False, True], ids=["slots", "fused"])
def test_cast(op, src, dst, fused):
    check("cast", op, src, dst, folds=op in FOLDED_CASTS, fused=fused)


def test_folded_casts_keep_their_operand_kinds():
    # fptoui and the int<->float bitcasts stay unfolded even when their
    # evaluation would succeed.
    assert fold("cast", "fptoui", F64, I32, (1.5,)) is None
    assert fold("cast", "bitcast", I64, F64, (1,)) is None
    assert fold("cast", "fptosi", F64, I32, (-1.5,)) == (1 << 32) - 1
    assert fold("cast", "inttoptr", I64, ptr(I8), (0,)) == 0


# ----------------------------------------------------------------------
# MiniC reproducers, every engine


def _run_all(source: str, **options):
    return {engine: compile_and_run({"t.c": source}, NOOP,
                                    CompileOptions(**options), engine=engine)
            for engine in ENGINES}


@pytest.mark.parametrize("opt_level", [0, 3])
def test_frem_of_infinity_is_nan(opt_level):
    runs = _run_all("""
    int main() { double z = 0.0; double y = (1.0 / z) % 3.0;
                 print_f64(y); print_f64(5.5 % z); print_f64(5.5 % (1.0 / z));
                 return 0; }""", opt_level=opt_level)
    for engine, run in runs.items():
        assert run.ok and run.output == ["nan", "nan", "5.500000"], engine


@pytest.mark.parametrize("opt_level", [0, 3])
def test_fdiv_by_signed_zero(opt_level):
    runs = _run_all("""
    int main() { double z = 0.0;
                 print_f64(-1.0 / z); print_f64(z / z); print_f64(1.0 / (-z));
                 return 0; }""", opt_level=opt_level)
    for engine, run in runs.items():
        assert run.ok and run.output == ["-inf", "nan", "-inf"], engine


@pytest.mark.parametrize("opt_level", [0, 3])
def test_fptosi_of_non_finite_is_a_modelled_fault(opt_level):
    runs = _run_all("""
    int main() { double z = 0.0; print_i64(1); long v = (long)(1.0 / z);
                 print_i64(v); return 0; }""", opt_level=opt_level)
    reference = runs["interp"]
    assert reference.fault is not None
    assert "non-finite" in reference.fault.reason
    assert reference.output == ["1"]
    for engine, run in runs.items():
        assert run.describe() == reference.describe(), engine
        assert run.output == reference.output, engine
        assert run.stats.cycles == reference.stats.cycles, engine
        assert run.stats.instructions == reference.stats.instructions, engine
        assert run.stats.opcode_counts == reference.stats.opcode_counts, engine
