"""Closure-compilation tier of the VM.

The tree-walking interpreter in :mod:`.interpreter` re-dispatches on
``type(inst)`` for every executed instruction and re-resolves every
operand through an ``isinstance`` chain.  This module translates each
IR function *once* (at first call) into flat lists of Python closures
over pre-resolved state, while keeping :class:`RuntimeStats`
**bit-identical** to the tree-walker:

* values live in integer-indexed slots of a flat ``list`` frame
  instead of a ``Dict[Value, object]``;
* constants (including loaded global addresses) are folded to plain
  ints/floats at compile time;
* binops, ``icmp``/``fcmp`` and casts are closures built from the
  shared scalar-semantics table's templates
  (:mod:`repro.ir.instructions`) with the operand reads inlined, one
  ``exec`` per (op, widths, operand kinds);
* phi nodes become per-predecessor parallel move lists, precomputed
  per CFG edge;
* single-use side-effect-free instructions (binops, compares, casts,
  ``gep``, ``select``) are *fused* into their consumer as expression
  getters, eliminating the intermediate frame traffic entirely;
* loads and stores carry a per-site inline cache of the last
  allocation they hit, validated by :attr:`Memory.epoch`;
* cycle/instruction/opcode charges are pre-aggregated per basic block
  and applied in one batch at block entry.

Determinism contract (why batched charging is safe for cached
results): the only points where statistics are observable are the end
of a run and the moment a :class:`MemoryFault` /
``MemSafetyViolation`` / ``ProgramAbort`` / exit request escapes the
VM -- native helpers only ever *add* to the counters, none reads them.
Every step that can raise (loads, stores, allocas, integer division,
every call) is therefore wrapped with a *static rollback*: on the way
out of the block it subtracts the pre-computed charges of exactly the
not-yet-executed instructions, leaving the counters equal --
field-for-field, including ``opcode_counts`` keys -- to what the
tree-walker would have charged at the same raise point.  Fused
instructions shift only *when* a pure expression is computed, never
whether or what is charged.

Function addresses are still assigned lazily at first *evaluation*
(not at compile time), so indirect-call address assignment order --
and hence any program-visible pointer value -- matches the
tree-walker; operands that evaluate a function or unloaded-global
address are never fused or folded.
"""

from __future__ import annotations

import functools
import struct
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..errors import MemoryFault, VMError
from ..ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    FCmp,
    GEP,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    SCALAR_HELPERS,
    Unreachable,
    scalar_evaluator,
    semantics_of,
)
from ..ir.module import BasicBlock, Function, GlobalVariable
from ..ir.types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    U64_MASK,
    VoidType,
    size_of,
    struct_field_offset,
)
from ..ir.values import (
    Argument,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantZero,
    UndefValue,
    Value,
)
from . import costs

if TYPE_CHECKING:  # pragma: no cover
    from .interpreter import VirtualMachine


def _raiser(exc: Exception) -> Callable:
    """A step that raises ``exc`` when (and only when) executed --
    compile-time problems surface at the same execution point where
    the tree-walker would raise them."""

    def step(frame):
        raise exc

    return step


#: How a generated scalar closure reads an operand descriptor's payload
#: ``x``: a frame slot, a constant, or a getter call.
_READS = {"s": "frame[{}]", "c": "{}", "p": "{}(frame)", "f": "{}(frame)"}


@functools.lru_cache(maxsize=None)
def _scalar_maker(template: str, kinds: Tuple[str, ...], store: bool) -> Callable:
    """A maker of closures that evaluate a semantics-table ``template``
    (widths filled in) on operands of the given descriptor kinds, the
    reads inlined.  ``make(x[, y])`` returns a getter ``frame -> value``;
    with ``store`` it is ``make(dst, x[, y])`` and returns a step that
    sets ``frame[dst]``.  When the template reads a getter operand more
    than once, every getter operand is first called once, in operand
    order, into a local.  Built with one ``exec`` per distinct key."""
    params = ("x", "y")[:len(kinds)]
    reread = any(k in ("p", "f") and template.count("{%s}" % n) > 1
                 for n, k in zip("ab", kinds))
    lines, reads = [], {}
    for n, k, p in zip("ab", kinds, params):
        reads[n] = _READS[k].format(p)
        if reread and k in ("p", "f"):
            lines.append(f"{n} = {reads[n]}")
            reads[n] = n
    value = template.format(**reads)
    lines.append(f"frame[dst] = {value}" if store else f"return {value}")
    src = (f"def make({'dst, ' * store}{', '.join(params)}):\n"
           "    def run(frame):\n"
           + "".join(f"        {line}\n" for line in lines)
           + "    return run\n")
    namespace = dict(SCALAR_HELPERS)
    exec(src, namespace)
    return namespace["make"]


def _unroll(stats, oc, rb) -> None:
    """Cold path of an inline rollback cell: subtract the batched
    charges of the instructions after the raising step (``rb`` is
    ``[cycles, instructions, opcode_items, loads, stores, mi_cycles]``,
    filled in once the block's charge list is complete;
    ``mi_cycles`` is nonzero only under profiling)."""
    stats.cycles -= rb[0]
    stats.instructions -= rb[1]
    for key, count in rb[2]:
        left = oc[key] - count
        if left:
            oc[key] = left
        else:
            del oc[key]
    stats.loads -= rb[3]
    stats.stores -= rb[4]
    if rb[5]:
        stats.instrumentation_cycles -= rb[5]


def _rollback(inner: Callable, stats, oc, cyc: int, n: int,
              items: Tuple, loads: int, stores: int,
              micyc: int = 0) -> Callable:
    """Wrap a potentially-raising step: on the way out, un-charge the
    statically batched charges of the instructions after it, restoring
    the exact tree-walker counter state at the raise point."""

    def step(frame):
        try:
            inner(frame)
        except BaseException:
            stats.cycles -= cyc
            stats.instructions -= n
            for key, count in items:
                left = oc[key] - count
                if left:
                    oc[key] = left
                else:
                    # The tree-walker never creates zero entries, so
                    # drop exhausted keys to stay key-identical.
                    del oc[key]
            if loads:
                stats.loads -= loads
            if stores:
                stats.stores -= stores
            if micyc:
                stats.instrumentation_cycles -= micyc
            raise

    return step


class CompiledFunction:
    """One IR function translated to closure lists, bound to one VM."""

    __slots__ = ("vm", "fn", "nslots", "arg_slots", "entry_edge", "retcell")

    def __init__(self, vm: "VirtualMachine", fn: Function):
        self.vm = vm
        self.fn = fn
        self.retcell: List[object] = [None]
        _FunctionCompiler(self, vm, fn).build()

    def execute(self, args: List) -> Optional[object]:
        vm = self.vm
        stats = vm.stats
        maxi = vm.max_instructions
        frame: List[object] = [None] * self.nslots
        for slot, value in zip(self.arg_slots, args):
            frame[slot] = value
        retcell = self.retcell
        moves, body, term = self.entry_edge
        while True:
            if moves is not None:
                moves(frame)
            for step in body:
                step(frame)
            nxt = term(frame)
            if nxt is None:
                # The ret closure stashed the return value immediately
                # before we read it back; nothing can run in between.
                return retcell[0]
            if maxi is not None and stats.instructions > maxi:
                raise VMError("instruction budget exceeded (infinite loop?)")
            moves, body, term = nxt


class _FunctionCompiler:
    """Builds the closure lists for one function.

    Split from :class:`CompiledFunction` so the (sizeable) compile-time
    state dies once compilation finishes; only the closures survive.

    Operand descriptors are ``("s", slot)`` for frame slots, ``("c",
    value)`` for compile-time constants, ``("p", getter)`` for fused
    pure expressions, and ``("f", getter)`` for impure getters
    (function addresses, unloaded globals, undefined values).
    """

    def __init__(self, out: CompiledFunction, vm: "VirtualMachine", fn: Function):
        self.out = out
        self.vm = vm
        self.fn = fn
        self.stats = vm.stats
        self.slots: Dict[Value, int] = {}
        self.uses: Dict[Value, int] = {}
        # Per-block compile state.
        self._pending: Dict[Value, Tuple] = {}
        self._gep_parts: Dict[Value, Tuple] = {}
        self._charges: List[Tuple[str, int, int, int, bool]] = []
        self._wraps: List[Tuple[int, int]] = []
        self._rb_cells: List[Tuple[List, int]] = []

    # -- driver --------------------------------------------------------
    def build(self) -> None:
        fn = self.fn
        for arg in fn.args:
            self.slots[arg] = len(self.slots)
        uses = self.uses
        for block in fn.blocks:
            for inst in block.instructions:
                if isinstance(inst, Call):
                    if inst.type.is_first_class():
                        self.slots[inst] = len(self.slots)
                elif not isinstance(inst.type, VoidType):
                    self.slots[inst] = len(self.slots)
                for op in inst.operands:
                    if isinstance(op, Instruction):
                        uses[op] = uses.get(op, 0) + 1

        # The tree-walker breaks out of a block at the *first*
        # terminator it executes, so later instructions are dead.
        term_insts: Dict[BasicBlock, Optional[Instruction]] = {}
        for block in fn.blocks:
            term_insts[block] = next(
                (i for i in block.instructions if isinstance(i, (Br, CondBr, Ret))),
                None,
            )

        # Every CFG edge (plus the function entry) gets a mutable edge
        # record [moves, body, term]; terminators return these records.
        # Records are created first so terminator closures can capture
        # them, and filled once every block is compiled.
        edges: Dict[Tuple[Optional[BasicBlock], BasicBlock], List] = {}
        entry = fn.entry
        edges[(None, entry)] = [None, None, None]
        for block in fn.blocks:
            term_inst = term_insts[block]
            if isinstance(term_inst, (Br, CondBr)):
                for succ in term_inst.successors:
                    edges.setdefault((block, succ), [None, None, None])

        bodies: Dict[BasicBlock, List[Callable]] = {}
        terms: Dict[BasicBlock, Callable] = {}
        for block in fn.blocks:
            self._pending = {}
            self._gep_parts = {}
            self._charges = []
            self._wraps = []
            self._rb_cells = []
            term_inst = term_insts[block]
            body: List[Callable] = []
            phis = block.phis()
            for phi in phis:
                # Phi resolution is charged with the block batch (the
                # batch applies after the moves ran, matching the
                # tree-walker's evaluate-then-charge order).  Phis cost
                # 0 cycles, so no mi attribution either way.
                self._charges.append(("phi", 0, 0, 0, False))
            for inst in block.instructions[len(phis):]:
                if inst is term_inst:
                    self._charges.append(
                        (inst.opcode, costs.INSTRUCTION_COSTS[inst.opcode],
                         0, 0, False))
                    break
                self._compile_instruction(inst, body)
            # The terminator may consume a pending fused expression, so
            # compile it before materializing the leftovers.
            terms[block] = self._compile_terminator(block, term_inst, edges)
            self._materialize_pending(body)
            self._finalize_block(body)
            bodies[block] = body

        for (pred, succ), record in edges.items():
            record[0] = self._compile_moves(pred, succ)
            record[1] = bodies[succ]
            record[2] = terms[succ]

        self.out.nslots = max(len(self.slots), 1)
        self.out.arg_slots = [self.slots[a] for a in fn.args]
        self.out.entry_edge = edges[(None, entry)]

    # -- charge bookkeeping --------------------------------------------
    def _charge(self, opcode: str, cycles: int,
                loads: int = 0, stores: int = 0, mi: bool = False) -> None:
        self._charges.append((opcode, cycles, loads, stores, mi))

    def _emit_raising(self, body: List[Callable], step: Callable) -> None:
        """Emit a step that may raise; it will be wrapped with a
        rollback of every *already-recorded-after-it* static charge."""
        self._wraps.append((len(body), len(self._charges)))
        body.append(step)

    def _new_rb(self) -> List:
        """Inline-rollback cell for steps that carry their own
        try/except (loads, stores, native calls): same semantics as
        :meth:`_emit_raising`, minus the wrapper call per execution."""
        rb = [0, 0, (), 0, 0, 0]
        self._rb_cells.append((rb, len(self._charges)))
        return rb

    @staticmethod
    def _aggregate(charges) -> Tuple[int, int, Tuple, int, int, int]:
        cyc = loads = stores = micyc = 0
        counts: Dict[str, int] = {}
        for op, c, ld, st, mi in charges:
            cyc += c
            loads += ld
            stores += st
            if mi:
                micyc += c
            counts[op] = counts.get(op, 0) + 1
        return cyc, len(charges), tuple(counts.items()), loads, stores, micyc

    def _finalize_block(self, body: List[Callable]) -> None:
        charges = self._charges
        stats = self.stats
        oc = stats.opcode_counts
        # Resolved at compile time: unprofiled runs get the exact same
        # closures (and therefore bit-identical statistics) as before
        # the profiling layer existed.
        profile = stats.profile
        for body_index, charge_index in self._wraps:
            suffix = charges[charge_index:]
            if not suffix:
                continue
            cyc, n, items, loads, stores, micyc = self._aggregate(suffix)
            body[body_index] = _rollback(
                body[body_index], stats, oc, cyc, n, items, loads, stores,
                micyc if profile else 0)
        for rb, charge_index in self._rb_cells:
            suffix = charges[charge_index:]
            if suffix:
                rb[0], rb[1], rb[2], rb[3], rb[4], micyc = \
                    self._aggregate(suffix)
                if profile:
                    rb[5] = micyc
        if not charges:
            return
        cyc, n, items, loads, stores, micyc = self._aggregate(charges)
        if profile and micyc:
            # Instrumentation-owned share of this block's static
            # charges; the same sum the tree-walker accumulates
            # per-instruction from the ``mi`` metadata.
            def batch(frame):
                stats.cycles += cyc
                stats.instructions += n
                for key, count in items:
                    oc[key] += count
                stats.loads += loads
                stats.stores += stores
                stats.instrumentation_cycles += micyc
            body.insert(0, batch)
            return
        if len(items) == 1:
            key, count = items[0]
            if loads or stores:
                def batch(frame):
                    stats.cycles += cyc
                    stats.instructions += n
                    oc[key] += count
                    stats.loads += loads
                    stats.stores += stores
            else:
                def batch(frame):
                    stats.cycles += cyc
                    stats.instructions += n
                    oc[key] += count
        elif loads or stores:
            def batch(frame):
                stats.cycles += cyc
                stats.instructions += n
                for key, count in items:
                    oc[key] += count
                stats.loads += loads
                stats.stores += stores
        else:
            def batch(frame):
                stats.cycles += cyc
                stats.instructions += n
                for key, count in items:
                    oc[key] += count
        body.insert(0, batch)

    # -- operand resolution --------------------------------------------
    def _operand(self, value: Value) -> Tuple:
        pending = self._pending.pop(value, None)
        if pending is not None:
            self._gep_parts.pop(value, None)
            return pending
        if isinstance(value, (Instruction, Argument)):
            slot = self.slots.get(value)
            if slot is None:
                name = value.name

                def broken(frame):
                    raise VMError(f"use of undefined value %{name}")

                return ("f", broken)
            return ("s", slot)
        if isinstance(value, ConstantInt):
            return ("c", value.value)
        if isinstance(value, ConstantFloat):
            return ("c", value.value)
        if isinstance(value, (ConstantNull, ConstantZero, UndefValue)):
            return ("c", 0.0 if isinstance(value.type, FloatType) else 0)
        if isinstance(value, GlobalVariable):
            address = self.vm.global_addresses.get(value)
            if address is not None:
                return ("c", address)
            # Not loaded yet (direct call_function use before run()):
            # fall back to the tree-walker's runtime lookup.
            vm = self.vm

            def global_getter(frame):
                try:
                    return vm.global_addresses[value]
                except KeyError:
                    raise VMError(f"global @{value.name} not loaded") from None

            return ("f", global_getter)
        if isinstance(value, Function):
            # Lazy, evaluation-order-preserving address assignment:
            # folding at compile time would assign addresses in a
            # different order than the tree-walker.
            vm = self.vm

            def function_getter(frame):
                return vm.function_address(value)

            return ("f", function_getter)
        return ("f", _raiser(VMError(f"cannot evaluate value {value!r}")))

    @staticmethod
    def _getter(desc: Tuple) -> Callable:
        kind, payload = desc
        if kind == "s":
            slot = payload
            return lambda frame: frame[slot]
        if kind == "c":
            const = payload
            return lambda frame: const
        return payload  # "p" / "f"

    @staticmethod
    def _fusable(*descs: Tuple) -> bool:
        """Only slot/const/pure operands may be deferred: "f" getters
        (function addresses) have observable evaluation order."""
        return all(d[0] in ("s", "c", "p") for d in descs)

    def _use_once(self, inst: Instruction) -> bool:
        return self.uses.get(inst, 0) == 1

    def _sink(self, inst: Instruction, body: List[Callable], desc: Tuple) -> None:
        """Fuse a pure value into its (single) consumer, or emit a
        step materializing it into its frame slot."""
        if self._use_once(inst):
            self._pending[inst] = desc
        else:
            body.append(self._store_step(self.slots[inst], desc))

    @staticmethod
    def _store_step(dst: int, desc: Tuple) -> Callable:
        kind, payload = desc
        if kind == "s":
            src = payload

            def step(frame):
                frame[dst] = frame[src]
        elif kind == "c":
            const = payload

            def step(frame):
                frame[dst] = const
        else:
            g = payload

            def step(frame):
                frame[dst] = g(frame)
        return step

    # -- instruction dispatch ------------------------------------------
    def _compile_instruction(self, inst, body: List[Callable]) -> None:
        cls = type(inst)
        mi = "mi" in inst.meta
        if cls is Load:
            self._charge("load", costs.INSTRUCTION_COSTS["load"], loads=1,
                         mi=mi)
            body.append(self._compile_load(inst))
        elif cls is Store:
            self._charge("store", costs.INSTRUCTION_COSTS["store"], stores=1,
                         mi=mi)
            body.append(self._compile_store(inst))
        elif cls is BinOp or cls is Cast:
            self._charge(inst.opcode, costs.INSTRUCTION_COSTS[inst.opcode],
                         mi=mi)
            self._compile_scalar(inst, body)
        elif cls is GEP:
            self._charge("gep", 1, mi=mi)
            self._compile_gep(inst, body)
        elif cls is ICmp:
            self._charge("icmp", 1, mi=mi)
            self._compile_scalar(inst, body)
        elif cls is FCmp:
            self._charge("fcmp", 2, mi=mi)
            self._compile_scalar(inst, body)
        elif cls is Select:
            self._charge("select", 1, mi=mi)
            self._compile_select(inst, body)
        elif cls is Call:
            self._compile_call(inst, body)
        elif cls is Alloca:
            self._charge("alloca", 2, mi=mi)
            self._emit_raising(body, self._compile_alloca(inst))
        elif cls is Phi:
            # A phi past the leading run: the tree-walker dispatches on
            # it and raises, without charging it.
            self._emit_raising(body, _raiser(VMError(
                f"phi executed without predecessor: {inst}")))
        elif cls is Unreachable:
            self._emit_raising(body, _raiser(VMError("executed 'unreachable'")))
        else:
            self._emit_raising(body, _raiser(VMError(
                f"cannot interpret instruction: {inst}")))

    # -- memory --------------------------------------------------------
    def _pointer_reader(self, desc: Tuple) -> Callable:
        """address-producing closure for a pointer operand."""
        if desc[0] == "s":
            slot = desc[1]
            return lambda frame: frame[slot]
        return self._getter(desc)

    def _compile_load(self, inst: Load) -> Callable:
        dst = self.slots[inst]
        ty = inst.type
        size = size_of(ty)
        mem = self.vm.memory
        locate = mem.locate
        stats = self.stats
        oc = stats.opcode_counts
        rb = self._new_rb()
        # When the pointer is a fused gep of the canonical shape
        # (slot base plus at most one slot-indexed term), the address
        # arithmetic is inlined into the access closure; otherwise the
        # address comes from a getter call.
        parts = self._take_gep_parts(inst.pointer)
        pget = None
        if parts is None:
            pget = self._pointer_reader(self._operand(inst.pointer))
        else:
            bs, terms, cofs = parts
            if terms:
                (iv, scale, half, full), = terms
        # Per-site inline cache (closure cells): the cached allocation
        # plus its [lo, hi) range and the epoch it was filled in.
        c_alloc = None
        c_lo = c_hi = 0
        c_ep = -1
        if isinstance(ty, FloatType):
            fmt = "<f" if size == 4 else "<d"
            unpack_from = struct.unpack_from
            unpack = struct.unpack

            if parts is None:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        a = pget(frame)
                        if (c_ep == mem.epoch and c_lo <= a
                                and a + size <= c_hi and not c_alloc.freed):
                            o = a - c_lo
                        else:
                            c_alloc, o = locate(a, size, False)
                            c_lo = c_alloc.base
                            c_hi = c_lo + c_alloc.size
                            c_ep = mem.epoch
                        data = c_alloc.data
                        if type(data) is bytearray:
                            frame[dst] = unpack_from(fmt, data, o)[0]
                        else:
                            frame[dst] = unpack(fmt, data[o:o + size])[0]
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
            elif terms:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        v = frame[iv]
                        if v >= half:
                            v -= full
                        a = (frame[bs] + v * scale + cofs) & U64_MASK
                        if (c_ep == mem.epoch and c_lo <= a
                                and a + size <= c_hi and not c_alloc.freed):
                            o = a - c_lo
                        else:
                            c_alloc, o = locate(a, size, False)
                            c_lo = c_alloc.base
                            c_hi = c_lo + c_alloc.size
                            c_ep = mem.epoch
                        data = c_alloc.data
                        if type(data) is bytearray:
                            frame[dst] = unpack_from(fmt, data, o)[0]
                        else:
                            frame[dst] = unpack(fmt, data[o:o + size])[0]
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
            else:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        a = (frame[bs] + cofs) & U64_MASK
                        if (c_ep == mem.epoch and c_lo <= a
                                and a + size <= c_hi and not c_alloc.freed):
                            o = a - c_lo
                        else:
                            c_alloc, o = locate(a, size, False)
                            c_lo = c_alloc.base
                            c_hi = c_lo + c_alloc.size
                            c_ep = mem.epoch
                        data = c_alloc.data
                        if type(data) is bytearray:
                            frame[dst] = unpack_from(fmt, data, o)[0]
                        else:
                            frame[dst] = unpack(fmt, data[o:o + size])[0]
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
            return step
        from_bytes = int.from_bytes
        if size == 1:
            if parts is None:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        a = pget(frame)
                        if (c_ep == mem.epoch and c_lo <= a
                                and a < c_hi and not c_alloc.freed):
                            frame[dst] = c_alloc.data[a - c_lo]
                            return
                        c_alloc, o = locate(a, 1, False)
                        c_lo = c_alloc.base
                        c_hi = c_lo + c_alloc.size
                        c_ep = mem.epoch
                        frame[dst] = c_alloc.data[o]
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
            elif terms:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        v = frame[iv]
                        if v >= half:
                            v -= full
                        a = (frame[bs] + v * scale + cofs) & U64_MASK
                        if (c_ep == mem.epoch and c_lo <= a
                                and a < c_hi and not c_alloc.freed):
                            frame[dst] = c_alloc.data[a - c_lo]
                            return
                        c_alloc, o = locate(a, 1, False)
                        c_lo = c_alloc.base
                        c_hi = c_lo + c_alloc.size
                        c_ep = mem.epoch
                        frame[dst] = c_alloc.data[o]
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
            else:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        a = (frame[bs] + cofs) & U64_MASK
                        if (c_ep == mem.epoch and c_lo <= a
                                and a < c_hi and not c_alloc.freed):
                            frame[dst] = c_alloc.data[a - c_lo]
                            return
                        c_alloc, o = locate(a, 1, False)
                        c_lo = c_alloc.base
                        c_hi = c_lo + c_alloc.size
                        c_ep = mem.epoch
                        frame[dst] = c_alloc.data[o]
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
        else:
            if parts is None:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        a = pget(frame)
                        if (c_ep == mem.epoch and c_lo <= a
                                and a + size <= c_hi and not c_alloc.freed):
                            o = a - c_lo
                        else:
                            c_alloc, o = locate(a, size, False)
                            c_lo = c_alloc.base
                            c_hi = c_lo + c_alloc.size
                            c_ep = mem.epoch
                        frame[dst] = from_bytes(c_alloc.data[o:o + size], "little")
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
            elif terms:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        v = frame[iv]
                        if v >= half:
                            v -= full
                        a = (frame[bs] + v * scale + cofs) & U64_MASK
                        if (c_ep == mem.epoch and c_lo <= a
                                and a + size <= c_hi and not c_alloc.freed):
                            o = a - c_lo
                        else:
                            c_alloc, o = locate(a, size, False)
                            c_lo = c_alloc.base
                            c_hi = c_lo + c_alloc.size
                            c_ep = mem.epoch
                        frame[dst] = from_bytes(c_alloc.data[o:o + size], "little")
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
            else:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        a = (frame[bs] + cofs) & U64_MASK
                        if (c_ep == mem.epoch and c_lo <= a
                                and a + size <= c_hi and not c_alloc.freed):
                            o = a - c_lo
                        else:
                            c_alloc, o = locate(a, size, False)
                            c_lo = c_alloc.base
                            c_hi = c_lo + c_alloc.size
                            c_ep = mem.epoch
                        frame[dst] = from_bytes(c_alloc.data[o:o + size], "little")
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
        return step

    def _compile_store(self, inst: Store) -> Callable:
        ty = inst.value.type
        size = size_of(ty)
        mem = self.vm.memory
        locate = mem.locate
        stats = self.stats
        oc = stats.opcode_counts
        rb = self._new_rb()
        parts = self._take_gep_parts(inst.pointer)
        pget = None
        if parts is None:
            pget = self._pointer_reader(self._operand(inst.pointer))
        else:
            bs, terms, cofs = parts
            if terms:
                (iv, scale, half, full), = terms
        vget = self._getter(self._operand(inst.value))
        c_alloc = None
        c_lo = c_hi = 0
        c_ep = -1
        # The tree-walker evaluates pointer, then value, then converts
        # (``int(value)`` may raise on NaN), and only then resolves the
        # address -- the closures preserve that order exactly.
        if isinstance(ty, FloatType):
            fmt = "<f" if size == 4 else "<d"
            pack_into = struct.pack_into
            pack = struct.pack

            if parts is None:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        a = pget(frame)
                        val = vget(frame)
                        if (c_ep == mem.epoch and c_lo <= a
                                and a + size <= c_hi and not c_alloc.freed):
                            o = a - c_lo
                        else:
                            c_alloc, o = locate(a, size, True)
                            c_lo = c_alloc.base
                            c_hi = c_lo + c_alloc.size
                            c_ep = mem.epoch
                        data = c_alloc.data
                        if type(data) is bytearray:
                            pack_into(fmt, data, o, val)
                        else:
                            data[o:o + size] = pack(fmt, val)
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
            elif terms:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        v = frame[iv]
                        if v >= half:
                            v -= full
                        a = (frame[bs] + v * scale + cofs) & U64_MASK
                        val = vget(frame)
                        if (c_ep == mem.epoch and c_lo <= a
                                and a + size <= c_hi and not c_alloc.freed):
                            o = a - c_lo
                        else:
                            c_alloc, o = locate(a, size, True)
                            c_lo = c_alloc.base
                            c_hi = c_lo + c_alloc.size
                            c_ep = mem.epoch
                        data = c_alloc.data
                        if type(data) is bytearray:
                            pack_into(fmt, data, o, val)
                        else:
                            data[o:o + size] = pack(fmt, val)
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
            else:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        a = (frame[bs] + cofs) & U64_MASK
                        val = vget(frame)
                        if (c_ep == mem.epoch and c_lo <= a
                                and a + size <= c_hi and not c_alloc.freed):
                            o = a - c_lo
                        else:
                            c_alloc, o = locate(a, size, True)
                            c_lo = c_alloc.base
                            c_hi = c_lo + c_alloc.size
                            c_ep = mem.epoch
                        data = c_alloc.data
                        if type(data) is bytearray:
                            pack_into(fmt, data, o, val)
                        else:
                            data[o:o + size] = pack(fmt, val)
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
            return step
        mask = (1 << (8 * size)) - 1
        if size == 1:
            if parts is None:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        a = pget(frame)
                        val = int(vget(frame)) & 0xFF
                        if (c_ep == mem.epoch and c_lo <= a
                                and a < c_hi and not c_alloc.freed):
                            c_alloc.data[a - c_lo] = val
                            return
                        c_alloc, o = locate(a, 1, True)
                        c_lo = c_alloc.base
                        c_hi = c_lo + c_alloc.size
                        c_ep = mem.epoch
                        c_alloc.data[o] = val
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
            elif terms:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        v = frame[iv]
                        if v >= half:
                            v -= full
                        a = (frame[bs] + v * scale + cofs) & U64_MASK
                        val = int(vget(frame)) & 0xFF
                        if (c_ep == mem.epoch and c_lo <= a
                                and a < c_hi and not c_alloc.freed):
                            c_alloc.data[a - c_lo] = val
                            return
                        c_alloc, o = locate(a, 1, True)
                        c_lo = c_alloc.base
                        c_hi = c_lo + c_alloc.size
                        c_ep = mem.epoch
                        c_alloc.data[o] = val
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
            else:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        a = (frame[bs] + cofs) & U64_MASK
                        val = int(vget(frame)) & 0xFF
                        if (c_ep == mem.epoch and c_lo <= a
                                and a < c_hi and not c_alloc.freed):
                            c_alloc.data[a - c_lo] = val
                            return
                        c_alloc, o = locate(a, 1, True)
                        c_lo = c_alloc.base
                        c_hi = c_lo + c_alloc.size
                        c_ep = mem.epoch
                        c_alloc.data[o] = val
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
        else:
            if parts is None:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        a = pget(frame)
                        val = (int(vget(frame)) & mask).to_bytes(size, "little")
                        if (c_ep == mem.epoch and c_lo <= a
                                and a + size <= c_hi and not c_alloc.freed):
                            o = a - c_lo
                        else:
                            c_alloc, o = locate(a, size, True)
                            c_lo = c_alloc.base
                            c_hi = c_lo + c_alloc.size
                            c_ep = mem.epoch
                        c_alloc.data[o:o + size] = val
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
            elif terms:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        v = frame[iv]
                        if v >= half:
                            v -= full
                        a = (frame[bs] + v * scale + cofs) & U64_MASK
                        val = (int(vget(frame)) & mask).to_bytes(size, "little")
                        if (c_ep == mem.epoch and c_lo <= a
                                and a + size <= c_hi and not c_alloc.freed):
                            o = a - c_lo
                        else:
                            c_alloc, o = locate(a, size, True)
                            c_lo = c_alloc.base
                            c_hi = c_lo + c_alloc.size
                            c_ep = mem.epoch
                        c_alloc.data[o:o + size] = val
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
            else:
                def step(frame):
                    nonlocal c_alloc, c_lo, c_hi, c_ep
                    try:
                        a = (frame[bs] + cofs) & U64_MASK
                        val = (int(vget(frame)) & mask).to_bytes(size, "little")
                        if (c_ep == mem.epoch and c_lo <= a
                                and a + size <= c_hi and not c_alloc.freed):
                            o = a - c_lo
                        else:
                            c_alloc, o = locate(a, size, True)
                            c_lo = c_alloc.base
                            c_hi = c_lo + c_alloc.size
                            c_ep = mem.epoch
                        c_alloc.data[o:o + size] = val
                    except BaseException:
                        _unroll(stats, oc, rb)
                        raise
        return step

    def _compile_alloca(self, inst: Alloca) -> Callable:
        dst = self.slots[inst]
        size = size_of(inst.allocated_type)
        name = inst.name
        alloca = self.vm.stack.alloca
        if inst.count is None:
            def step(frame):
                frame[dst] = alloca(size, name).base
        else:
            cg = self._getter(self._operand(inst.count))

            def step(frame):
                frame[dst] = alloca(size * cg(frame), name).base
        return step

    # -- arithmetic / comparison / casts -------------------------------
    def _compile_scalar(self, inst: Instruction, body: List[Callable]) -> None:
        """A binop, comparison or cast: a closure built from its shared
        semantics-table template, operand reads inlined."""
        operands = [self._operand(v) for v in inst.operands]
        sem = semantics_of(inst)
        if sem is None:
            self._emit_raising(body, _raiser(VMError(f"int binop {inst.opcode}")))
            return
        if sem.template == "{a}":
            # Identity cast (zext, pointer bitcast, ...): forward the
            # operand descriptor itself.
            self._sink_or_copy(inst, body, operands[0])
            return
        kinds = tuple(d[0] for d in operands)
        payloads = [d[1] for d in operands]
        if sem.may_raise:
            # Traps (division by zero, fptosi of NaN/inf): always a
            # standalone step with charge rollback, never fused or
            # const-folded.
            step = _scalar_maker(sem.template, kinds, True)(
                self.slots[inst], *payloads)
            self._emit_raising(body, step)
        elif self._use_once(inst) and self._fusable(*operands):
            if all(k == "c" for k in kinds):
                self._pending[inst] = ("c", scalar_evaluator(sem)(*payloads))
            else:
                self._pending[inst] = (
                    "p", _scalar_maker(sem.template, kinds, False)(*payloads))
        else:
            body.append(_scalar_maker(sem.template, kinds, True)(
                self.slots[inst], *payloads))

    def _sink_or_copy(self, inst, body: List[Callable], desc: Tuple) -> None:
        if self._use_once(inst) and self._fusable(desc):
            self._pending[inst] = desc
        else:
            body.append(self._store_step(self.slots[inst], desc))

    def _compile_select(self, inst: Select, body: List[Callable]) -> None:
        c = self._operand(inst.condition)
        t = self._operand(inst.true_value)
        f = self._operand(inst.false_value)
        if self._use_once(inst) and self._fusable(c, t, f):
            # Lazy arm evaluation matches the tree-walker, which only
            # evaluates the taken operand.
            if c[0] == "s" and t[0] == "s" and f[0] == "s":
                cv, tv, fv = c[1], t[1], f[1]
                self._pending[inst] = (
                    "p", lambda frame: frame[tv] if frame[cv] else frame[fv])
            else:
                cg, tg, fg = self._getter(c), self._getter(t), self._getter(f)
                self._pending[inst] = (
                    "p", lambda frame: tg(frame) if cg(frame) else fg(frame))
            return
        dst = self.slots[inst]
        if c[0] == "s" and t[0] == "s" and f[0] == "s":
            cv, tv, fv = c[1], t[1], f[1]

            def step(frame):
                frame[dst] = frame[tv] if frame[cv] else frame[fv]
        else:
            cg, tg, fg = self._getter(c), self._getter(t), self._getter(f)

            def step(frame):
                frame[dst] = tg(frame) if cg(frame) else fg(frame)
        body.append(step)

    def _compile_gep(self, inst: GEP, body: List[Callable]) -> None:
        desc, parts = self._gep_desc(inst)
        if desc[0] == "p" or desc[0] == "c":
            if self._use_once(inst):
                self._pending[inst] = desc
                if parts is not None:
                    # A consuming load/store in this block can inline
                    # the address arithmetic instead of calling the
                    # fused closure.
                    self._gep_parts[inst] = parts
            else:
                body.append(self._store_step(self.slots[inst], desc))
        else:
            # An "f" operand leaked in (undefined value, unloaded
            # global): materialize so evaluation happens here.
            body.append(self._store_step(self.slots[inst], desc))

    def _take_gep_parts(self, value: Value) -> Optional[Tuple]:
        """Consume a pending fused gep as structured address parts
        ``(base_slot, var_terms, const_offset)``, or None if the
        pointer isn't an inline-eligible pending gep."""
        parts = self._gep_parts.get(value)
        if parts is None or value not in self._pending:
            return None
        del self._pending[value]
        del self._gep_parts[value]
        return parts

    def _gep_desc(self, inst: GEP) -> Tuple[Tuple, Optional[Tuple]]:
        """Returns ``(descriptor, inline_parts)``; ``inline_parts`` is
        ``(base_slot, var_terms, const_offset)`` when the address is a
        frame slot plus at most one slot-indexed term -- the shape
        load/store closures inline directly."""
        base = self._operand(inst.pointer)
        ty = inst.pointer.type
        assert isinstance(ty, PointerType)
        indices = inst.indices

        const_offset = 0
        var_terms: List[Tuple[Tuple, int, int, int]] = []

        def add_index(idx_value: Value, scale: int) -> None:
            nonlocal const_offset
            if isinstance(idx_value, ConstantInt):
                const_offset += idx_value.signed_value * scale
                return
            if isinstance(idx_value, (ConstantNull, ConstantZero, UndefValue)):
                return
            desc = self._operand(idx_value)
            ity = idx_value.type
            bits = ity.bits if isinstance(ity, IntType) else 64
            var_terms.append((desc, scale, 1 << (bits - 1), 1 << bits))

        add_index(indices[0], size_of(ty.pointee))
        current = ty.pointee
        for idx_value in indices[1:]:
            if isinstance(current, ArrayType):
                add_index(idx_value, size_of(current.element))
                current = current.element
            elif isinstance(current, StructType):
                assert isinstance(idx_value, ConstantInt)
                const_offset += struct_field_offset(current, idx_value.value)
                current = current.fields[idx_value.value]
            else:
                return ("p", _raiser(VMError(f"gep into non-aggregate {current}")))

        c = const_offset
        if not self._fusable(base, *[d for d, _, _, _ in var_terms]):
            kind = "f"
        else:
            kind = "p"
        if not var_terms:
            if base[0] == "c":
                return ("c", (base[1] + c) & U64_MASK), None
            if base[0] == "s":
                bs = base[1]
                return ((kind, lambda frame: (frame[bs] + c) & U64_MASK),
                        (bs, (), c))
            bg = self._getter(base)
            return (kind, lambda frame: (bg(frame) + c) & U64_MASK), None
        if len(var_terms) == 1:
            (desc, scale, half, full) = var_terms[0]
            if base[0] == "s" and desc[0] == "s":
                bs, iv = base[1], desc[1]

                def compute(frame):
                    v = frame[iv]
                    if v >= half:
                        v -= full
                    return (frame[bs] + v * scale + c) & U64_MASK

                return (kind, compute), (bs, ((iv, scale, half, full),), c)
            bg = self._getter(base)
            ig = self._getter(desc)

            def compute(frame):
                v = ig(frame)
                if v >= half:
                    v -= full
                return (bg(frame) + v * scale + c) & U64_MASK

            return (kind, compute), None
        bg = self._getter(base)
        terms = [(self._getter(desc), scale, half, full)
                 for desc, scale, half, full in var_terms]

        def compute(frame):
            address = bg(frame) + c
            for ig, scale, half, full in terms:
                v = ig(frame)
                if v >= half:
                    v -= full
                address += v * scale
            return address & U64_MASK

        return (kind, compute), None

    # -- calls ---------------------------------------------------------
    def _compile_call(self, inst: Call, body: List[Callable]) -> None:
        vm = self.vm
        stats = self.stats
        dst = self.slots[inst] if inst.type.is_first_class() else None
        getters = [self._getter(self._operand(a)) for a in inst.args]
        callee = inst.callee

        if isinstance(callee, Function):
            fn = callee
            if fn.native:
                impl = vm.natives.get(fn.name)
                if impl is None:
                    # No implementation registered at compile time: go
                    # through call_function, which raises (or resolves a
                    # late registration) exactly like the tree-walker.
                    self._emit_raising(body, self._generic_call(
                        fn, getters, dst, inst.meta.get("mi_site"),
                        mi="mi" in inst.meta))
                    return
                site = inst.meta.get("mi_site")
                key = f"native:{fn.name}"
                cost = costs.call_cost(fn.name)
                oc = stats.opcode_counts
                rb = self._new_rb()
                if stats.profile and "mi" in inst.meta:
                    # Profiled instrumentation call: attribute its full
                    # cycle delta (static cost plus whatever the native
                    # charges internally), exactly like the
                    # tree-walker's per-instruction delta.  No
                    # attribution on a raise, also like the tree-walker.
                    def step(frame):
                        try:
                            args = [g(frame) for g in getters]
                            if site is not None:
                                args.append(site)
                            c0 = stats.cycles
                            stats.cycles += cost
                            stats.instructions += 1
                            oc[key] += 1
                            stats.calls += 1
                            result = impl(vm, args)
                            stats.instrumentation_cycles += stats.cycles - c0
                            if dst is not None:
                                frame[dst] = result
                        except BaseException:
                            _unroll(stats, oc, rb)
                            raise

                    body.append(step)
                    return
                if site is None:
                    if dst is None:
                        def step(frame):
                            try:
                                args = [g(frame) for g in getters]
                                stats.cycles += cost
                                stats.instructions += 1
                                oc[key] += 1
                                stats.calls += 1
                                impl(vm, args)
                            except BaseException:
                                _unroll(stats, oc, rb)
                                raise
                    else:
                        def step(frame):
                            try:
                                args = [g(frame) for g in getters]
                                stats.cycles += cost
                                stats.instructions += 1
                                oc[key] += 1
                                stats.calls += 1
                                frame[dst] = impl(vm, args)
                            except BaseException:
                                _unroll(stats, oc, rb)
                                raise
                else:
                    if dst is None:
                        def step(frame):
                            try:
                                args = [g(frame) for g in getters]
                                args.append(site)
                                stats.cycles += cost
                                stats.instructions += 1
                                oc[key] += 1
                                stats.calls += 1
                                impl(vm, args)
                            except BaseException:
                                _unroll(stats, oc, rb)
                                raise
                    else:
                        def step(frame):
                            try:
                                args = [g(frame) for g in getters]
                                args.append(site)
                                stats.cycles += cost
                                stats.instructions += 1
                                oc[key] += 1
                                stats.calls += 1
                                frame[dst] = impl(vm, args)
                            except BaseException:
                                _unroll(stats, oc, rb)
                                raise
                body.append(step)
                return
            # Direct call of a defined function or declaration: the
            # static "call" charge joins the batch (the tree-walker
            # charges it before dispatching into the callee).
            self._charge("call", costs.INSTRUCTION_COSTS["call"])
            call_function = vm.call_function
            if dst is None:
                def step(frame):
                    call_function(fn, [g(frame) for g in getters])
            else:
                def step(frame):
                    frame[dst] = call_function(fn, [g(frame) for g in getters])
            self._emit_raising(body, step)
            return

        # Indirect call: whether the "call" charge applies depends on
        # the runtime callee, so the closure charges for itself.
        cg = self._getter(self._operand(callee))
        site = inst.meta.get("mi_site")
        call_cost = costs.INSTRUCTION_COSTS["call"]
        functions_by_address = vm._functions_by_address
        call_function = vm.call_function
        charge = stats.charge

        def step(frame):
            address = cg(frame)
            fn = functions_by_address.get(address)
            if fn is None:
                raise MemoryFault(address, 0,
                                  "indirect call to non-function address")
            args = [g(frame) for g in getters]
            if fn.native:
                if site is not None:
                    args.append(site)
            else:
                charge("call", call_cost)
            result = call_function(fn, args)
            if dst is not None:
                frame[dst] = result

        self._emit_raising(body, step)

    def _generic_call(self, fn: Function, getters: List[Callable],
                      dst: Optional[int], site, mi: bool = False) -> Callable:
        call_function = self.vm.call_function
        stats = self.stats

        if mi and stats.profile:
            def step(frame):
                args = [g(frame) for g in getters]
                if site is not None:
                    args.append(site)
                c0 = stats.cycles
                result = call_function(fn, args)
                stats.instrumentation_cycles += stats.cycles - c0
                if dst is not None:
                    frame[dst] = result

            return step

        def step(frame):
            args = [g(frame) for g in getters]
            if site is not None:
                args.append(site)
            result = call_function(fn, args)
            if dst is not None:
                frame[dst] = result

        return step

    # -- leftover fused values ----------------------------------------
    def _materialize_pending(self, body: List[Callable]) -> None:
        """Values fused but not consumed in this block (their single
        use lives in a later block): write them to their slots."""
        for value, desc in self._pending.items():
            body.append(self._store_step(self.slots[value], desc))
        self._pending = {}

    # -- control flow --------------------------------------------------
    def _compile_terminator(self, block: BasicBlock,
                            inst: Optional[Instruction], edges) -> Callable:
        if isinstance(inst, Br):
            edge = edges[(block, inst.target)]

            def term(frame):
                return edge

            return term
        if isinstance(inst, CondBr):
            true_edge = edges[(block, inst.true_block)]
            false_edge = edges[(block, inst.false_block)]
            c = self._operand(inst.condition)
            if c[0] == "s":
                cs = c[1]

                def term(frame):
                    return true_edge if frame[cs] else false_edge
            else:
                cg = self._getter(c)

                def term(frame):
                    return true_edge if cg(frame) else false_edge
            return term
        if isinstance(inst, Ret):
            retcell = self.out.retcell
            value = inst.value
            if value is None:
                def term(frame):
                    retcell[0] = None
                    return None

                return term
            v = self._operand(value)
            if v[0] == "s":
                vs = v[1]

                def term(frame):
                    retcell[0] = frame[vs]
                    return None
            else:
                vg = self._getter(v)

                def term(frame):
                    retcell[0] = vg(frame)
                    return None
            return term
        # No terminator: the tree-walker runs off the end of the block
        # and raises without charging anything further.
        return _raiser(VMError(
            f"block {block.name} fell through without terminator"))

    # -- phi moves -----------------------------------------------------
    def _compile_moves(self, pred: Optional[BasicBlock],
                       succ: BasicBlock) -> Optional[Callable]:
        phis = succ.phis()
        if not phis:
            return None
        if pred is None:
            # Function entry into a block with phis: the tree-walker
            # skips resolution (no predecessor) and trips on dispatch.
            return _raiser(VMError(
                f"phi executed without predecessor: {phis[0]}"))
        descs = []
        dsts = []
        for phi in phis:
            try:
                incoming = phi.incoming_value_for(pred)
            except KeyError as exc:
                return _raiser(KeyError(*exc.args))
            descs.append(self._operand(incoming))
            dsts.append(self.slots[phi])
        if len(phis) == 1:
            d0 = dsts[0]
            if descs[0][0] == "s":
                s0 = descs[0][1]

                def moves(frame):
                    frame[d0] = frame[s0]
            elif descs[0][0] == "c":
                c0 = descs[0][1]

                def moves(frame):
                    frame[d0] = c0
            else:
                g0 = self._getter(descs[0])

                def moves(frame):
                    frame[d0] = g0(frame)
            return moves
        getters = [self._getter(d) for d in descs]
        if len(phis) == 2:
            g0, g1 = getters
            d0, d1 = dsts

            def moves(frame):
                # Parallel assignment: read both before writing either.
                v0 = g0(frame)
                v1 = g1(frame)
                frame[d0] = v0
                frame[d1] = v1

            return moves
        if len(phis) == 3:
            g0, g1, g2 = getters
            d0, d1, d2 = dsts

            def moves(frame):
                v0 = g0(frame)
                v1 = g1(frame)
                v2 = g2(frame)
                frame[d0] = v0
                frame[d1] = v1
                frame[d2] = v2

            return moves

        def moves(frame):
            # Parallel assignment: read every incoming value before
            # writing any phi slot.
            values = [g(frame) for g in getters]
            for d, v in zip(dsts, values):
                frame[d] = v

        return moves
