"""Tests for loop-invariant code motion."""

from repro.frontend import compile_source
from repro.ir import BinOp, Call, Load, verify_module
from repro.opt import GVN, LICM, Mem2Reg, SimplifyCFG
from repro.vm import VirtualMachine
from repro.analysis import LoopInfo
from repro.driver import NOOP, CompileOptions, compile_and_run
from repro.vm.engines import ENGINES


def prepare(src):
    mod = compile_source(src)
    SimplifyCFG().run(mod)
    Mem2Reg().run(mod)
    return mod


def run(mod, max_instructions=1_000_000):
    vm = VirtualMachine(mod, max_instructions=max_instructions)
    return vm.run(), vm.output


def _in_loop(mod, name, predicate):
    """Instructions matching ``predicate`` inside any loop of fn."""
    fn = mod.get_function(name)
    li = LoopInfo(fn)
    found = []
    for loop in li.all_loops():
        for block in loop.blocks:
            for inst in block.instructions:
                if predicate(inst):
                    found.append(inst)
    return found


class TestHoisting:
    def test_invariant_arithmetic_hoisted(self):
        src = r"""
        long f(long a, long b) {
            long s = 0;
            for (int i = 0; i < 10; i++) s += a * b;
            return s;
        }
        int main() { print_i64(f(6, 7)); return 0; }"""
        mod = prepare(src)
        before = run(prepare(src))
        LICM().run(mod)
        verify_module(mod)
        muls = _in_loop(mod, "f", lambda i: isinstance(i, BinOp) and i.opcode == "mul")
        assert not muls
        assert run(mod) == before == (0, ["420"])

    def test_load_hoisted_from_pure_loop(self):
        # do-while: the body dominates the exit, so the load is
        # guaranteed to execute and may be hoisted.
        src = r"""
        int g = 13;
        long f(int n) {
            long s = 0;
            int i = 0;
            do { s += g; i++; } while (i < n);
            return s;
        }
        int main() { print_i64(f(10)); return 0; }"""
        mod = prepare(src)
        LICM().run(mod)
        verify_module(mod)
        loads = _in_loop(mod, "f", lambda i: isinstance(i, Load))
        assert not loads
        assert run(mod) == (0, ["130"])

    def test_conditional_load_not_hoisted(self):
        # for-loop: the body does not dominate the exit (n could be 0),
        # so the load stays put.
        src = r"""
        int g = 13;
        long f(int n) {
            long s = 0;
            for (int i = 0; i < n; i++) s += g;
            return s;
        }
        int main() { print_i64(f(10)); return 0; }"""
        mod = prepare(src)
        LICM().run(mod)
        verify_module(mod)
        loads = _in_loop(mod, "f", lambda i: isinstance(i, Load))
        assert loads
        assert run(mod) == (0, ["130"])

    def test_load_not_hoisted_when_loop_stores(self):
        src = r"""
        int g = 13; int h;
        long f(int n) {
            long s = 0;
            for (int i = 0; i < n; i++) { h = i; s += g; }
            return s;
        }
        int main() { print_i64(f(10)); return 0; }"""
        mod = prepare(src)
        LICM().run(mod)
        loads = _in_loop(mod, "f", lambda i: isinstance(i, Load))
        assert loads  # may-alias store blocks hoisting

    def test_load_not_hoisted_past_may_abort_call(self):
        """The Section 5.5 mechanism: a possibly-aborting check in the
        loop pins loads inside it."""
        from repro.ir import FunctionType, VOID, I64

        src = r"""
        int g = 13;
        void check(long x);
        long f(int n) {
            long s = 0;
            for (int i = 0; i < n; i++) { check(s); s += g; }
            return s;
        }"""
        mod = prepare(src)
        check = mod.get_function("check")
        check.attributes.update({"mi_check", "may_abort"})
        check.native = True
        LICM().run(mod)
        loads = _in_loop(mod, "f", lambda i: isinstance(i, Load))
        assert loads

    def test_division_needs_guaranteed_execution(self):
        # division in a conditional path must not be hoisted (may trap)
        src = r"""
        long f(long a, long b, int n) {
            long s = 0;
            for (int i = 0; i < n; i++) {
                if (i > 100) s += a / b;   // never executes for n<=100
            }
            return s;
        }
        int main() { long z = 0; print_i64(f(1, z, 10)); return 0; }"""
        mod = prepare(src)
        LICM().run(mod)
        verify_module(mod)
        assert run(mod) == (0, ["0"])  # no spurious division-by-zero

    def test_trapping_cast_needs_guaranteed_execution(self):
        # fptosi of inf traps; the guard keeps it from ever executing,
        # so LICM must not speculate it into the preheader.
        sources = {
            "a.c": r"""
            long f(double x, int n) {
                long s = 0; int i;
                for (i = 0; i < n; i++) { if (x < 100.0) s = s + (long)x; }
                return s;
            }""",
            "b.c": r"""
            long f(double x, int n);
            int main() {
                double *p = (double *)malloc(16); double z = 0.0;
                p[0] = 1.0 / z; p[1] = 3.0;
                print_i64(f(p[0], 4)); print_i64(f(p[1], 4));
                return 0;
            }""",
        }
        for engine in ENGINES:
            for opt_level, lto in ((0, False), (3, False), (3, True)):
                result = compile_and_run(
                    sources, NOOP,
                    CompileOptions(opt_level=opt_level,
                                   link_time_optimization=lto),
                    engine=engine)
                assert result.ok, (engine, opt_level, lto, result.describe())
                assert result.output == ["0", "12"], (engine, opt_level, lto)

    def test_readnone_call_hoisted(self):
        src = r"""
        long f(long a, int n) {
            long s = 0;
            for (int i = 0; i < n; i++) s += llabs(a);
            return s;
        }
        int main() { print_i64(f(-3, 5)); return 0; }"""
        mod = prepare(src)
        LICM().run(mod)
        verify_module(mod)
        calls = _in_loop(mod, "f", lambda i: isinstance(i, Call))
        assert not calls
        assert run(mod) == (0, ["15"])

    def test_preheader_created_and_phis_fixed(self):
        src = r"""
        long f(int n, int start) {
            long s = start;
            int i = 0;
            while (i < n) { s += i; i++; }
            return s;
        }
        int main() { print_i64(f(5, 100)); return 0; }"""
        mod = prepare(src)
        before = run(prepare(src))
        LICM().run(mod)
        verify_module(mod)
        assert run(mod) == before == (0, ["110"])
