"""Allocations that do not fit in the simulated address space return
NULL on every mechanism and engine, as C's allocators do.

A request past the end of the heap segment used to "succeed": the bump
cursor moved beyond 2^64, the next small block aliased the first one,
and SoftBound reported a violation on a valid store."""

import pytest

from repro.driver import compile_program, run_program
from repro.experiments.common import config_for
from repro.vm.engines import ENGINES
from repro.vm.memory import HEAP_BASE, STACK_LIMIT, Memory, StandardAllocator

#: Each program makes one request that cannot be met, then uses a
#: valid 16-byte block; it prints whether the request returned NULL
#: and the value stored through the valid block.
PROGRAMS = {
    "malloc": r"""
int main() {
    char *p = (char *) malloc((long) -1);
    int *q = (int *) malloc(16);
    q[0] = 7;
    print_i64((long) (p == NULL));
    print_i64((long) q[0]);
    free(q);
    return 0;
}""",
    # count * size overflows size_t: 2^62 * 8 = 2^65.
    "calloc": r"""
int main() {
    long count = 4611686018427387904;
    char *p = (char *) calloc(count, 8);
    int *q = (int *) calloc(4, 4);
    q[0] = 7;
    print_i64((long) (p == NULL));
    print_i64((long) q[0]);
    free(q);
    return 0;
}""",
    # A failed realloc leaves the old block valid and untouched.
    "realloc": r"""
int main() {
    int *q = (int *) malloc(16);
    q[0] = 7;
    int *r = (int *) realloc(q, (long) -1);
    print_i64((long) (r == NULL));
    print_i64((long) q[0]);
    free(q);
    return 0;
}""",
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("label", ["baseline", "softbound", "lowfat"])
@pytest.mark.parametrize("entry", sorted(PROGRAMS))
def test_oversized_request_returns_null(entry, label, engine):
    config = config_for(label)
    source = PROGRAMS[entry]
    program = (compile_program(source, config) if config is not None
               else compile_program(source))
    result = run_program(program, engine=engine)
    assert result.ok, result.describe()
    assert result.output == ["1", "7"]
    # Only the block that was really handed out is counted.
    stats = result.stats
    if label == "lowfat":
        assert (stats.lowfat_allocs, stats.lowfat_fallback_allocs) == (1, 0)
        assert stats.heap_allocs == 0
    else:
        assert stats.heap_allocs == 1
    assert stats.heap_frees == 1


def test_standard_allocator_refuses_what_does_not_fit():
    heap = StandardAllocator(Memory())
    assert heap.malloc(STACK_LIMIT - HEAP_BASE + 1) is None
    assert heap.malloc((1 << 64) - 1) is None
    # The cursor did not move: the next block starts the heap.
    assert heap.malloc(16).base == HEAP_BASE
