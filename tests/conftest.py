"""Helpers shared by the test modules."""

import gc
import tracemalloc
from contextlib import contextmanager


class TracedMemory:
    """Bytes the traced allocations hold relative to when tracing began."""

    def __init__(self):
        self.start = tracemalloc.get_traced_memory()[0]

    def held(self) -> int:
        """Bytes held now."""
        return tracemalloc.get_traced_memory()[0] - self.start

    def peak(self) -> int:
        """The most bytes held at once since tracing began or the last
        :meth:`reset_peak`."""
        return tracemalloc.get_traced_memory()[1] - self.start

    def reset_peak(self) -> None:
        tracemalloc.reset_peak()


@contextmanager
def traced_memory():
    """Trace Python allocations for the ``with`` body, which gets a
    :class:`TracedMemory` to read them; tracing stops on exit."""
    tracemalloc.start()
    try:
        yield TracedMemory()
    finally:
        tracemalloc.stop()


@contextmanager
def no_cyclic_garbage():
    """Run the ``with`` body with the cycle collector off, then check that
    reference counting alone freed what it made: ``gc.collect()`` finds no
    unreachable object, and the traced memory is back within 16 KiB of
    where it began (CPython's free lists and numpy's small-allocation
    caches keep 5-8 KiB after a gmcf train step). The body must drop what
    it made before it ends."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        with traced_memory() as mem:
            yield
            held = mem.held()
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found == 0, f"{found} objects were left for the cycle collector"
    assert held < 16384, f"{held} B were still held after the body"
