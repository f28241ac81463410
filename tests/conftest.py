"""Helpers shared by the test modules."""

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
