"""Stack entries, the stack interface, and the plain in-memory stack.

Both stack implementations store the same entry type so an algorithm can be
pointed at either one without changes.  An entry carries, besides its payload,
the restart snapshot (context copy and input position) that the space-bounded
stack needs to rebuild dropped regions by re-reading the input.
"""

from __future__ import annotations

from typing import Any, NamedTuple


class StackError(Exception):
    """Base class for stack contract violations."""


class EmptyStackError(StackError):
    """Pop or top on a stack with no live entries."""


class ContractError(StackError):
    """Caller broke a documented precondition (index order, access depth)."""


class DeterminismError(StackError):
    """A replayed hook sequence diverged from the recorded run."""


class AccountingError(Exception):
    """Byte accounting went negative; a free was not matched by an alloc."""


class Data(NamedTuple):
    """One stack entry.

    index       1-based position of the element in the input.
    payload     problem-specific value.
    ctx_snapshot  copy of the algorithm context taken just before the push.
    stream_pos  input cursor position right after this element's line was read.

    The snapshot fields let a dropped region be rebuilt later by rerunning the
    hooks from this element onward; they ride along unused in the plain stack
    so the two implementations stay interchangeable.  A named tuple: immutable,
    cheap to build, and equal to any tuple with the same fields.
    """

    index: int
    payload: Any
    ctx_snapshot: Any
    stream_pos: int


class StackInterface:
    """LIFO contract shared by ClassicStack and CompressedStack.

    top(1) always equals the value the next pop returns.
    """

    def push(self, d: Data) -> None:
        raise NotImplementedError

    def pop(self) -> Data:
        raise NotImplementedError

    def top(self, j: int) -> Data | None:
        """j-th entry from the top (top(1) is the top) without modification."""
        raise NotImplementedError

    def len(self) -> int:
        raise NotImplementedError

    def probe_depth(self) -> int:
        """How deep top() can answer. Equals len() except during replay."""
        return self.len()

    def dispose(self) -> None:
        """Release accounted storage. Idempotent."""


class ClassicStack(StackInterface):
    """Growable-array stack holding every live entry explicitly."""

    __slots__ = ("entries", "meter", "_disposed")

    def __init__(self, meter=None):
        self.entries: list[Data] = []
        self.meter = meter
        self._disposed = False

    def push(self, d: Data) -> None:
        if self.entries and d.index <= self.entries[-1].index:
            raise ContractError(
                f"push index {d.index} not above current top {self.entries[-1].index}"
            )
        self.entries.append(d)
        if self.meter is not None:
            self.meter.alloc_data()

    def pop(self) -> Data:
        if not self.entries:
            raise EmptyStackError("pop on empty stack")
        d = self.entries.pop()
        if self.meter is not None:
            self.meter.free_data()
        return d

    def top(self, j: int) -> Data:
        if j < 1:
            raise ContractError(f"top depth must be positive, got {j}")
        if j > len(self.entries):
            raise ContractError(f"top({j}) on stack of {len(self.entries)} entries")
        return self.entries[-j]

    def len(self) -> int:
        return len(self.entries)

    def probe_depth(self) -> int:
        return len(self.entries)

    def dispose(self) -> None:
        if self._disposed:
            return
        self._disposed = True
        if self.meter is not None:
            self.meter.free_data(len(self.entries))
        self.entries.clear()
