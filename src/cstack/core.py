"""Stack entries, the stack interface, and the plain in-memory stack.

Both stack implementations store the same entry type so an algorithm can be
pointed at either one without changes.  An entry carries, besides its payload,
its input position and, where the space-bounded stack may restart a replay
from it, a context copy: what that stack needs to rebuild dropped regions by
re-reading the input.
"""

from __future__ import annotations

from typing import Any, NamedTuple

# AccountingError lives beside the meter that raises it; importing it here
# keeps it reachable as cstack.core.AccountingError.
from .metrics import AccountingError, MemoryMeter


class StackError(Exception):
    """Base class for stack contract violations."""


class EmptyStackError(StackError):
    """Pop or top on a stack with no live entries."""


class ContractError(StackError):
    """Caller broke a documented precondition (index order, access depth)."""


class DeterminismError(StackError):
    """A replayed hook sequence diverged from the recorded run."""


class ParseError(ValueError):
    """An input line did not match the problem's format."""

    def __init__(self, line_no: int, line: str, reason: str):
        super().__init__(f"line {line_no}: {reason} in {line!r}")
        self.line_no = line_no


class Data(NamedTuple):
    """One stack entry.

    index       1-based position of the element in the input.
    payload     problem-specific value.
    ctx_snapshot  copy of the algorithm context taken after pre_push, on the
                entries that start a run of the compressed stack; None on
                every other entry, and on every entry of the plain stack.
    stream_pos  input cursor position right after this element's line was read.

    The snapshot fields let a dropped region be rebuilt later by rerunning the
    hooks from this element onward; only a run's bottom can become the bottom
    a replay restarts from.  A named tuple: immutable, cheap to build, and
    equal to any tuple with the same fields.
    """

    index: int
    payload: Any
    ctx_snapshot: Any
    stream_pos: int


class StackInterface:
    """LIFO contract shared by ClassicStack and CompressedStack.

    top(1) always equals the value the next pop returns.  pop_run pops one
    or more top entries at once, top first, as repeated pops would return
    them; the runner's report drain goes through it, so a stack that holds
    its top entries together can hand them over in one call.
    """

    def push(self, d: Data) -> None:
        raise NotImplementedError

    def pop(self) -> Data:
        raise NotImplementedError

    def pop_run(self) -> list[Data]:
        """Pop at least one entry, top first; EmptyStackError when empty."""
        return [self.pop()]

    def top(self, j: int) -> Data | None:
        """j-th entry from the top (top(1) is the top) without modification.

        None where the stack holds fewer than j entries; ContractError for
        j < 1.
        """
        raise NotImplementedError

    def len(self) -> int:
        raise NotImplementedError

    def dispose(self) -> None:
        """Release accounted storage and empty the stack, which then takes
        pushes as a new one does. Idempotent."""


class ClassicStack(StackInterface):
    """Growable-array stack holding every live entry explicitly."""

    __slots__ = ("entries", "meter")

    def __init__(self, meter: MemoryMeter | None = None):
        self.entries: list[Data] = []
        self.meter = meter if meter is not None else MemoryMeter()

    def push(self, d: Data) -> None:
        if self.entries and d.index <= self.entries[-1].index:
            raise ContractError(
                f"push index {d.index} not above current top {self.entries[-1].index}"
            )
        self.entries.append(d)
        self.meter.alloc_data()

    def pop(self) -> Data:
        if not self.entries:
            raise EmptyStackError("pop on empty stack")
        d = self.entries.pop()
        self.meter.free_data()
        return d

    def top(self, j: int) -> Data | None:
        if j < 1:
            raise ContractError(f"top depth must be positive, got {j}")
        entries = self.entries
        return entries[-j] if j <= len(entries) else None

    def len(self) -> int:
        return len(self.entries)

    def dispose(self) -> None:
        self.meter.free_data(len(self.entries))
        self.entries.clear()
