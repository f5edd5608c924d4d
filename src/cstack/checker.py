"""Lockstep checker: a compressed stack that runs a classic one beside it.

`TwinStack` is a `CompressedStack` that mirrors every operation onto its own
classic stack and raises `DivergenceError` at the first answer they disagree
on.  It declares what every compressed stack declares, so a Runner binds its
replays and snapshots and reads its k, meter and degraded flag (its layout
grew, under the same checks) as it does for any other.  `run_checked` runs
an algorithm over an input on a twin, which reads its groups once after
every push and pop to compare each resident copy with the classic stack.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from itertools import zip_longest

from .compressed import CompressedStack, Run
from .core import ClassicStack, Data
from .metrics import MemoryMeter
from .runner import LineSource, Runner, StackAlgorithm


class DivergenceError(AssertionError):
    """The two stacks disagreed; carries where and how."""

    def __init__(self, ordinal: int, what: str):
        super().__init__(f"divergence at operation {ordinal}: {what}")
        self.ordinal = ordinal
        self.what = what


def _key(d: Data | None) -> tuple | None:
    """What the two stacks must agree on about an entry: only the compressed
    stack keeps context snapshots, on the entries that start its runs."""
    return None if d is None else (d.index, d.payload, d.stream_pos)


class TwinStack(CompressedStack):
    """A compressed stack checked in lockstep against a classic one.

    Built like the compressed stack it is; every push/pop/top/len/dispose
    also goes to the classic stack, and the answers must agree; pop_run pops
    as many classic entries as it returns and matches each one.  With
    deep=True, after each push, pop and pop_run one walk over the groups
    checks that every signature bottom and every run, with the floor below
    it, are the classic entries at their place, in a row, and an emptied run
    slot's floor the classic top, which a push copies without probing top.
    Otherwise only the space cap is checked.
    """

    __slots__ = ("classic", "deep", "ordinal")

    def __init__(self, n_expect: int, p: int, k: int = 1, *,
                 meter: MemoryMeter | None = None, deep: bool = False):
        super().__init__(n_expect, p, k, meter=meter)
        self.classic = ClassicStack()
        self.deep = deep
        self.ordinal = 0

    def push(self, d: Data) -> None:
        self.ordinal += 1
        # compressed first: a floor copy that reads top is answered by classic without d
        super().push(d)
        self.classic.push(d)
        self.verify_now()

    def pop(self) -> Data:
        b = super().pop()
        self._match_pop(b)
        self.verify_now()
        return b

    def pop_run(self) -> list[Data]:
        run = super().pop_run()
        for b in run:
            self._match_pop(b)
        self.verify_now()
        return run

    def _match_pop(self, b: Data) -> None:
        """Pop the classic stack once; its entry must be b."""
        self.ordinal += 1
        a = self.classic.pop()
        if _key(a) != _key(b):
            raise DivergenceError(self.ordinal, f"pop returned {b!r}, classic has {a!r}")

    def top(self, j: int) -> Data | None:
        a = self.classic.top(j)
        b = super().top(j)
        if _key(a) != _key(b):
            raise DivergenceError(self.ordinal, f"top({j}) returned {b!r}, classic has {a!r}")
        return b

    def len(self) -> int:
        la = self.classic.len()
        lb = super().len()
        if la != lb:
            raise DivergenceError(self.ordinal, f"lengths differ: classic {la}, compressed {lb}")
        return lb

    def dispose(self) -> None:
        self.classic.dispose()
        super().dispose()

    def verify_now(self) -> None:
        if not self.deep:
            self.check_space_cap()
            return
        entries = self.classic.entries
        depth = max(self.k - 1, 0)
        index_of = operator.attrgetter("index")
        for group in self.lists:
            if type(group) is not Run:
                parts = [((sig.bottom,), sig.floor) for sig in group]
            else:
                parts = [(group, group.floor)] if group or group.floor else []
            for copies, floor in parts:
                i = bisect_left(entries, copies[0].index, key=index_of) if copies else len(entries)
                have = [*floor, *copies]
                want = entries[max(0, i - depth) : i + len(copies)]
                if list(map(_key, have)) != list(map(_key, want)):
                    d, w = next((d, w) for d, w in zip_longest(have, want) if _key(d) != _key(w))
                    index = (d or w).index
                    c = {e.index: e for e in entries}.get(index)
                    what = f": {d!r} != classic {c!r}" if c else " not live in classic stack"
                    raise DivergenceError(self.ordinal, f"resident entry index {index}{what}")
        self.check_invariants()


def run_checked(
    algo: StackAlgorithm, source: LineSource, p: int, *, n_expect: int
) -> tuple[bool, str | None]:
    """Run classic and compressed in lockstep with deep state comparison.

    The twin answers top-k probes to the algorithm's k.  Returns
    (True, None) when every check passed, else (False, detail) with the first
    divergence: operation ordinal, entry index, and both values.
    """
    twin = TwinStack(n_expect, p, algo.k, deep=True)
    try:
        Runner(algo, source, twin, collect_report=False).run()
    except DivergenceError as exc:
        return False, str(exc)
    return True, None
