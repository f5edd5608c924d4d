"""Structure-level byte accounting, run metrics, and the p-schedule resolver.

Memory is measured by counting records the stack structures hold, at a
fixed byte cost per record kind, instead of profiling the heap.  That keeps
runs at full speed and isolates the stack's footprint from unrelated
allocations; the price is that allocator overhead is not represented.  One
run per case is enough because the accounting does not perturb timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Idealized per-record costs in bytes, applied uniformly to both stack kinds.
# A data record is an index, a stream position, a context reference and a
# payload slot; a signature additionally owns its bottom/floor data records,
# which are accounted separately as data.  A slot is the pointer through
# which the compressed stack holds each resident entry copy.
DATA_BYTES = 48
SIG_BYTES = 64
SLOT_BYTES = 8
# An entry copy held through a slot: its data record plus the slot.
ENTRY_BYTES = DATA_BYTES + SLOT_BYTES


class AccountingError(Exception):
    """Byte accounting went negative; a free was not matched by an alloc."""


class MemoryMeter:
    """Tracks live/peak bytes plus replay counters for one run's structures.

    One meter is shared by a stack and every scratch structure its replays
    spawn, so reconstruction memory and nested reconstruction counts all land
    in the same place.  `promotions` counts held blocks made active again
    once the active block of their level emptied: `second`, the held
    level-1 block, and a held run take no replay, and a held signature list
    replays only its newest sub-block.  `max_replay_depth` is the deepest
    nesting of replays, `replay_depth` the current one.  Both change only
    when a block is restored, never per element.

    An entry copy that the compressed stack holds through a pointer slot is
    one meter call, `alloc_entry` or `free_entry`, which counts its data
    record and its slot together, `ENTRY_BYTES`; the classic stack's
    entries take `alloc_data` and `free_data`.
    """

    __slots__ = (
        "live_bytes",
        "peak_bytes",
        "live_data",
        "peak_data",
        "replay_lines",
        "reconstructions",
        "promotions",
        "replay_depth",
        "max_replay_depth",
    )

    def __init__(self):
        self.live_bytes = 0
        self.peak_bytes = 0
        self.live_data = 0
        self.peak_data = 0
        self.replay_lines = 0
        self.reconstructions = 0
        self.promotions = 0
        self.replay_depth = 0
        self.max_replay_depth = 0

    # Each method does its own arithmetic: they run on every push and pop.
    def alloc_data(self, count: int = 1) -> None:
        live = self.live_bytes = self.live_bytes + DATA_BYTES * count
        if live > self.peak_bytes:
            self.peak_bytes = live
        live = self.live_data = self.live_data + count
        if live > self.peak_data:
            self.peak_data = live

    def free_data(self, count: int = 1) -> None:
        self.live_bytes -= DATA_BYTES * count
        self.live_data -= count
        if self.live_bytes < 0 or self.live_data < 0:
            raise AccountingError(f"live counts went negative freeing {count} data records")

    def alloc_sig(self, count: int = 1) -> None:
        live = self.live_bytes = self.live_bytes + SIG_BYTES * count
        if live > self.peak_bytes:
            self.peak_bytes = live

    def free_sig(self, count: int = 1) -> None:
        self.live_bytes -= SIG_BYTES * count
        if self.live_bytes < 0:
            raise AccountingError(f"live bytes went negative freeing {count} signatures")

    def alloc_slot(self, count: int = 1) -> None:
        live = self.live_bytes = self.live_bytes + SLOT_BYTES * count
        if live > self.peak_bytes:
            self.peak_bytes = live

    def free_slot(self, count: int = 1) -> None:
        self.live_bytes -= SLOT_BYTES * count
        if self.live_bytes < 0:
            raise AccountingError(f"live bytes went negative freeing {count} slots")

    def alloc_entry(self, count: int = 1) -> None:
        live = self.live_bytes = self.live_bytes + ENTRY_BYTES * count
        if live > self.peak_bytes:
            self.peak_bytes = live
        live = self.live_data = self.live_data + count
        if live > self.peak_data:
            self.peak_data = live

    def free_entry(self, count: int = 1) -> None:
        self.live_bytes -= ENTRY_BYTES * count
        self.live_data -= count
        if self.live_bytes < 0 or self.live_data < 0:
            raise AccountingError(f"live counts went negative freeing {count} entries")


@dataclass
class RunMetrics:
    """Outcome of one run: timing, memory, and operation counts.

    `replay_lines` counts input lines re-read by replays; `peak_entries` is
    the most entry records resident at once (`MemoryMeter.peak_data`);
    `promotions` and `max_replay_depth` are the meter's counters of the same
    names.  `resident_bound` is the stack's `resident_data_bound()`, the cap
    on the entry copies its two detailed regions hold, or None for a stack
    that declares none.  `degraded_estimate`: the stack's layout grew.
    """

    wall_seconds: float = 0.0
    peak_bytes: int = 0
    reconstructions: int = 0
    pushes: int = 0
    pops: int = 0
    degraded_estimate: bool = False
    final_len: int = 0
    replay_lines: int = 0
    peak_entries: int = 0
    promotions: int = 0
    max_replay_depth: int = 0
    resident_bound: int | None = None


_ROOTS = {"sqrt": 2, "root4": 4, "root8": 8}
SCHEDULES = ("10", "50", "100", "500", *_ROOTS, "log")


def resolve_p(schedule: str | int, n: int) -> int:
    """Resolve a symbolic space parameter for input size n, clamped to [2, n].

    Fixed schedules ("10", "50", "100", "500" or any integer) return their
    constant, and one below 2 is an error; "sqrt", "root4", "root8" take the
    matching root of n; "log" takes the base-2 logarithm.  Roots and logs
    are rounded to nearest.
    """
    if n < 2:
        raise ValueError(f"input size must be at least 2, got {n}")
    s = str(schedule)
    if s in _ROOTS:
        p = round(n ** (1 / _ROOTS[s]))
    elif s == "log":
        p = round(math.log2(n))
    else:
        try:
            p = int(s)
        except ValueError:
            raise ValueError(f"unknown p schedule: {schedule!r}") from None
        if p < 2:
            raise ValueError(f"space parameter p must be at least 2, got {p}")
    return max(2, min(p, n))
