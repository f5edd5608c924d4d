"""Space-bounded stack backed by a hierarchical block partition of the input.

The input positions 1..n are cut into blocks, each block into sub-blocks, and
so on for h levels; a level-1 block holds roughly n/p positions and the block
size shrinks by a factor p per level.  Only the two most recent level-1 blocks
keep any detail (`first`, the push target, and `second`, its predecessor);
older blocks survive as one signature each in `tail`.  Inside a component,
finished sub-blocks are likewise collapsed to signatures, so at most one
explicit run of entries exists per component plus O(p) signatures per level.

A signature records the index range of its surviving entries, the full bottom
entry (payload plus restart snapshot), and a small floor buffer: copies of the
k entries that sat directly below the bottom when it was pushed.  When a pop
or a deep top() probe needs entries that were folded away, the signature is
expanded again by replaying the algorithm's own hooks over the signature's
input range, seeded from the bottom's snapshot; the floor buffer answers any
top-k probes that reach below the replayed range.  Replays may nest: the
replay runs on another, smaller instance of this same structure, so resident
memory stays bounded even while rebuilding a large block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import (
    ContractError,
    Data,
    DeterminismError,
    EmptyStackError,
    StackError,
    StackInterface,
)
from .metrics import MemoryMeter


@dataclass(frozen=True, slots=True)
class PartitionGeometry:
    """Block layout for one structure: level sizes and the covered origin.

    sizes[i] is the number of input positions per level-(i+1) block; level-1
    blocks tile the input starting at `origin`, and each deeper level tiles
    the inside of its parent block, so a boundary at level i is by
    construction also a boundary at every level below i.  `last_expected` is
    the absolute index the layout was sized for; pushes beyond it still work
    (the level-1 tiling just continues) but mark the run as degraded.
    """

    last_expected: int
    p: int
    sizes: tuple[int, ...]
    origin: int = 1

    @property
    def h(self) -> int:
        return len(self.sizes)

    @classmethod
    def for_input(cls, n_expect: int, p: int) -> "PartitionGeometry":
        if p < 2:
            raise ContractError(f"space parameter p must be at least 2, got {p}")
        if n_expect < 1:
            raise ContractError(f"expected input size must be positive, got {n_expect}")
        exp = 0
        v = 1
        while v < n_expect:
            v *= p
            exp += 1
        h = max(1, exp - 1)
        # Power-of-p extents: a level-i block spans p^(h-i+1) positions, so the
        # deepest level always holds up to p explicit entries and block count
        # per parent never exceeds p.  The expected size only picks h.
        sizes = tuple(p ** (h - i) for i in range(h))
        return cls(n_expect, p, sizes, 1)

    def cross_level(self, u: int, v: int) -> int | None:
        """Shallowest level whose block differs between indices u and v."""
        ru = u - self.origin
        rv = v - self.origin
        for lvl, s in enumerate(self.sizes, 1):
            if ru // s != rv // s:
                return lvl
            ru %= s
            rv %= s
        return None

    def block_start(self, idx: int, level: int) -> int:
        """First index of the level-`level` block containing idx."""
        rem = idx - self.origin
        start = self.origin
        for s in self.sizes[:level]:
            start += rem // s * s
            rem %= s
        return start

    def sub_geometry(self, level: int, start: int) -> "PartitionGeometry":
        """Layout for the inside of one level-`level` block starting at `start`."""
        rest = self.sizes[level:]
        if not rest:
            rest = (self.sizes[-1],)
        return PartitionGeometry(
            last_expected=start + self.sizes[level - 1] - 1,
            p=self.p,
            sizes=rest,
            origin=start,
        )


@dataclass(frozen=True, slots=True)
class BlockSignature:
    """O(1) summary of a folded block: surviving range, bottom entry, floor.

    `floor` holds copies of up to k entries directly below `bottom`; they are
    readable during a replay of this block but never poppable.  The block's
    level is where the signature sits: level 1 in a stack's `tail`, level lv
    in a component's finished[lv-2].
    """

    first_index: int
    last_index: int
    bottom: Data
    floor: tuple[Data, ...]


class Component:
    """Detailed representation of one level-1 block (or sub-block in replays).

    Stack order, bottom to top: finished[2] signatures, finished[3], ...,
    finished[h], then the explicit entries of the deepest active block.
    finished[lv] (stored at finished lists index lv-2) are the signatures of
    finished level-lv blocks inside the currently active level-(lv-1) block.
    """

    __slots__ = ("ref_index", "finished", "explicit", "explicit_floor")

    def __init__(self, ref_index: int, h: int):
        self.ref_index = ref_index
        self.finished: list[list[BlockSignature]] = [[] for _ in range(max(0, h - 1))]
        self.explicit: list[Data] = []
        self.explicit_floor: tuple[Data, ...] = ()

    def has_survivors(self) -> bool:
        return bool(self.explicit) or any(self.finished)

    def deepest_nonempty_level(self) -> int | None:
        for i in range(len(self.finished) - 1, -1, -1):
            if self.finished[i]:
                return i + 2
        return None


class CompressedStack(StackInterface):
    """Stack with bounded resident storage and replay-based recovery.

    `replay` is a callable (scratch_stack, bottom_entry, last_index) -> None
    that re-runs the owning algorithm's hook loop over one block's input
    range, pushing into the scratch stack; the runner binds it.  `floor` and
    `guard_index` are only set on the scratch instances built for replays.
    """

    __slots__ = (
        "geom",
        "k",
        "meter",
        "replay",
        "floor",
        "guard_index",
        "first",
        "second",
        "tail",
        "buffer",
        "live",
        "degraded",
        "_max_index",
        "_disposed",
    )

    def __init__(
        self,
        n_expect: int | None = None,
        p: int | None = None,
        k: int = 1,
        *,
        meter: MemoryMeter | None = None,
        replay: Callable | None = None,
        geometry: PartitionGeometry | None = None,
        floor: tuple[Data, ...] = (),
        guard_index: int | None = None,
    ):
        if geometry is None:
            geometry = PartitionGeometry.for_input(n_expect, p)
        if k < 0:
            raise ContractError(f"access depth k must be non-negative, got {k}")
        self.geom = geometry
        self.k = k
        self.meter = meter if meter is not None else MemoryMeter()
        self.replay = replay
        self.floor = tuple(floor)
        self.guard_index = guard_index
        self.first: Component | None = None
        self.second: Component | None = None
        self.tail: list[BlockSignature] = []
        self.buffer: list[Data] = []
        self.live = 0
        self.degraded = False
        self._max_index = geometry.origin - 1
        self._disposed = False
        self.meter.alloc_slot(self.k)

    # -- accounting helpers -------------------------------------------------

    # Unlike the classic stack's value array, every entry copy resident here
    # is held through a pointer slot (explicit runs, signature bottoms and
    # floors), so each one costs a slot on top of the data record.  push and
    # pop make these two meter calls inline.
    def _free_entries(self, count: int = 1) -> None:
        self.meter.free_data(count)
        self.meter.free_slot(count)

    # -- public stack interface -------------------------------------------

    def len(self) -> int:
        return self.live

    def push(self, d: Data) -> None:
        index = d.index
        if index <= self._max_index:
            raise ContractError(
                f"push index {index} not above last pushed {self._max_index}"
            )
        self._max_index = index
        g = self.geom
        if index > g.last_expected:
            self.degraded = True
        comp = self.first
        if comp is None:
            comp = self.first = Component(index, g.h)
        else:
            # Block sizes form a divisibility chain, so two indices in the
            # same deepest block share their block at every level.
            s = g.sizes[-1]
            if (index - g.origin) // s != (comp.ref_index - g.origin) // s:
                cross = g.cross_level(comp.ref_index, index)
                if cross == 1:
                    sig = self._collapse(self.second, 2)
                    if sig is not None:
                        self.tail.append(sig)
                    self.second = comp
                    comp = self.first = Component(index, g.h)
                else:
                    sig = self._collapse(comp, cross + 1)
                    if sig is not None:
                        comp.finished[cross - 2].append(sig)
            comp.ref_index = index
        meter = self.meter
        if not comp.explicit:
            comp.explicit_floor = self._floor_window()
            n = len(comp.explicit_floor)
            meter.alloc_data(n)
            meter.alloc_slot(n)
        comp.explicit.append(d)
        meter.alloc_data()
        meter.alloc_slot()
        if self.k:
            buffer = self.buffer
            if len(buffer) == self.k:
                del buffer[0]
            buffer.append(d)
        self.live += 1

    def pop(self) -> Data:
        if self.live == 0:
            if self.floor:
                raise DeterminismError(
                    "replay tried to pop below its reconstructed range"
                )
            raise EmptyStackError("pop on empty stack")
        if self.guard_index is not None and self.live == 1:
            raise DeterminismError(
                f"replay tried to pop its range bottom (index {self.guard_index})"
            )
        comp = self._top_run()
        d = comp.explicit.pop()
        meter = self.meter
        meter.free_data()
        meter.free_slot()
        if not comp.explicit:
            n = len(comp.explicit_floor)
            meter.free_data(n)
            meter.free_slot(n)
            comp.explicit_floor = ()
        self.live -= 1
        if self.buffer:
            self.buffer.pop()
        return d

    def top(self, j: int) -> Data | None:
        buffer = self.buffer
        if 0 < j <= len(buffer):
            return buffer[-j]
        if j < 1 or j > self.k:
            raise ContractError(f"top({j}) outside declared access depth k={self.k}")
        if j > self.live:
            deficit = j - self.live
            if deficit <= len(self.floor):
                return self.floor[-deficit]
            return None
        vals = self._peek_top(j)
        self.buffer = list(reversed(vals))
        return self.buffer[-j]

    def dispose(self) -> None:
        if self._disposed:
            return
        self._disposed = True
        for comp in (self.first, self.second):
            if comp is None:
                continue
            self._free_entries(len(comp.explicit) + len(comp.explicit_floor))
            comp.explicit = []
            comp.explicit_floor = ()
            for lst in comp.finished:
                for sig in lst:
                    self._free_sig(sig)
                lst.clear()
        for sig in self.tail:
            self._free_sig(sig)
        self.tail = []
        self.buffer = []
        self.meter.free_slot(self.k)
        self.first = None
        self.second = None
        self.live = 0

    # -- folding ------------------------------------------------------------

    def _collapse(self, comp: Component | None, from_level: int) -> BlockSignature | None:
        """Fold finished[from_level..h] plus explicit into one signature.

        The signature summarizes the finished level-(from_level - 1) block.
        Returns None when there is nothing to fold.  Frees every record the
        fold drops; the bottom constituent's bottom/floor records move into
        the new signature unchanged.
        """
        if comp is None:
            return None
        lists = comp.finished[from_level - 2 :]
        bottom_sig: BlockSignature | None = None
        for lst in lists:
            if lst:
                bottom_sig = lst[0]
                break
        if bottom_sig is None and not comp.explicit:
            return None
        if comp.explicit:
            last_index = comp.explicit[-1].index
        else:
            for lst in reversed(lists):
                if lst:
                    last_index = lst[-1].last_index
                    break
        if bottom_sig is not None:
            bottom = bottom_sig.bottom
            floor = bottom_sig.floor
            first_index = bottom_sig.first_index
            dropped_explicit = len(comp.explicit)
            dropped_floor = len(comp.explicit_floor)
        else:
            bottom = comp.explicit[0]
            floor = comp.explicit_floor
            first_index = bottom.index
            dropped_explicit = len(comp.explicit) - 1
            dropped_floor = 0
        for lst in lists:
            for sig in lst:
                if sig is bottom_sig:
                    self.meter.free_sig()
                else:
                    self._free_sig(sig)
            lst.clear()
        if dropped_explicit or dropped_floor:
            self._free_entries(dropped_explicit + dropped_floor)
        comp.explicit = []
        comp.explicit_floor = ()
        self.meter.alloc_sig()
        return BlockSignature(first_index, last_index, bottom, floor)

    def _free_sig(self, sig: BlockSignature) -> None:
        self.meter.free_sig()
        self._free_entries(1 + len(sig.floor))

    def _floor_window(self) -> tuple[Data, ...]:
        """Up to k entries directly below the next push, bottom to top."""
        if self.k == 0:
            return ()
        win = list(self.buffer)
        if len(win) < self.k and len(win) == self.live and self.floor:
            deficit = self.k - len(win)
            win = list(self.floor[-deficit:]) + win
        return tuple(win[-self.k :])

    # -- reconstruction -------------------------------------------------------

    def _top_run(self) -> Component:
        """The component holding the top entry, with its explicit run rebuilt.

        An empty run means the top sits in the newest signature of the
        deepest non-empty level, which is replayed into place.
        """
        if self.first is not None and self.first.has_survivors():
            comp = self.first
        elif self.second is not None and self.second.has_survivors():
            comp = self.second
        else:
            sig = self.tail.pop()
            comp = self.second = Component(sig.last_index, self.geom.h)
            self._expand_into(comp, sig, 1)
        if not comp.explicit:
            lv = comp.deepest_nonempty_level()
            self._expand_into(comp, comp.finished[lv - 2].pop(), lv)
        return comp

    def _expand_into(self, comp: Component, sig: BlockSignature, lv: int) -> None:
        """Rebuild sig, the signature of a level-lv block, in detail inside comp.

        The replay runs on a scratch stack restricted to the signature's
        block, where level i is level lv + i here; the scratch's lists then
        move into comp below level lv.  The scratch is released whether or
        not the replay succeeds; on failure sig goes back where it was popped
        from, so the stack stays whole and a retry fails the same way.
        """
        if self.replay is None:
            raise StackError("no replay delegate bound; cannot reconstruct")
        assert not comp.explicit and all(not l for l in comp.finished[lv - 1 :])
        scratch = CompressedStack(
            geometry=self.geom.sub_geometry(lv, self.geom.block_start(sig.first_index, lv)),
            k=self.k,
            meter=self.meter,
            replay=self.replay,
            floor=sig.floor,
            guard_index=sig.first_index,
        )
        self.meter.reconstructions += 1
        try:
            self.replay(scratch, sig.bottom, sig.last_index)
            if scratch.second is not None and scratch.second.has_survivors():
                scratch.tail.append(scratch._collapse(scratch.second, 2))
            inner = scratch.first
            if lv == self.geom.h and scratch.tail:
                raise StackError("level-h replay produced sub-block signatures")
            if not inner.explicit:
                raise StackError(
                    f"replay of block [{sig.first_index}..{sig.last_index}] left no top entry"
                )
        except BaseException:
            (self.tail if lv == 1 else comp.finished[lv - 2]).append(sig)
            raise
        else:
            if lv < self.geom.h:
                comp.finished[lv - 1] = scratch.tail
                comp.finished[lv:] = inner.finished
            comp.explicit = inner.explicit
            comp.explicit_floor = inner.explicit_floor
            comp.ref_index = sig.last_index
            scratch.tail = []
            scratch.first = scratch.second = None
            self._free_sig(sig)
        finally:
            scratch.dispose()

    def _peek_top(self, j: int) -> list[Data]:
        """Top j entries, top first, materializing detail as needed."""
        comp = self._top_run()
        out: list[Data] = []
        for d in reversed(comp.explicit):
            out.append(d)
            if len(out) == j:
                return out
        for d in reversed(comp.explicit_floor):
            out.append(d)
            if len(out) == j:
                return out
        raise StackError(
            f"top({j}) not answerable: floor captured only "
            f"{len(comp.explicit_floor)} entries (algorithm probed deeper than it pushed)"
        )

    # -- introspection (checker and tests) ---------------------------------

    def iter_resident(self):
        """Yield (kind, data) for every resident entry copy, bottom to top."""
        for sig in self.tail:
            yield from self._iter_sig(sig)
        for comp in (self.second, self.first):
            if comp is None:
                continue
            for lst in comp.finished:
                for sig in lst:
                    yield from self._iter_sig(sig)
            for d in comp.explicit_floor:
                yield "floor", d
            for d in comp.explicit:
                yield "explicit", d
        for d in self.buffer:
            yield "buffer", d

    @staticmethod
    def _iter_sig(sig: BlockSignature):
        for d in sig.floor:
            yield "floor", d
        yield "bottom", sig.bottom

    def resident_data_count(self) -> int:
        """Entry copies held by the buffer and the two detailed components.

        Tail signatures are left out: the tail is capped separately, by
        tail_within_cap.
        """
        n = len(self.buffer)
        for comp in (self.first, self.second):
            if comp is None:
                continue
            n += len(comp.explicit) + len(comp.explicit_floor)
            for lst in comp.finished:
                for sig in lst:
                    n += 1 + len(sig.floor)
        return n

    def resident_data_bound(self) -> int:
        h = self.geom.h
        p = self.geom.p
        k = self.k
        bh = self.geom.sizes[-1]
        return 2 * (bh + (h - 1) * (p - 1) * (k + 1) + (k + 1)) + k

    def tail_within_cap(self) -> bool:
        if self._max_index > self.geom.last_expected:
            return True
        return len(self.tail) <= max(0, self.geom.p - 2)

    def check_space_cap(self) -> None:
        """Assert the resident-entry cap and the tail cap; O(signature count)."""
        count = self.resident_data_count()
        bound = self.resident_data_bound()
        if count > bound:
            raise AssertionError(f"resident entry count {count} exceeds cap {bound}")
        if not self.tail_within_cap():
            raise AssertionError(
                f"tail holds {len(self.tail)} signatures, cap is {self.geom.p - 2}"
            )

    def check_invariants(self) -> None:
        """Assert the structural invariants; used by tests and the checker."""
        self.check_space_cap()
        prev = self.geom.origin - 1
        for sig in self.tail:
            assert prev < sig.first_index <= sig.last_index
            prev = sig.last_index
        for comp in (self.second, self.first):
            if comp is None or not comp.has_survivors():
                continue
            for lst in comp.finished:
                for sig in lst:
                    assert prev < sig.first_index <= sig.last_index
                    prev = sig.last_index
            for d in comp.explicit:
                assert prev < d.index
                prev = d.index
        if self.buffer:
            assert len(self.buffer) <= max(self.k, 0)
