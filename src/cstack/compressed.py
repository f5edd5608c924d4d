"""Space-bounded stack backed by a hierarchical block partition of the input.

The input positions 1..n are cut into blocks, each block into sub-blocks, and
so on for h levels; a level-1 block holds roughly n/p positions and the block
size shrinks by a factor p per level.  Every level keeps two blocks in some
detail: the block being pushed to and the one before it, as Barba et al.'s
compressed stack does.  At level 1 these are `first`, the push target, and
`second`, its predecessor; older blocks survive as one signature each in
`tail`.  Inside a component, finished sub-blocks are collapsed to signatures,
except that the previous block at every middle level 2..h-1 is held as the
list of its own sub-block signatures, and the previous block at the deepest
level keeps its run explicit.  A held list or previous run is folded into one
signature only when a third block of its level starts, or when its component
is demoted to `second`.  So a pop that empties a block finds its predecessor
one level finer instead of replaying all of it.

A signature records the index range and number of its surviving entries, the
full bottom entry (payload plus restart snapshot), and a small floor buffer:
copies of the k-1 entries that sat directly below the bottom when it was
pushed.  When a pop or a deep top() probe needs entries that were folded
away, the signature is expanded again by replaying the algorithm's own hooks
over the signature's input range, seeded from the bottom's snapshot; the
floor answers any top-k probe that reaches below the replayed range, which
always holds at least the bottom itself.  A signature whose only survivor is
its bottom is restored without a replay.  Replays may nest: the replay runs
on another, smaller instance of this same structure, so resident memory stays
bounded even while rebuilding a large block.
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
    """O(1) summary of a folded block: surviving range and count, bottom, floor.

    `count` is the number of entries of the block still live when it was
    folded; a replay that rebuilds a different number has diverged.  `floor`
    holds copies of up to k-1 entries directly below `bottom`; they are
    readable during a replay of this block but never poppable.  The block's
    level is where the signature sits: level 1 in a stack's `tail`, level lv
    in a component's finished[lv-2].
    """

    first_index: int
    last_index: int
    count: int
    bottom: Data
    floor: tuple[Data, ...]


class Component:
    """Detailed representation of one level-1 block (or sub-block in replays).

    Stack order, bottom to top: finished[2] signatures, held[2], finished[3],
    held[3], ..., held[h-1], finished[h], then the previous run, then the
    explicit run.  finished[lv] (stored at finished index lv-2) are the
    signatures of finished level-lv blocks inside the active level-(lv-1)
    block.  held[c] (stored at held index c-2, for the middle levels
    2..h-1) is the most recent finished level-c block of that same parent,
    kept as the signatures of its level-(c+1) sub-blocks, so at most p of
    them.  The explicit run holds the survivors of the deepest block last
    pushed to; the previous run holds those of an earlier deepest block of
    the same level-(h-1) block, which is the deepest level's held block.
    Each run carries its own floor.  With h = 1 the deepest blocks are
    level-1 blocks, whose pair is the stack's `first` and `second`, so
    `previous` stays empty.
    """

    __slots__ = (
        "ref_index", "finished", "held", "previous", "previous_floor", "explicit",
        "explicit_floor",
    )

    def __init__(self, ref_index: int, h: int):
        self.ref_index = ref_index
        self.finished: list[list[BlockSignature]] = [[] for _ in range(max(0, h - 1))]
        self.held: list[list[BlockSignature]] = [[] for _ in range(max(0, h - 2))]
        self.previous: list[Data] = []
        self.previous_floor: tuple[Data, ...] = ()
        self.explicit: list[Data] = []
        self.explicit_floor: tuple[Data, ...] = ()

    def has_survivors(self) -> bool:
        # A drain calls this on every pop once `first` is empty; below h = 3
        # `held` is an empty list, so testing it before any() costs nothing.
        return bool(
            self.explicit or self.previous or any(self.finished) or self.held and any(self.held)
        )

    def runs(self) -> tuple[tuple[list[Data], tuple[Data, ...]], ...]:
        """(entries, floor) of the previous and the explicit run, bottom to top."""
        return (self.previous, self.previous_floor), (self.explicit, self.explicit_floor)

    def clear_runs(self) -> None:
        self.previous = []
        self.previous_floor = ()
        self.explicit = []
        self.explicit_floor = ()


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
        # Block sizes form a divisibility chain, so two indices in the same
        # deepest block share their block at every level.
        s = g.sizes[-1]
        if (
            comp is None
            or not comp.explicit
            or (index - g.origin) // s != (comp.ref_index - g.origin) // s
        ):
            comp = self._start_run(index)
        else:
            comp.ref_index = index
        comp.explicit.append(d)
        meter = self.meter
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
            raise EmptyStackError("pop on empty stack")
        if self.guard_index is not None and self.live == 1:
            raise DeterminismError(
                f"replay tried to pop its range bottom (index {self.guard_index})"
            )
        comp = self.first
        if comp is None or not comp.explicit:
            comp = self._top_run()
        d = comp.explicit.pop()
        meter = self.meter
        meter.free_data()
        meter.free_slot()
        if not comp.explicit:
            n = len(comp.explicit_floor)
            if n:
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
        sigs, entries = self._counts(self._walk())
        self.meter.free_sig(sigs)
        self._free_entries(entries)
        self.tail = []
        self.buffer = []
        self.meter.free_slot(self.k)
        self.first = None
        self.second = None
        self.live = 0

    # -- folding ------------------------------------------------------------

    def _start_run(self, index: int) -> Component:
        """Fold what a push at index finishes; return the component whose
        explicit run, now empty and with its floor captured, takes the push.

        Crossing into a new level-1 block folds the old `second` into the
        tail and demotes `first` to `second`, folding each of its held lists
        into one signature.  Crossing a boundary at level c > 1 keeps the
        finished level-c block as the held block of its level, which
        displaces (and folds) the one held before: as a list of signatures
        at a middle level, as the previous run at the deepest level.
        """
        g = self.geom
        comp = self.first
        if comp is None:
            comp = self.first = Component(index, g.h)
        else:
            depth = min(self.k - 1, self.live)
            if len(self.buffer) < depth:
                # The new run's floor is copied from the buffer, which pops
                # may have drained.  Refilling it can replay into comp, so
                # it comes before any fold.
                self.buffer = list(reversed(self._peek_top(depth)))
            cross = g.cross_level(comp.ref_index, index)
            if cross == 1:
                sig = self._collapse(self.second, 1) if self.second is not None else None
                if sig is not None:
                    self.tail.append(sig)
                for finished, held in zip(comp.finished, comp.held):
                    if held:
                        finished.append(self._merge(held))
                        held.clear()
                self.second = comp
                comp = self.first = Component(index, g.h)
            elif cross == g.h:
                if comp.explicit:
                    if comp.previous:
                        comp.finished[-1].append(
                            self._merge((), [(comp.previous, comp.previous_floor)])
                        )
                    comp.previous = comp.explicit
                    comp.previous_floor = comp.explicit_floor
                    comp.explicit = []
                    comp.explicit_floor = ()
            elif cross is not None:
                sigs = self._split(comp, cross)
                if sigs:
                    held = comp.held[cross - 2]
                    if held:
                        comp.finished[cross - 2].append(self._merge(held))
                    comp.held[cross - 2] = sigs
            comp.ref_index = index
        # A refill that rebuilt comp's explicit run left the top entry there,
        # in a deepest block before index's, so the crossing moved it away.
        assert not comp.explicit
        floor = comp.explicit_floor = self._floor_window()
        if floor:
            self.meter.alloc_data(len(floor))
            self.meter.alloc_slot(len(floor))
        return comp

    def _split(self, comp: Component, c: int) -> list[BlockSignature]:
        """Signatures of the level-(c+1) sub-blocks of comp's active level-c
        block, bottom to top, for 1 <= c < h.  Nothing below level c stays
        in comp: a held list or run inside the block folds into one of them.
        """
        if c == len(comp.finished):
            # c = h-1: the sub-blocks are level-h blocks, the runs among them
            sigs = comp.finished[-1]
            sigs += [self._merge((), [run]) for run in comp.runs() if run[0]]
            comp.clear_runs()
        else:
            sigs = comp.finished[c - 1]
            if comp.held[c - 1]:
                sigs.append(self._merge(comp.held[c - 1]))
                comp.held[c - 1] = []
            active = self._collapse(comp, c + 1)
            if active is not None:
                sigs.append(active)
        comp.finished[c - 1] = []
        return sigs

    def _collapse(self, comp: Component, c: int) -> BlockSignature | None:
        """Fold everything below level c in comp, its active level-c block,
        into one signature; None when nothing survives there."""
        sigs: list[BlockSignature] = []
        for i in range(c - 1, len(comp.finished)):
            sigs += comp.finished[i]
            comp.finished[i] = []
            if i < len(comp.held):
                sigs += comp.held[i]
                comp.held[i] = []
        runs = [run for run in comp.runs() if run[0]]
        comp.clear_runs()
        return self._merge(sigs, runs)

    def _merge(self, sigs, runs=()) -> BlockSignature | None:
        """One signature for sigs then runs, the surviving parts of one block
        in stack order; None when there are none.

        Frees every record the fold drops before allocating the signature;
        the bottom part's bottom and floor records move into it unchanged.
        """
        if not sigs and not runs:
            return None
        dropped = sum(len(run) + len(floor) for run, floor in runs)
        if sigs:
            first_index = sigs[0].first_index
            bottom = sigs[0].bottom
            floor = sigs[0].floor
            self.meter.free_sig()
            for sig in sigs[1:]:
                self._free_sig(sig)
        else:
            run, floor = runs[0]
            bottom = run[0]
            first_index = bottom.index
            dropped -= 1 + len(floor)
        last_index = runs[-1][0][-1].index if runs else sigs[-1].last_index
        count = sum(sig.count for sig in sigs) + sum(len(run) for run, _ in runs)
        if dropped:
            self._free_entries(dropped)
        self.meter.alloc_sig()
        return BlockSignature(first_index, last_index, count, bottom, floor)

    def _free_sig(self, sig: BlockSignature) -> None:
        self.meter.free_sig()
        self._free_entries(1 + len(sig.floor))

    def _floor_window(self) -> tuple[Data, ...]:
        """Up to k-1 entries directly below the next push, bottom to top.

        A floor is read only below at least one entry of its own run, so
        k-1 entries answer every top-k probe.
        """
        depth = self.k - 1
        if depth <= 0:
            return ()
        win = self.buffer[-depth:]
        if len(win) < depth:
            # _start_run refilled the buffer, so it holds every live entry;
            # on a replay's scratch stack the entries below are its floor.
            win = list(self.floor[len(win) - depth :]) + win
        return tuple(win)

    # -- reconstruction -------------------------------------------------------

    def _top_run(self) -> Component:
        """The component holding the top entry, with its explicit run rebuilt.

        An empty explicit run means the top sits in the previous run, which
        is promoted without a replay, or else in the newest signature of the
        first non-empty list on a walk down the stack.  A held list met on
        that walk is promoted first: the active block of its level is empty,
        so the held block becomes the active one, and only its newest
        sub-block is expanded.
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
            if comp.previous:
                comp.explicit = comp.previous
                comp.explicit_floor = comp.previous_floor
                comp.previous = []
                comp.previous_floor = ()
                comp.ref_index = comp.explicit[-1].index
                self.meter.promotions += 1
            else:
                finished, held = comp.finished, comp.held
                # finished[i] holds level i+2, above held[i-1] (level i+1)
                for i in range(len(finished) - 1, -1, -1):
                    if not finished[i] and i and held[i - 1]:
                        finished[i], held[i - 1] = held[i - 1], []
                        self.meter.promotions += 1
                    if finished[i]:
                        self._expand_into(comp, finished[i].pop(), i + 2)
                        break
        return comp

    def _expand_into(self, comp: Component, sig: BlockSignature, lv: int) -> None:
        """Rebuild sig, the signature of a level-lv block, in detail inside comp.

        A block whose only survivor is its bottom needs no replay: the
        bottom and its floor become comp's explicit run.  Otherwise the
        replay runs on a scratch stack restricted to the signature's block,
        where level i is level lv + i here, and must rebuild exactly the
        signature's survivors, ending on its top entry; the scratch's lists
        and runs then move into comp below level lv, its `second` as the
        held block of level lv+1.  The scratch is released whether or not
        the replay succeeds; on failure sig goes back where it was popped
        from, so the stack stays whole and a retry fails the same way.  Both
        paths count as one reconstruction.
        """
        assert not comp.explicit and not comp.previous
        assert not any(comp.finished[lv - 1 :]) and not any(comp.held[max(lv - 2, 0) :])
        meter = self.meter
        meter.reconstructions += 1
        if sig.first_index == sig.last_index:
            meter.free_sig()
            comp.explicit = [sig.bottom]
            comp.explicit_floor = sig.floor
            comp.ref_index = sig.last_index
            return
        g = self.geom
        scratch = CompressedStack(
            geometry=g.sub_geometry(lv, g.block_start(sig.first_index, lv)),
            k=self.k,
            meter=meter,
            replay=self.replay,
            floor=sig.floor,
            guard_index=sig.first_index,
        )
        meter.replay_depth += 1
        if meter.replay_depth > meter.max_replay_depth:
            meter.max_replay_depth = meter.replay_depth
        try:
            if self.replay is None:
                raise StackError("no replay delegate bound; cannot reconstruct")
            self.replay(scratch, sig.bottom, sig.last_index)
            top = scratch.first.explicit
            if scratch.live != sig.count or not top or top[-1].index != sig.last_index:
                raise DeterminismError(
                    f"replay of level-{lv} block [{sig.first_index}..{sig.last_index}] "
                    f"rebuilt {scratch.live} entries, not the {sig.count} the run left, "
                    f"or did not end on index {sig.last_index}"
                )
            second = scratch.second
            if second is not None and not second.has_survivors():
                second = None
            if lv == g.h and second is not None:
                raise StackError("level-h replay produced sub-block signatures")
        except BaseException:
            (self.tail if lv == 1 else comp.finished[lv - 2]).append(sig)
            raise
        else:
            inner = scratch.first
            previous, previous_floor = inner.previous, inner.previous_floor
            held: list[BlockSignature] = []
            if second is not None:
                if scratch.geom.h == 1:
                    # The scratch's level-1 blocks are level-h blocks here,
                    # so its second component is the previous run.
                    previous, previous_floor = second.explicit, second.explicit_floor
                else:
                    held = scratch._split(second, 1)
            if lv < g.h:
                comp.finished[lv - 1] = scratch.tail
                comp.finished[lv:] = inner.finished
            if lv < g.h - 1:
                comp.held[lv - 1] = held
                comp.held[lv:] = inner.held
            comp.previous = previous
            comp.previous_floor = previous_floor
            comp.explicit = inner.explicit
            comp.explicit_floor = inner.explicit_floor
            comp.ref_index = sig.last_index
            scratch.tail = []
            scratch.first = scratch.second = None
            self._free_sig(sig)
        finally:
            meter.replay_depth -= 1
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

    def _walk(self):
        """Every signature list and run below the buffer, bottom to top.

        Yields ("sigs", signatures, c), c the level of the held block the
        list splits or 0, and ("run", entries, floor).  The tail comes first.
        """
        yield "sigs", self.tail, 0
        for comp in (self.second, self.first):
            if comp is None:
                continue
            for i, sigs in enumerate(comp.finished):
                yield "sigs", sigs, 0
                if i < len(comp.held):
                    yield "sigs", comp.held[i], i + 2
            for run, floor in comp.runs():
                yield "run", run, floor

    @staticmethod
    def _counts(walk) -> tuple[int, int]:
        """(signatures, entry copies) in the walked lists and runs."""
        sigs = entries = 0
        for kind, items, extra in walk:
            if kind == "run":
                entries += len(items) + len(extra)
            else:
                sigs += len(items)
                entries += sum(1 + len(sig.floor) for sig in items)
        return sigs, entries

    def iter_resident(self):
        """Yield (kind, data) for every resident entry copy, bottom to top."""
        for kind, items, extra in self._walk():
            if kind == "run":
                for d in extra:
                    yield "floor", d
                for d in items:
                    yield "explicit", d
                continue
            for sig in items:
                for d in sig.floor:
                    yield "floor", d
                yield "bottom", sig.bottom
        for d in self.buffer:
            yield "buffer", d

    def resident_data_count(self) -> int:
        """Entry copies held by the buffer and the two detailed components.

        Tail signatures are left out: the tail is capped separately, by
        tail_within_cap.
        """
        walk = self._walk()
        next(walk)  # the tail
        return len(self.buffer) + self._counts(walk)[1]

    def resident_data_bound(self) -> int:
        """Cap on resident_data_count().

        With f = k-1 floor entries per run or signature, each of the two
        components holds:
        - two runs (previous and explicit; only one at h = 1, where
          `previous` stays empty) of at most one deepest block, p entries,
          plus a floor of f apiece;
        - at most p-1 finished signatures on each of levels 2..h, each a
          bottom plus f floor entries;
        - a held list on each of the h-2 middle levels 2..h-1, at most p
          signatures of 1+f entries each.
        The buffer adds k.
        """
        g = self.geom
        floor = max(self.k - 1, 0)
        runs = 2 if g.h > 1 else 1
        sigs = (g.h - 1) * (g.p - 1) + max(g.h - 2, 0) * g.p
        return 2 * (runs * (g.sizes[-1] + floor) + sigs * (1 + floor)) + self.k

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
        g = self.geom
        floor_cap = max(self.k - 1, 0)
        prev = g.origin - 1
        survivors = 0
        for kind, items, extra in self._walk():
            if kind == "run":
                assert len(extra) <= floor_cap
                if items:
                    assert g.block_start(items[0].index, g.h) == g.block_start(items[-1].index, g.h)
                for d in items:
                    assert prev < d.index
                    prev = d.index
                survivors += len(items)
                continue
            if extra and items:
                # a held level-c block: at most p sub-blocks, all inside it
                assert len(items) <= g.p
                assert g.block_start(items[0].first_index, extra) == g.block_start(
                    items[-1].last_index, extra
                )
            for sig in items:
                assert prev < sig.first_index <= sig.last_index
                assert len(sig.floor) <= floor_cap
                prev = sig.last_index
                survivors += sig.count
        assert survivors == self.live, f"signatures and runs hold {survivors}, live is {self.live}"
        if self.buffer:
            assert len(self.buffer) <= max(self.k, 0)
