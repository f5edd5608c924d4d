"""Space-bounded stack backed by a hierarchical block partition of the input.

The input positions 1..n are cut into blocks, each block into sub-blocks, and
so on for h levels; a level-1 block holds roughly n/p positions and the block
size shrinks by a factor p per level.  Every level keeps two blocks in some
detail, the newest with survivors and the one before it, as Barba et al.'s
compressed stack does.  At level 1 these are `first` and `second`, and
older blocks survive as one signature each in the tail: three regions of
one list of groups.  Inside `first` and `second`, every deeper level c
keeps its finished blocks as one signature each, except the previous one,
which is held as its parts: the signatures of its level-(c+1) sub-blocks,
or at the deepest level its surviving entries, the previous run.  A held
block is folded into one signature when a third block of its level starts;
`first` also folds those of its middle levels when it becomes `second`.
So a pop that empties a block promotes its predecessor one level finer
instead of replaying all of it, and at level 1 `second` moves up.

A signature records the index range and number of its surviving entries, the
full bottom entry (payload plus restart snapshot), and a floor: copies of
the k-1 entries that sat directly below the bottom when it was pushed.  Runs
keep floors too, so the explicit run and its floor answer top-k probes; a
pop that empties the run leaves the floor, now the top k-1 entries, in the
run slot until the next pop.  When a pop or a deeper probe needs entries
that were folded away, the signature is expanded again by replaying the
algorithm's own hooks over the signature's input range, seeded from the
bottom's snapshot; the floor answers any top-k probe that reaches below the
replayed range, which always holds at least the bottom itself.  A signature
whose survivors are all resident is restored without a replay: its bottom,
and the others from the floor of an emptied run slot, the top k-1 entries
then.  Replays may nest: the replay runs on another, smaller instance of
this same structure, so resident memory stays bounded even while rebuilding
a large block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .core import (
    AccountingError,
    ContractError,
    Data,
    DeterminismError,
    EmptyStackError,
    ParseError,
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
    the last index the layout covers: the end of its p-th level-1 block, or
    of its one block in a replay's layout of one deepest block.
    """

    last_expected: int
    sizes: tuple[int, ...]
    origin: int = 1

    @property
    def h(self) -> int:
        return len(self.sizes)

    @property
    def p(self) -> int:
        """The space parameter, which is also the deepest block size."""
        return self.sizes[-1]

    @classmethod
    def for_input(cls, n_expect: int, p: int) -> "PartitionGeometry":
        for name, value in (("n_expect", n_expect), ("p", p)):
            if value is None:
                raise ContractError(f"{name} is required when no geometry is given")
        if p < 2:
            raise ContractError(f"space parameter p must be at least 2, got {p}")
        if n_expect < 1:
            raise ContractError(f"expected input size must be positive, got {n_expect}")
        # Power-of-p extents: a deepest block holds up to p explicit entries,
        # and a parent at most p blocks.  The expected size only picks h.
        g = cls(p * p, (p,))
        while g.last_expected < n_expect:
            g = g.grown()
        return g

    def grown(self) -> "PartitionGeometry":
        """The layout one level deeper whose first level-1 block is this one."""
        s = self.p * self.sizes[0]
        return PartitionGeometry(self.origin - 1 + self.p * s, (s, *self.sizes), self.origin)

    def cross_level(self, u: int, v: int) -> int | None:
        """Shallowest level whose block differs between indices u and v.

        Each size divides the one above it, so two indices in one block at
        some level share their block at every level above.
        """
        ru = u - self.origin
        rv = v - self.origin
        for lvl, s in enumerate(self.sizes, 1):
            if ru // s != rv // s:
                return lvl
        return None

    def block_start(self, idx: int, level: int) -> int:
        """First index of the level-`level` block containing idx."""
        s = self.sizes[level - 1]
        return self.origin + (idx - self.origin) // s * s

    def sub_geometry(self, level: int, start: int) -> "PartitionGeometry":
        """Layout for the inside of one level-`level` block starting at `start`."""
        # a level-h block is one block of its own deepest size
        rest = self.sizes[level:] or self.sizes[-1:]
        return PartitionGeometry(start + self.sizes[level - 1] - 1, rest, start)



class BlockSignature(NamedTuple):
    """O(1) summary of a folded block: surviving range and count, bottom, floor.

    The survivors span bottom.index..last_index, and `count` is their number
    at the fold; a replay that rebuilds a different number has diverged.
    `floor` holds copies of up to k-1 entries directly below `bottom`; they
    are readable during a replay of this block but never poppable.  The
    block's level is where the signature sits: level 1 in the tail, level lv
    in a region's done[lv] or among the parts of its held[lv-1].  A named
    tuple, as `Data` is; `_merge` builds it with `tuple.__new__`.
    """

    last_index: int
    count: int
    bottom: Data
    floor: tuple[Data, ...]


class Run(list):
    """Survivors of one deepest block, bottom to top, and their floor.

    `floor` holds copies of up to k-1 entries directly below the run's
    bottom.  The class adds no __init__, so a run costs what a list costs to
    build; one that never captured a floor reads the empty default.
    """

    floor: tuple[Data, ...] = ()


def _groups(n: int) -> list[list]:
    """n empty groups, the last one a run: a region from some group up."""
    return [[] for _ in range(n - 1)] + [Run()]


class CompressedStack(StackInterface):
    """Stack with bounded resident storage and replay-based recovery.

    `lists` holds every resident group in stack order: the tail of
    older level-1 signatures, then the w = 2h-1 groups of `second`'s region,
    then the w of `first`'s, so a region starts at base 1 or w+1.  A region
    is one level-1 block: done[2], held[2], ..., done[h], held[h], then the
    explicit run, so done[c] sits at base+2c-4 and held[c] at base+2c-3.
    done[c] holds the signatures of finished level-c blocks inside the
    active level-(c-1) block.  held[c] is the newest finished level-c block
    of that same parent, kept as its parts: at most p signatures of its
    level-(c+1) sub-blocks, or for c = h a run of its entries, the previous
    run.  The parts of the group at base+j are at level (j+1)//2 + 2,
    entries counting as level h+1.  `second`'s region is held[1], the
    previous level-1 block.  `first`'s explicit run, the last group, is the
    run slot: pushes go there, and it holds the top entry; with h = 1 it is
    the region's only group.  `_run_end` is the last index of the run slot's
    deepest block, and starts below the origin so that the first push
    crosses a level-1 boundary.  Most run starts cross a level-h boundary
    only: the run moves into held[h] whole, folding just what held[h] held.
    `geom` grows a level when a push goes beyond it; `dispose` restores the
    layout the stack was built with.

    Unlike the classic stack's value array, every entry copy resident here
    (explicit runs, signature bottoms and floors) is held through a pointer
    slot, so the meter counts each one as an entry, a data record plus its
    slot, with one `alloc_entry` or `free_entry` call.

    The stack declares `replay` and `snapshot`, and a Runner binds both.
    `replay` is a callable (scratch_stack, bottom_entry, last_index) -> None
    that re-runs the owning algorithm's hook loop over one block's input
    range, pushing into the scratch stack; each Runner built on the stack
    binds its own, so a disposed stack replays its new runner's input.
    `snapshot` is a callable () -> context copy that `push` calls for an
    entry that starts a run: only run bottoms become signature bottoms, the
    entries a replay restarts from.  The runner binds it for each hook loop;
    where it is unset, an entry keeps the snapshot it came with.  `floor`
    and `guard_index` are only set on the scratch instances built for
    replays.
    """

    __slots__ = (
        "geom",
        "_built",
        "k",
        "meter",
        "replay",
        "snapshot",
        "floor",
        "guard_index",
        "_run_end",
        "lists",
        "live",
        "_max_index",
    )

    def __init__(
        self,
        n_expect: int | None = None,
        p: int | None = None,
        k: int = 1,
        *,
        meter: MemoryMeter | None = None,
        geometry: PartitionGeometry | None = None,
    ):
        if geometry is None:
            geometry = PartitionGeometry.for_input(n_expect, p)
        if k < 0:
            raise ContractError(f"access depth k must be non-negative, got {k}")
        self._built = geometry
        self.k = k
        self.meter = meter if meter is not None else MemoryMeter()
        self.replay: Callable | None = None
        self.snapshot: Callable | None = None
        self.floor: tuple[Data, ...] = ()
        self.guard_index: int | None = None
        self._reset()

    def _reset(self) -> None:
        """Empty the stack on the layout it was built with, for the next push."""
        self.geom = self._built
        w = 2 * self.geom.h - 1
        self._set_ref(self.geom.origin - 1)
        self.lists: list[list] = [[]] + _groups(w) + _groups(w)
        self.live = 0
        self._max_index = self.geom.origin - 1

    @property
    def degraded(self) -> bool:
        """Whether a push beyond the layout the stack was built with grew it."""
        return self.geom is not self._built

    def _set_ref(self, index: int) -> None:
        """Point the run slot at the deepest block holding index: set _run_end."""
        p = self.geom.sizes[-1]
        self._run_end = index + p - 1 - (index - self.geom.origin) % p

    # -- public stack interface -------------------------------------------

    def len(self) -> int:
        return self.live

    def push(self, d: Data) -> None:
        index = d.index
        if index <= self._max_index:
            raise ContractError(
                f"push index {index} not above last pushed {self._max_index}"
            )
        # Block sizes form a divisibility chain, so an index above the last
        # pushed one that is at most _run_end shares the run's block at
        # every level.
        if not (run := self.lists[-1]) or index > self._run_end:
            run = self._start_run(index)
            if self.snapshot is not None:
                d = Data(index, d.payload, self.snapshot(), d.stream_pos)
        # Only now: a push whose run start failed can be retried.
        self._max_index = index
        run.append(d)
        self.meter.alloc_entry()
        self.live += 1

    def pop(self) -> Data:
        if self.live == 0:
            raise EmptyStackError("pop on empty stack")
        if self.guard_index is not None and self.live == 1:
            raise DeterminismError(
                f"replay tried to pop its range bottom (index {self.guard_index})"
            )
        if not (run := self.lists[-1]):
            run = self._top_run()
        d = run.pop()
        self.meter.free_entry()
        self.live -= 1
        return d

    def pop_run(self) -> list[Data]:
        """Pop the run slot's entries, top first, with one meter call.  `pop`
        takes an empty stack and a replay's scratch, whose range bottom it guards."""
        if self.live == 0 or self.guard_index is not None:
            return [self.pop()]
        if not (run := self.lists[-1]):
            run = self._top_run()
        out = run[::-1]
        run.clear()
        self.meter.free_entry(len(out))
        self.live -= len(out)
        return out

    def top(self, j: int) -> Data | None:
        if j < 1 or j > self.k:
            raise ContractError(f"top({j}) outside declared access depth k={self.k}")
        run = self.lists[-1]
        if j <= len(run):  # the common probe, first: hull asks top(2) per point
            return run[-j]
        if j > len(run) + len(run.floor):
            if j > self.live:
                deficit = j - self.live
                return self.floor[-deficit] if deficit <= len(self.floor) else None
            run = self._top_run()
        if j <= len(run):
            return run[-j]
        deficit = j - len(run)
        if deficit <= len(run.floor):
            return run.floor[-deficit]
        raise StackError(
            f"top({j}) not answerable: floor captured only "
            f"{len(run.floor)} entries (algorithm probed deeper than it pushed)"
        )

    def dispose(self) -> None:
        sigs, entries = self._counts(self.lists)[:2]
        try:
            self.meter.free_sig(sigs)
            self.meter.free_entry(entries)
        finally:
            self._reset()

    # -- folding ------------------------------------------------------------

    def _start_run(self, index: int) -> Run:
        """Fold what a push at index finishes; return the run, now empty and
        with its floor captured, that takes the push.

        Crossing into a new level-1 block folds `second`'s region into one
        tail signature and makes `first`'s region `second`'s, folding the
        held block of each of its middle levels into one signature; its
        previous run stays.  An index beyond the layout first grows it a
        level at a time, each time making the whole layout the first block
        of a new level 1.  Crossing a boundary at level c > 1 keeps the
        finished level-c block, if anything of it survives, as held[c],
        which displaces (and folds) the block held there before.
        """
        # Before any fold: copying the floor can replay into `first`, and a
        # crossing would move or drop an emptied run slot with its floor.
        floor = self._floor_window()
        lists = self.lists
        w = len(lists) // 2  # groups per region
        cross = self.geom.cross_level(self._run_end, index)
        if cross == 1:
            while index > self.geom.last_expected:
                lists[:] = [[]] + _groups(w + 2) + self._as_parts()
                self.geom = self.geom.grown()
                w += 2
            self._merge(lists[1 : w + 1], lists[0])
            for i in range(w + 2, len(lists) - 2, 2):
                self._merge([lists[i]], lists[i - 1])
                lists[i] = []
            lists[1:] = lists[w + 1 :] + _groups(w)
        elif cross is not None:
            parts = self._split(w + 1, cross)
            if parts:
                i = w + 2 * cross - 2  # held[cross] of `first`
                if lists[i]:
                    self._merge([lists[i]], lists[i - 1])
                lists[i] = parts
        self._set_ref(index)
        run = lists[-1]
        # A floor copy that rebuilt the run left it in a deepest block before
        # index's, so the crossing moved it away.
        assert not run
        # The slot's floor is already () whenever floor is, so an empty one
        # is not written (that would build the run's instance dict): a
        # crossing leaves a fresh slot, and _floor_window returns, emptied,
        # any non-empty floor the slot held.
        if floor:
            run.floor = floor
            self.meter.alloc_entry(len(floor))
        return run

    def _split(self, base: int, c: int) -> list:
        """The level-(c+1) parts of the active level-c block of the region
        at base, bottom to top, for 1 <= c <= h: at c = h its run, otherwise
        done[c+1], then held[c+1] and everything above it folded into one
        signature each.  Nothing of the block stays in the region.
        """
        lists = self.lists
        end = base + len(lists) // 2
        i = base + 2 * c - 2
        parts = lists[i]
        if i < end - 1:
            for groups in (lists[i + 1 : i + 2], lists[i + 2 : end]):
                self._merge(groups, parts)
            lists[i:end] = _groups(end - i)
        else:  # c = h: the run alone
            lists[i] = Run()
        return parts

    def _as_parts(self) -> list:
        """The groups as one block's parts a level up, from its done[2]: the
        tail, `second` split by level-2 block as held[2], then `first`'s."""
        return [self.lists[0], self._split(1, 1)] + self.lists[len(self.lists) // 2 + 1 :]

    @staticmethod
    def _counts(groups) -> tuple[int, int, int]:
        """(signatures, entry copies, survivors) in groups."""
        sigs = entries = count = 0
        for group in groups:
            if type(group) is Run:
                count += len(group)
                entries += len(group) + len(group.floor)
            else:
                sigs += len(group)
                for sig in group:
                    count += sig.count
                    entries += 1 + len(sig.floor)
        return sigs, entries, count

    def _merge(self, groups, into: list) -> None:
        """Append to `into` one signature for the parts of groups, the
        surviving parts of one block in stack order, signature lists and runs
        alike; append nothing when there are none.

        Frees every record the fold drops before allocating the signature;
        the bottom part's bottom and floor records move into it unchanged.
        An empty group frees nothing: any floor it kept went to `_floor_window`.
        """
        groups = [group for group in groups if group]
        if not groups:
            return
        low, high = groups[0], groups[-1]
        if type(low) is Run:
            bottom, floor = low[0], low.floor
        else:
            bottom, floor = low[0].bottom, low[0].floor
        last_index = high[-1].index if type(high) is Run else high[-1].last_index
        sigs, entries, count = self._counts(groups)
        meter = self.meter
        if sigs:
            meter.free_sig(sigs)
        entries -= 1 + len(floor)
        if entries:
            meter.free_entry(entries)
        meter.alloc_sig()
        into.append(tuple.__new__(BlockSignature, (last_index, count, bottom, floor)))

    def _floor_window(self) -> tuple[Data, ...]:
        """Up to k-1 entries directly below the next push, bottom to top,
        off the meter.

        A floor is read only below at least one entry of its own run, so
        k-1 entries answer every top-k probe.  A run slot that holds k-1
        entries gives its top ones, and an emptied one's floor holds them,
        both without a call to `top`.  Otherwise they are read through
        `top`, which may rebuild the run, and on a replay's scratch stack the
        entries below its live ones are its own floor.
        """
        depth = self.k - 1
        run = self.lists[-1]
        if len(run) >= depth:  # also k <= 1, where the slice is empty
            return tuple(run[len(run) - depth :])
        if not run and run.floor:
            win = run.floor
            run.floor = ()
            self.meter.free_entry(len(win))
            return win
        return tuple(d for j in range(depth, 0, -1) if (d := self.top(j)) is not None)

    # -- reconstruction -------------------------------------------------------

    def _top_run(self) -> Run:
        """The run slot, rebuilt in detail so that it holds the top entry.

        The top sits in the topmost non-empty group.  When that group is in
        `second`'s region, `first`'s is empty, and `second`, held[1], the
        previous level-1 block, is promoted into its place.  The tail's
        newest signature is expanded into `first`'s region, empty then.  A
        held group is promoted into the group above it, since the active
        block of its level is empty: a previous run becomes the explicit run
        without a replay, and of a held list only the newest sub-block is
        expanded.  Otherwise the group's newest signature is expanded.  An
        emptied run slot's floor, the top k-1 entries, goes to the
        expansion, which restores the block from it when it holds every
        survivor above the bottom, and is freed otherwise.
        `_run_end` moves to the top's deepest block before anything moves,
        so that it stays there when an expansion fails.
        """
        lists = self.lists
        w = len(lists) // 2
        i = len(lists) - 1
        run = lists[i]
        stale = () if run else run.floor
        if stale:  # the caller reaches below it
            run.floor = ()
        while not lists[i]:
            i -= 1
        top = lists[i][-1]
        self._set_ref(top.index if type(lists[i]) is Run else top.last_index)
        if i == 0:
            self._expand_into(0, 1, stale)
        else:
            if i <= w:  # `second` is promoted into `first`'s place
                lists[w + 1 :] = lists[1 : w + 1]
                lists[1 : w + 1] = _groups(w)
                self.meter.promotions += 1
                i += w
            j = i - w - 1
            if j % 2:
                lists[i + 1], lists[i] = lists[i], []
                self.meter.promotions += 1
                j += 1
            if j < w - 1:
                self._expand_into(w + 1 + j, j // 2 + 2, stale)
            elif stale:
                self.meter.free_entry(len(stale))
        return lists[-1]

    def _expand_into(self, src: int, lv: int, stale: tuple[Data, ...] = ()) -> None:
        """Pop the signature of a level-lv block from lists[src] and rebuild
        the block in detail inside `first`'s region.

        `stale`, the top k-1 entries, comes from an emptied run slot, and
        the expansion owns it.  A block whose survivors are all resident
        needs no replay: the bottom and the newest count-1 entries of
        `stale` when that ends on the signature's last index, or the bottom
        alone.  They keep their own snapshots: the lowest survivor in each
        deepest block started a run when it was pushed.  Within one deepest
        block they become the run slot, with the signature's floor;
        otherwise they are pushed into a scratch stack restricted to the
        signature's block, where level i is level lv + i here.  Any other
        block is replayed on such a scratch, and the replay must rebuild
        exactly the signature's survivors, ending on its top entry.
        `_as_parts` of the scratch then replaces the region's groups from
        done[lv+1] up.  Only a failed rebuild releases the scratch; it also
        puts the signature back to lists[src], so the stack stays whole and
        a retry fails the same way.  Each expansion counts as a
        reconstruction.  An exception that only a hook can raise during the
        replay becomes a DeterminismError naming the block, chained to the
        original; the stack's and the input's errors, OSError and
        MemoryError keep their type.
        """
        lists = self.lists
        base = len(lists) // 2 + 1
        assert not any(lists[base + max(2 * lv - 3, 0) :])
        sig = lists[src].pop()
        low = sig.bottom.index
        meter = self.meter
        meter.reconstructions += 1
        n = sig.count - 1
        rest = stale[len(stale) - n :]
        resident = n <= len(stale) and (not n or rest[-1].index == sig.last_index)
        g = self.geom
        # _top_run pointed _run_end at the end of the top's deepest block.
        if resident and low > self._run_end - g.p:  # all in that block: the run slot
            if len(stale) > n:
                meter.free_entry(len(stale) - n)
            meter.free_sig()
            run = lists[-1] = Run((sig.bottom, *rest))
            run.floor = sig.floor
            return
        if stale:  # a replay rebuilds these entries, and the pushes below count them again
            meter.free_entry(len(stale))
        scratch = CompressedStack(
            geometry=g.sub_geometry(lv, g.block_start(low, lv)), k=self.k, meter=meter
        )
        scratch.floor = sig.floor
        try:
            if resident:
                for d in (sig.bottom, *rest):
                    scratch.push(d)
            else:
                if self.replay is None:
                    raise StackError("no replay delegate bound; cannot reconstruct")
                scratch.replay = self.replay
                scratch.guard_index = low
                meter.replay_depth += 1
                meter.max_replay_depth = max(meter.max_replay_depth, meter.replay_depth)
                try:
                    self.replay(scratch, sig.bottom, sig.last_index)
                finally:
                    meter.replay_depth -= 1
            groups = scratch.lists
            top = groups[-1]
            if scratch.live != sig.count or not top or top[-1].index != sig.last_index:
                raise DeterminismError(
                    f"replay of level-{lv} block [{low}..{sig.last_index}] "
                    f"rebuilt {scratch.live} entries, not the {sig.count} the run left, "
                    f"or did not end on index {sig.last_index}"
                )
            # A level-h block is one level-1 block of the scratch.
            if lv == g.h and any(groups[:-1]):
                raise StackError("level-h replay produced sub-block signatures")
        except BaseException as exc:
            lists[src].append(sig)
            try:
                scratch.dispose()
            except AccountingError:
                pass  # an imbalance the failed replay left; its exception names it
            # A hook that raised only here broke the replay contract; the
            # stack's own errors, the input's and the system's (re-reading
            # the input, allocating) already name what failed.
            if isinstance(exc, Exception) and not isinstance(
                exc, (StackError, ParseError, AccountingError, OSError, MemoryError)
            ):
                raise DeterminismError(
                    f"replay of level-{lv} block [{low}..{sig.last_index}] raised {exc!r}"
                ) from exc
            raise
        lists[base + 2 * lv - 2 :] = scratch._as_parts() if lv < g.h else groups[-1:]
        meter.free_sig()
        meter.free_entry(1 + len(sig.floor))

    # -- introspection: the run footer's bound, the checker's checks ------

    def resident_data_bound(self) -> int:
        """Cap on the entry copies held by `first` and `second`.

        With f = k-1 floor entries per run or signature, each of the two
        regions holds:
        - two runs (held[h] and the explicit run; only the latter at h = 1)
          of at most one deepest block, p entries, plus a floor of f apiece;
        - at most p-1 finished signatures in each done[c], c = 2..h, each a
          bottom plus f floor entries;
        - in `first` only, since demotion folds them, a held list on each of
          the h-2 middle levels 2..h-1, at most p signatures of 1+f entries.
        """
        g = self.geom
        floor = max(self.k - 1, 0)
        runs = 2 if g.h > 1 else 1
        sigs = 2 * (g.h - 1) * (g.p - 1) + max(g.h - 2, 0) * g.p
        return 2 * runs * (g.p + floor) + sigs * (1 + floor)

    def check_space_cap(self) -> None:
        """Assert the resident-entry cap and the tail cap; O(signature count)."""
        count = self._counts(self.lists[1:])[1]
        bound = self.resident_data_bound()
        if count > bound:
            raise AssertionError(f"resident entry count {count} exceeds cap {bound}")
        tail = len(self.lists[0])
        if tail > max(0, self.geom.p - 2):
            raise AssertionError(f"tail holds {tail} signatures, cap is {self.geom.p - 2}")

    def check_invariants(self) -> None:
        """Assert the structural invariants; used by tests and the checker."""
        self.check_space_cap()
        g = self.geom
        lists = self.lists
        # the tail, a plain list of signatures, then two regions of 2h-1
        # groups each ending in the explicit run; entries sit only in runs,
        # which only held[h] and the run slot may be
        w = 2 * g.h - 1
        assert len(lists) == 2 * w + 1 and type(lists[0]) is list
        assert not any(lists[2 : w - 1 : 2])  # `second`: a demoted `first`
        for base in (1, w + 1):
            assert type(lists[base + w - 1]) is Run
            for j, group in enumerate(lists[base : base + w]):
                if not group:
                    continue
                assert (type(group) is Run) == (j >= w - 2)
                if j % 2 and type(group) is not Run:
                    # held[c]: at most p sub-blocks, all inside one level-c block
                    c = (j + 3) // 2
                    assert len(group) <= g.p
                    assert g.block_start(group[0].bottom.index, c) == g.block_start(
                        group[-1].last_index, c
                    )
        # _run_end ends a deepest block, the one holding the run slot's entries
        assert (self._run_end + 1 - g.origin) % g.p == 0
        assert not lists[-1] or self._run_end - g.p < lists[-1][-1].index <= self._run_end
        floor_cap = max(self.k - 1, 0)
        prev = g.origin - 1
        for group in lists:
            if type(group) is Run:
                assert len(group.floor) <= floor_cap
                if group:
                    assert g.block_start(group[0].index, g.h) == g.block_start(group[-1].index, g.h)
                for d in group:
                    assert prev < d.index
                    prev = d.index
                continue
            for sig in group:
                assert prev < sig.bottom.index <= sig.last_index
                assert len(sig.floor) <= floor_cap
                prev = sig.last_index
        survivors = self._counts(lists)[2]
        assert survivors == self.live, f"signatures and runs hold {survivors}, live is {self.live}"
