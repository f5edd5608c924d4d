import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cstack.checker import TwinStack
from cstack.compressed import CompressedStack, PartitionGeometry, Run
from cstack.core import (
    AccountingError,
    ClassicStack,
    ContractError,
    Data,
    DeterminismError,
    EmptyStackError,
    StackError,
)
from cstack.generators import GenSpec, generate
from cstack.metrics import MemoryMeter, resolve_p
from cstack.problems import TestRun, UpperHull
from cstack.runner import LineSource, ParseError, Runner

from helpers import pairs_to_text, random_trace, run_testrun, run_twin_testrun
from oracles import replay_testrun


def entry(i, payload=None):
    return Data(i, payload if payload is not None else i * 10, None, 0)


class TestDirectPushes:
    """Structure shaping at the stack API level, no runner involved."""

    def test_first_push(self):
        cs = CompressedStack(16, 2, k=1)
        cs.push(entry(1))
        assert [d.index for d in cs.lists[-1]] == [1]  # the explicit run
        assert cs.lists[0] == []  # the tail
        assert cs.len() == 1

    def test_fold_on_deepest_boundary(self):
        cs = CompressedStack(27, 3, k=1)  # sizes (9, 3)
        done, held, run = range(4, 7)  # groups of `first` at h = 2
        for i in (1, 2, 3):
            cs.push(entry(i))
        assert [d.index for d in cs.lists[run]] == [1, 2, 3]
        # the first deepest crossing keeps the finished run explicit
        cs.push(entry(4))
        assert [d.index for d in cs.lists[held]] == [1, 2, 3]
        assert [d.index for d in cs.lists[run]] == [4]
        assert cs.lists[done] == []
        # the second folds the run it displaces, and only that one
        for i in (5, 6, 7):
            cs.push(entry(i))
        assert [d.index for d in cs.lists[held]] == [4, 5, 6]
        assert [d.index for d in cs.lists[run]] == [7]
        sigs = cs.lists[done]  # finished level-2 blocks
        assert [(s.bottom.index, s.last_index, s.count) for s in sigs] == [(1, 3, 3)]
        cs.check_invariants()

    def test_new_top_block_demotes_components(self):
        cs = CompressedStack(16, 2, k=1)
        for i in (1, 2, 3):
            cs.push(entry(i))
        cs.push(entry(9))
        second = cs.lists[1:6]  # the groups of `second` at h = 3
        assert [d.index for d in cs.lists[-1]] == [9]
        assert any(second)
        assert second[-1][-1].index == 3
        assert cs.lists[0] == []
        cs.check_invariants()
        # popping 9 empties `first`; popping 3 promotes `second` into its
        # place, previous run [1, 2] and all, without a replay
        assert cs.pop().index == 9
        assert cs.pop().index == 3
        assert cs.meter.promotions == 1
        assert cs.meter.reconstructions == 0
        assert not any(cs.lists[1:6])
        assert [d.index for d in cs.lists[-2]] == [1, 2]  # held[3] of `first`
        cs.check_invariants()
        # the next push demotes the block again
        cs.push(entry(10))
        assert [d.index for d in cs.lists[4]] == [1, 2]  # held[3] of `second`
        assert [d.index for d in cs.lists[-1]] == [10]
        cs.check_invariants()

    def test_push_below_current_index_rejected(self):
        cs = CompressedStack(16, 2, k=1)
        cs.push(entry(5))
        with pytest.raises(ContractError):
            cs.push(entry(5))

    def test_pop_empty(self):
        cs = CompressedStack(16, 2, k=1)
        with pytest.raises(EmptyStackError):
            cs.pop()

    def test_fold_keeps_live_count(self):
        cs = CompressedStack(64, 2, k=1)
        for i in range(1, 22):
            cs.push(entry(i))
            assert cs.len() == i
        cs.check_invariants()


class TestTopAndBuffer:
    def test_top_small_depths(self):
        cs = CompressedStack(8, 2, k=2)
        for i, v in enumerate([5, 7, 9], 1):
            cs.push(entry(i, v))
        assert cs.top(1).payload == 9
        assert cs.top(2).payload == 7

    def test_top_beyond_live_is_absent(self):
        cs = CompressedStack(8, 2, k=2)
        cs.push(entry(1))
        assert cs.top(2) is None

    def test_top_beyond_declared_depth_rejected(self):
        cs = CompressedStack(8, 2, k=2)
        cs.push(entry(1))
        with pytest.raises(ContractError):
            cs.top(3)
        # the explicit run may hold more than k entries; it must not answer
        cs = CompressedStack(64, 4, k=1)
        cs.push(entry(1))
        cs.push(entry(2))
        with pytest.raises(ContractError):
            cs.top(2)

    def test_probe_deeper_than_the_captured_floor_is_not_answerable(self):
        # built at k=1, no run captured a floor; a later top(2) that the run
        # slot cannot answer alone must say so, not return a wrong entry
        cs = CompressedStack(64, 2, k=1)
        for i in range(1, 6):
            cs.push(entry(i))
        cs.k = 2
        with pytest.raises(StackError, match="not answerable"):
            cs.top(2)

    def test_top_after_pop_run_answers_through_reconstruction(self):
        # after the run, 1..3 survive only inside a signature (4..6 are the
        # previous run); popping the explicit entries and the promoted
        # previous run leaves the run slot empty, and at k=1 without a
        # floor, so the next top(1) must replay
        pairs = [(v, 0) for v in (10, 20, 30, 40, 50, 60, 70)]
        result, runner, cs, meter = run_testrun(pairs, p=3, n_expect=27, drain=False)
        for want in (70, 60, 50, 40):
            assert cs.pop().payload.value == want
        assert meter.reconstructions == 0
        got = cs.top(1)
        assert got.payload.value == 30
        assert meter.reconstructions == 1
        assert cs.len() == 3
        assert cs.top(1) == got  # served from the rebuilt run now
        assert meter.reconstructions == 1


class ProbingTestRun(TestRun):
    """A k=2 TestRun whose push condition probes top(k) and ignores it."""

    k = 2

    def push_condition(self, payload, ctx, top):
        top(self.k)
        return True


class DeepProbingTestRun(ProbingTestRun):
    """Probes top(3): two-entry floors, read two deep below a run."""

    k = 3


def test_k2_probe_after_pops_reads_a_full_floor():
    rng = random.Random(0)
    text = pairs_to_text((i, rng.choice([0, 0, 0, 1, 2, 3])) for i in range(1, 601))
    classic = Runner(ProbingTestRun(), LineSource.from_text(text), ClassicStack()).run()
    compressed = Runner(ProbingTestRun(), LineSource.from_text(text),
                        CompressedStack(600, 2, 2)).run()
    assert compressed.report == classic.report


class TestOracleEquivalence:
    def test_spec_pop_trace(self):
        # eight pushes then an eight-pop element: index 5 keeps the level-2
        # block [1..4] held as the signatures of [1, 2] and [3, 4], the
        # previous run [5, 6] is promoted without a replay, and the pops of
        # 4 and of 2 each rebuild one deepest block: two reconstructions of
        # one replayed line each, where folding [1..4] whole took one
        # reconstruction of three lines
        pairs = [(v, 0) for v in range(16, 8, -1)] + [(5, 8)]
        result, runner, cs, meter = run_testrun(pairs, p=2, n_expect=16)
        assert result.report == ["5"]
        assert meter.reconstructions == 2
        assert meter.replay_lines == 2
        assert meter.promotions == 2

    def test_interleaved_trace_matches_classic(self):
        rng = random.Random(11)
        pairs = random_trace(rng, 4096)
        result, twin = run_twin_testrun(pairs, p=3)
        pop_seq, final = replay_testrun(pairs)
        assert result.report == [str(v) for v in reversed(final)]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_traces_deep_checked(self, data):
        # k=2 stacks keep a one-entry floor per run; a k=2 stack under the
        # plain k=1 TestRun is never probed, so only a push that starts a
        # run rebuilds the top, to copy its floor.  At k=3 a probe can reach
        # two entries below a run, and a run that starts with fewer than two
        # entries live in a replay tops its floor up from the scratch's own.
        n = data.draw(st.integers(min_value=1, max_value=120))
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        pairs = random_trace(rng, n)
        p = data.draw(st.sampled_from([2, 3, 5, 8]))
        algo = data.draw(st.sampled_from([TestRun, ProbingTestRun, DeepProbingTestRun]))()
        k = max(algo.k, data.draw(st.sampled_from([1, 2])))
        result, twin = run_twin_testrun(pairs, p=p, k=k, deep=True, algo=algo)
        pop_seq, final = replay_testrun(pairs)
        assert result.report == [str(v) for v in reversed(final)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_held_blocks_keep_the_twin_clean(data):
    # Longer traces than the test above, so held lists appear at h >= 4
    # (p=2 and 3) and under a size estimate four times too low or too high.
    n = data.draw(st.integers(min_value=200, max_value=600))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    pairs = random_trace(rng, n)
    p = data.draw(st.integers(min_value=2, max_value=5))
    algo = data.draw(st.sampled_from([TestRun, ProbingTestRun, DeepProbingTestRun]))()
    n_expect = data.draw(st.sampled_from([n // 4, n, 4 * n]))
    result, twin = run_twin_testrun(pairs, p=p, n_expect=n_expect, k=algo.k,
                                    deep=True, algo=algo)
    pop_seq, final = replay_testrun(pairs)
    assert result.report == [str(v) for v in reversed(final)]
    twin.dispose()
    assert twin.meter.live_bytes == 0


@pytest.mark.parametrize("kind,rho", [("pushonly", 1.0), ("pushonly", 0.6), ("xmas", 0.0)])
@pytest.mark.parametrize("schedule", ["sqrt", "log", "4"])
def test_every_top_run_call_restores_something(monkeypatch, kind, rho, schedule):
    # The run slot always holds the top, so a pop finds its entry there and
    # calls _top_run only when the slot is empty, to promote or expand the
    # group below it; at k=1 no probe reaches below a non-empty slot.
    n = 4096
    calls = []
    top_run = CompressedStack._top_run

    def counted(self):
        calls.append(1)
        return top_run(self)

    monkeypatch.setattr(CompressedStack, "_top_run", counted)
    meter = MemoryMeter()
    cs = CompressedStack(n, resolve_p(schedule, n), 1, meter=meter)
    text = generate(GenSpec(kind, n, rho, 0))
    Runner(TestRun(), LineSource.from_text(text), cs).run()
    assert meter.reconstructions + meter.promotions > 0
    assert len(calls) <= meter.reconstructions + meter.promotions


class TestReconstruction:
    def test_single_entry_signature_reads_no_input(self):
        # {1} alone becomes the previous run at index 4 and is folded into a
        # signature at index 7; the last element pops back through it, and
        # restoring a lone survivor calls no replay at all
        pairs = [(10, 0), (20, 0), (30, 1), (40, 1), (50, 0), (60, 0), (70, 0), (80, 5)]
        meter = MemoryMeter()
        cs = CompressedStack(27, 3, k=1, meter=meter)
        runner = Runner(TestRun(), LineSource.from_text(pairs_to_text(pairs)), cs,
                        drain_report=False)
        replays = []
        cs.replay = lambda *args: replays.append(args)
        result = runner.run()
        assert meter.reconstructions == 1
        assert meter.replay_lines == 0
        assert replays == []
        assert result.metrics.pops == 7
        assert [d.index for d in cs.lists[-1]] == [8]

    def test_held_block_replays_only_its_newest_sub_block(self):
        # sizes (27, 9, 3): pushing 10 crosses a level-2 boundary, and the
        # finished block [1..9] stays held as the signatures of its three
        # deepest blocks; popping 10 and 9 promotes it and replays [7..9]
        # alone, 2 lines, where replaying the block folded whole read 8
        pairs = [(i, 0) for i in range(1, 11)] + [(11, 2)]
        held = []

        def on_element(runner, entry):
            if entry.index == 10:
                held.extend((s.bottom.index, s.last_index, s.count)
                            for s in runner.stack.lists[7])  # held[2] of `first`

        result, runner, cs, meter = run_testrun(pairs, p=3, n_expect=81, drain=False,
                                                on_element=on_element)
        assert cs.geom.sizes == (27, 9, 3)
        assert held == [(1, 3, 3), (4, 6, 3), (7, 9, 3)]
        assert meter.replay_lines == 2
        assert meter.reconstructions == 1
        assert meter.promotions == 1
        assert meter.max_replay_depth == 1
        # 11 crosses the level-2 boundary again: [1..8] is held once more
        assert [(s.bottom.index, s.last_index) for s in cs.lists[7]] == [
            (1, 3), (4, 6), (7, 8)
        ]
        cs.check_invariants()

    def test_full_block_replay_reads_its_range_once(self):
        # 48 pushes build three level-1 blocks of 16 (n=64, p=4); a deep pop
        # run consumes the two detailed components, then one more pop must
        # rebuild the oldest block from its signature: 15 lines re-read
        pairs = [(i, 0) for i in range(1, 49)] + [(100, 32)]
        marks = {}

        def on_element(runner, entry):
            if entry.index == 49:
                marks["lines"] = runner.meter.replay_lines
                marks["recon"] = runner.meter.reconstructions

        result, runner, cs, meter = run_testrun(
            pairs + [(200, 2)], p=4, n_expect=64, drain=False,
            on_element=on_element,
        )
        assert meter.replay_lines - marks["lines"] == 15
        assert meter.reconstructions - marks["recon"] == 1

    def test_rerun_is_deterministic(self):
        rng = random.Random(5)
        pairs = random_trace(rng, 600)
        dumps = []
        for _ in range(2):
            result, runner, cs, meter = run_testrun(pairs, p=3, n_expect=600, drain=False)
            dumps.append((
                [(list(g), g.floor) if type(g) is Run else g for g in cs.lists],
                meter.reconstructions,
                result.metrics.peak_bytes,
            ))
        assert dumps[0] == dumps[1]

    def test_replay_below_range_is_refused(self):
        # a pop condition that is not a pure function of its arguments decides
        # differently during the replay and tries to pop through the range
        # bottom; the scratch stack refuses instead of corrupting state
        from cstack.problems import TestRun
        from cstack.runner import LineSource, Runner

        class Impure(TestRun):
            def __init__(self):
                self.calls = 0

            def pop_condition(self, payload, ctx, top):
                self.calls += 1
                if payload.value == 20 and self.calls > 6:
                    return True  # fires only when element 2 is replayed
                return super().pop_condition(payload, ctx, top)

        # 1..3 fold into a signature when 7 displaces their previous run;
        # the last element pops 7, the promoted run 4..6, then replays 1..3
        pairs = [(v, 0) for v in (10, 20, 30, 40, 50, 60, 70)] + [(99, 7)]
        meter = MemoryMeter()
        cs = CompressedStack(27, 3, k=1, meter=meter)
        runner = Runner(Impure(), LineSource.from_text(pairs_to_text(pairs)), cs,
                        drain_report=False)
        with pytest.raises(DeterminismError):
            runner.run()
        # the failed replay released its scratch stack and put the signature
        # back, so the stack stays whole and refuses again by name
        cs.check_invariants()
        with pytest.raises(DeterminismError):
            cs.pop()
        cs.check_invariants()
        cs.dispose()
        assert meter.live_bytes == 0

    @pytest.mark.parametrize("seed", [0, 4])
    def test_impure_condition_raises_instead_of_corrupting(self, seed):
        # a pop condition that flips its answer once in 5,000 calls makes a
        # replay rebuild another number of survivors than the run left
        meter = MemoryMeter()
        cs = CompressedStack(4096, 8, k=1, meter=meter)
        text = generate(GenSpec("xmas", 4096, 0.0, 0))
        with pytest.raises(StackError, match=r"block \[\d+\.\.\d+\]"):
            Runner(Misfiring(1, 1 / 5000, seed), LineSource.from_text(text), cs).run()
        cs.check_invariants()
        cs.dispose()
        assert meter.live_bytes == 0

    def test_a_replay_without_a_delegate_raises_and_leaves_the_stack_whole(self):
        # No runner binds `replay`, so the first pop that reaches a folded
        # block of more than one survivor cannot rebuild it.
        meter = MemoryMeter()
        cs = CompressedStack(16, 2, 1, meter=meter)
        for i in range(1, 17):
            cs.push(Data(i, i, None, i))
        for _ in range(4):
            cs.pop()
        with pytest.raises(StackError, match="no replay delegate bound; cannot reconstruct"):
            cs.pop()
        assert cs.len() == 12
        cs.check_invariants()
        with pytest.raises(StackError, match="no replay delegate bound; cannot reconstruct"):
            cs.pop()
        cs.dispose()
        assert meter.live_bytes == 0

    def test_pushes_after_a_failed_replay_keep_the_layout(self):
        # The failed expansion had already promoted groups toward the top, so
        # later pushes must compare against the block that holds the top now,
        # not the one the last pop left.
        text = pairs_to_text(random_trace(random.Random(2), 400))
        cs = CompressedStack(400, 5, k=1)
        with pytest.raises(DeterminismError, match="range bottom"):
            Runner(Misfiring(1, 1 / 50, 2), LineSource.from_text(text), cs,
                   drain_report=False).run()
        for index in (169, 193, 215, 308, 352):
            cs.push(entry(index))
            cs.check_invariants()


class Misfiring(TestRun):
    """A TestRun whose pop condition flips its answer at `rate`, so replays
    can decide otherwise than the run did; at k=2 every push probes top(2)."""

    def __init__(self, k, rate, seed):
        self.k = k
        self.rate = rate
        self.rng = random.Random(seed)

    def pop_condition(self, payload, ctx, top):
        want = super().pop_condition(payload, ctx, top)
        return want != (self.rng.random() < self.rate)

    def push_condition(self, payload, ctx, top):
        if self.k == 2:
            top(2)
        return True


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_impure_conditions_raise_a_stack_error_or_complete(data):
    # A replay that diverges must raise a named StackError, never anything
    # else, and leave a whole stack that frees every byte.  The failure path
    # puts the signature back where it was popped from, at any level.
    n = data.draw(st.integers(min_value=200, max_value=600))
    seed = data.draw(st.integers(0, 2 ** 16))
    if data.draw(st.booleans()):
        text = pairs_to_text(random_trace(random.Random(seed), n))
    else:
        text = generate(GenSpec("xmas", n, 0.0, seed))
    p = data.draw(st.integers(min_value=2, max_value=5))
    k = data.draw(st.sampled_from([1, 2]))
    n_expect = data.draw(st.sampled_from([n // 4, n, 4 * n]))
    rate = data.draw(st.sampled_from([1 / 50, 1 / 500]))
    meter = MemoryMeter()
    cs = CompressedStack(n_expect, p, k, meter=meter)
    try:
        Runner(Misfiring(k, rate, seed), LineSource.from_text(text), cs).run()
    except StackError:
        cs.check_invariants()
    cs.dispose()
    assert meter.live_bytes == 0


class TestSpaceCap:
    def test_resident_entries_bounded_during_random_runs(self):
        rng = random.Random(3)
        for _ in range(12):
            pairs = random_trace(rng, 400)
            p = rng.choice([2, 4, 9, 20])
            run_twin_testrun(pairs, p=p, deep=False)  # cap asserted per op

    def test_tail_cap_holds_within_expected_size(self):
        pairs = [(i, 0) for i in range(1, 201)]
        result, runner, cs, meter = run_testrun(pairs, p=4, n_expect=200, drain=False)
        cs.check_invariants()
        assert not cs.degraded and len(cs.lists[0]) <= cs.geom.p - 2

    def test_audit_matches_incremental_count(self):
        # the meter counts each entry copy as it is made or freed; the
        # group tally counts them from scratch.  A replay's scratch stack
        # shares the meter, so only elements outside replays are compared.
        checked = []

        def on_element(runner, entry):
            stack = runner.stack
            if runner.meter.replay_depth == 0:
                assert runner.meter.live_data == stack._counts(stack.lists)[1]
                checked.append(len(stack.lists[0]))

        # n_expect 64 < 256 makes the layout grow; the push-only prefix
        # builds a tail
        for seed, (p, k, n_expect) in enumerate(
            itertools.product((2, 3, 4, 9), (1, 2), (512, 64))
        ):
            rng = random.Random(seed)
            pairs = [(i, 0) for i in range(1, 201)] + random_trace(rng, 56)
            run_testrun(pairs, p=p, k=k, n_expect=n_expect, drain=False,
                        on_element=on_element)
        assert len(checked) > 2000 and max(checked) >= 2


class TestOverflow:
    def test_pushes_beyond_expected_size_stay_correct(self):
        pairs = [(i, 0) for i in range(1, 33)]
        result, twin = run_twin_testrun(pairs, p=2, n_expect=16)
        assert result.metrics.degraded_estimate
        # drain happened, so re-run undrained to inspect the tail: the
        # layout grew instead of tiling on past its cap
        result2, runner, cs, meter = run_testrun(pairs, p=2, n_expect=16, drain=False)
        assert result2.metrics.degraded_estimate
        assert len(cs.lists[0]) <= cs.geom.p - 2

    def test_exact_estimate_never_degrades(self):
        pairs = [(i, 0) for i in range(1, 33)]
        result, runner, cs, meter = run_testrun(pairs, p=2, n_expect=32, drain=False)
        assert not result.metrics.degraded_estimate

    def test_undersized_estimate_uses_no_more_memory(self):
        # a low size estimate grows the layout to the one the exact estimate
        # builds, so the push-only run peaks at the same bytes
        pairs = [(i, 0) for i in range(1, 1025)]
        exact, *_ = run_testrun(pairs, p=4, n_expect=1024, drain=False)
        under, *_ = run_testrun(pairs, p=4, n_expect=256, drain=False)
        assert under.metrics.degraded_estimate
        assert under.metrics.peak_bytes == exact.metrics.peak_bytes == 3776

    def test_oversized_estimate_never_degrades(self):
        pairs = [(i, 0) for i in range(1, 1025)]
        over, *_ = run_testrun(pairs, p=2, n_expect=4096, drain=False)
        assert not over.metrics.degraded_estimate


class SkipsAStretch(TestRun):
    """A TestRun that declines the pushes of the values lo..hi."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def push_condition(self, payload, ctx, top):
        return not self.lo <= payload.value <= self.hi


class TestGrowth:
    @pytest.mark.parametrize("name", ["points", "pushonly", "xmas"])
    @pytest.mark.parametrize("n_expect", [16, 512])
    @pytest.mark.parametrize("p", [3, 15])
    def test_undersized_estimate_grows_to_the_sized_layout(self, name, n_expect, p):
        # Every element is pushed, so the layout grows to the one an exact
        # estimate builds, and the tail stays within its cap (the twin checks
        # the invariants after every push and pop).
        n = 4096
        kind, rho, algo = GOLDEN_INPUTS[name]
        text = generate(GenSpec(kind, n, rho, 0))
        classic = Runner(algo(), LineSource.from_text(text), ClassicStack()).run()
        twin = TwinStack(n_expect, p, algo.k, deep=True)
        result = Runner(algo(), LineSource.from_text(text), twin).run()
        m = result.metrics
        assert result.report == classic.report
        assert m.degraded_estimate
        assert twin.geom.sizes == PartitionGeometry.for_input(n, p).sizes
        assert m.peak_entries <= m.resident_bound + algo.k * (p - 2)

    def test_one_push_grows_several_levels(self):
        # p=2 sized for 16: the push of 201 grows the layout to cover 256
        pairs = [(i, 0) for i in range(1, 211)]
        result, twin = run_twin_testrun(pairs, p=2, n_expect=16, deep=True,
                                        algo=SkipsAStretch(11, 200))
        assert twin.geom.sizes == PartitionGeometry.for_input(256, 2).sizes
        assert result.report == [str(v) for v in [*range(210, 200, -1), *range(10, 0, -1)]]
        twin.dispose()
        assert twin.meter.live_bytes == 0

    def test_a_disposed_grown_stack_reruns_as_a_new_one(self):
        text = generate(GenSpec("xmas", 4096, 0.0, 0))
        meter = MemoryMeter()
        cs = CompressedStack(64, 4, 1, meter=meter)
        built = cs.geom
        counts = []
        for _ in range(2):
            assert Runner(TestRun(), LineSource.from_text(text), cs).run().metrics.degraded_estimate
            counts.append((meter.reconstructions, meter.replay_lines, meter.promotions))
            cs.dispose()
            assert cs.geom is built and not cs.degraded
            assert meter.live_bytes == 0
        assert counts[1] == tuple(2 * c for c in counts[0])

    def test_an_estimate_the_layout_covers_is_not_flagged(self):
        # p=15 sized for 4096 builds sizes (3375, 225, 15), which cover 15^4
        pairs = [(i, 0) for i in range(1, 8193)]
        result, runner, cs, meter = run_testrun(pairs, p=15, n_expect=4096, drain=False)
        assert cs.geom == PartitionGeometry.for_input(8192, 15)
        assert not result.metrics.degraded_estimate


def test_zero_reconstructions_without_pops():
    pairs = [(i, 0) for i in range(1, 301)]
    for p in (2, 5, 17):
        result, runner, cs, meter = run_testrun(pairs, p=p, n_expect=300, drain=False)
        assert meter.reconstructions == 0


def test_dispose_returns_all_bytes():
    rng = random.Random(21)
    pairs = random_trace(rng, 500)
    result, runner, cs, meter = run_testrun(pairs, p=3, n_expect=500, drain=False)
    assert meter.live_bytes > 0
    cs.dispose()
    assert meter.live_bytes == 0
    cs.dispose()  # idempotent
    assert meter.live_bytes == 0
    assert cs.len() == 0
    assert cs.top(1) is None  # as the classic stack after dispose
    cs.check_invariants()
    # a disposed stack takes pushes as a new one does and frees them again
    cs.push(entry(1))
    cs.push(entry(2))
    assert cs.len() == 2 and cs.top(1) == entry(2)
    cs.check_invariants()
    cs.dispose()
    assert meter.live_bytes == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_set_ref_ends_the_deepest_block_of_its_index(data):
    # _set_ref works _run_end out with one modulo on p; it must still be the
    # last index of the deepest block holding the index, below the origin
    # too, where a fresh stack points it so that its first push crosses.
    p = data.draw(st.integers(2, 12))
    sizes = (p,)
    for _ in range(data.draw(st.integers(0, 3))):
        sizes = (sizes[0] * data.draw(st.integers(2, 5)), *sizes)
    origin = data.draw(st.integers(1, 10 ** 6))
    g = PartitionGeometry(origin - 1 + p * sizes[0], sizes, origin)
    cs = CompressedStack(geometry=g)
    assert cs._run_end == origin - 1
    inside = st.lists(st.integers(origin, g.last_expected), max_size=20)
    for index in [origin - 1, *data.draw(inside)]:
        cs._set_ref(index)
        assert cs._run_end == g.block_start(index, g.h) + p - 1


# Counters of the reference implementation on fixed inputs (n=2^11, seed 0,
# n_expect=n): (reconstructions, replay_lines, peak_bytes, final_len, pops,
# promotions, max_replay_depth, peak_data).
# They carry no timing noise, so any change in what the stack folds, replays
# or holds resident shows here.
GOLDEN_N = 2 ** 11
GOLDEN_INPUTS = {
    "xmas": ("xmas", 0.0, TestRun),
    "points": ("points", 0.0, UpperHull),
    "pushonly": ("pushonly", 1.0, TestRun),
    # k=3: two-entry floors, most of them copied straight from the run slot
    "xmas-k3": ("xmas", 0.5, DeepProbingTestRun),
    "pushonly-k3": ("pushonly", 0.5, DeepProbingTestRun),
}
GOLDEN = {
    ("xmas", "2", "scan"): (203, 749, 2024, 340, 1708, 555, 1, 19),
    ("xmas", "2", "drained"): (343, 2297, 2024, 340, 2048, 909, 2, 19),
    ("xmas", "log", "scan"): (106, 973, 4024, 340, 1708, 112, 2, 41),
    ("xmas", "log", "drained"): (183, 2069, 4024, 340, 2048, 152, 2, 41),
    ("xmas", "sqrt", "scan"): (14, 340, 5584, 340, 1708, 38, 1, 70),
    ("xmas", "sqrt", "drained"): (40, 922, 5584, 340, 2048, 40, 1, 70),
    ("points", "2", "scan"): (2890, 5873, 1464, 12, 2036, 4214, 3, 19),
    ("points", "2", "drained"): (3167, 6600, 1464, 12, 2048, 4617, 3, 19),
    ("points", "log", "scan"): (226, 302, 1624, 12, 2036, 582, 2, 21),
    ("points", "log", "drained"): (231, 308, 1624, 12, 2048, 585, 2, 21),
    ("points", "sqrt", "scan"): (38, 82, 1448, 12, 2036, 200, 1, 19),
    ("points", "sqrt", "drained"): (41, 88, 1448, 12, 2048, 202, 1, 19),
    ("pushonly", "2", "scan"): (0, 0, 3328, 2048, 0, 0, 0, 32),
    ("pushonly", "2", "drained"): (680, 5348, 3672, 2048, 2048, 679, 1, 37),
    ("pushonly", "log", "scan"): (0, 0, 7504, 2048, 0, 0, 0, 86),
    ("pushonly", "log", "drained"): (169, 3230, 7504, 2048, 2048, 18, 1, 86),
    ("pushonly", "sqrt", "scan"): (0, 0, 11488, 2048, 0, 0, 0, 156),
    ("pushonly", "sqrt", "drained"): (43, 1892, 11488, 2048, 2048, 2, 1, 156),
    ("xmas-k3", "2", "scan"): (570, 1714, 4960, 340, 1708, 989, 3, 68),
    ("xmas-k3", "2", "drained"): (837, 3321, 4960, 340, 2048, 1458, 3, 70),
    ("xmas-k3", "log", "scan"): (125, 1177, 7096, 340, 1708, 142, 2, 97),
    ("xmas-k3", "log", "drained"): (204, 2289, 7096, 340, 2048, 190, 2, 97),
    ("xmas-k3", "sqrt", "scan"): (17, 405, 8720, 340, 1708, 45, 1, 126),
    ("xmas-k3", "sqrt", "drained"): (43, 987, 8720, 340, 2048, 47, 1, 126),
    ("pushonly-k3", "2", "scan"): (938, 3518, 6064, 989, 1059, 1591, 3, 82),
    ("pushonly-k3", "2", "drained"): (2378, 9868, 6232, 989, 2048, 3705, 3, 85),
    ("pushonly-k3", "log", "scan"): (11, 83, 11256, 989, 1059, 195, 1, 153),
    ("pushonly-k3", "log", "drained"): (180, 2955, 11256, 989, 2048, 362, 1, 153),
    ("pushonly-k3", "sqrt", "scan"): (0, 0, 13392, 989, 1059, 36, 0, 190),
    ("pushonly-k3", "sqrt", "drained"): (43, 1814, 13392, 989, 2048, 38, 1, 190),
}


@pytest.mark.parametrize("name,schedule,mode", sorted(GOLDEN))
def test_golden_counters(name, schedule, mode):
    kind, rho, algo_cls = GOLDEN_INPUTS[name]
    text = generate(GenSpec(kind, GOLDEN_N, rho, 0))
    algo = algo_cls()
    meter = MemoryMeter()
    cs = CompressedStack(GOLDEN_N, resolve_p(schedule, GOLDEN_N), algo.k, meter=meter)
    drain = mode == "drained"
    runner = Runner(algo, LineSource.from_text(text), cs,
                    collect_report=drain, drain_report=drain)
    m = runner.run().metrics
    got = (meter.reconstructions, meter.replay_lines, meter.peak_bytes,
           m.final_len, m.pops, meter.promotions, meter.max_replay_depth,
           meter.peak_data)
    assert got == GOLDEN[(name, schedule, mode)]
    cs.dispose()
    assert meter.live_bytes == 0


def _drain(stack, by_run):
    """Every entry, in the order pop_run or pop hands them over."""
    out = []
    while stack.len() > 0:
        out += stack.pop_run() if by_run else [stack.pop()]
    return out


METER_FIELDS = ("reconstructions", "replay_lines", "peak_bytes", "peak_data",
                "promotions", "max_replay_depth")


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_pop_run_drains_as_pop_does(data):
    # The same scan drained entry by entry and a run at a time must hand over
    # the same entries and leave the meter in the same state: the runs pop
    # what the pops would, and the same blocks are restored in between.
    n = data.draw(st.integers(min_value=50, max_value=400))
    seed = data.draw(st.integers(0, 2 ** 16))
    text = pairs_to_text(random_trace(random.Random(seed), n))
    kind = data.draw(st.sampled_from(["classic", "compressed"]))
    p = data.draw(st.integers(min_value=2, max_value=6))
    k = data.draw(st.sampled_from([1, 2, 3]))
    drains, meters = [], []
    for by_run in (False, True):
        meter = MemoryMeter()
        if kind == "classic":
            stack = ClassicStack(meter=meter)
        else:
            stack = CompressedStack(n, p, k, meter=meter)
        Runner(TestRun(), LineSource.from_text(text), stack, drain_report=False).run()
        drains.append(_drain(stack, by_run))
        meters.append(tuple(getattr(meter, f) for f in METER_FIELDS))
        assert stack.len() == 0
        stack.dispose()
        assert meter.live_bytes == 0
    assert drains[0] == drains[1]
    assert meters[0] == meters[1]


@pytest.mark.parametrize("make", [ClassicStack, lambda: CompressedStack(16, 2, 2)])
def test_pop_run_on_an_empty_stack_raises(make):
    stack = make()
    with pytest.raises(EmptyStackError):
        stack.pop_run()
    stack.push(entry(1))
    assert stack.pop_run() == [entry(1)]
    with pytest.raises(EmptyStackError):
        stack.pop_run()


def test_pop_run_takes_the_whole_run_slot():
    meter = MemoryMeter()
    cs = CompressedStack(64, 8, 1, meter=meter)  # h = 1: one run of 8
    for i in range(1, 6):
        cs.push(entry(i))
    assert [d.index for d in cs.pop_run()] == [5, 4, 3, 2, 1]
    assert cs.len() == 0 and meter.live_bytes == 0
    cs.check_invariants()


def test_pop_run_never_pops_a_scratchs_range_bottom():
    cs = CompressedStack(64, 8, 1)
    cs.guard_index = 1  # as on a replay's scratch seeded with entry 1
    for i in range(1, 6):
        cs.push(entry(i))
    popped = []
    with pytest.raises(DeterminismError, match="range bottom"):
        while True:
            popped += cs.pop_run()
    assert [d.index for d in popped] == [5, 4, 3, 2]
    assert cs.len() == 1 and cs.top(1) == entry(1)
    cs.check_invariants()


class SeenOnce(TestRun):
    """A TestRun whose post_push refuses an index it has seen: it raises
    only when a replay pushes an entry the run pushed before."""

    def __init__(self):
        self.seen = set()

    def post_push(self, entry, ctx):
        if entry.index in self.seen:
            raise KeyError(entry.index)
        self.seen.add(entry.index)


def test_a_hook_raising_only_in_a_replay_is_a_determinism_error():
    meter = MemoryMeter()
    cs = CompressedStack(4096, 8, 1, meter=meter)
    text = generate(GenSpec("xmas", 4096, 0.0, 0))
    with pytest.raises(DeterminismError, match=r"level-\d block \[\d+\.\.\d+\] raised KeyError") as exc:
        Runner(SeenOnce(), LineSource.from_text(text), cs).run()
    assert isinstance(exc.value.__cause__, KeyError)
    cs.check_invariants()
    cs.dispose()
    assert meter.live_bytes == 0


class FailingReread(LineSource):
    """Input that reads once from the start, then fails every re-read: a
    replay's cursor opens past the start."""

    def __init__(self, text, exc):
        super().__init__(data=text.encode("utf-8"))
        self.exc = exc

    def cursor(self, pos=0):
        if pos:
            raise self.exc
        return super().cursor(pos)


@pytest.mark.parametrize("exc", [OSError(5, "input read failed"), MemoryError()])
def test_a_system_error_in_a_replay_keeps_its_type(exc):
    meter = MemoryMeter()
    cs = CompressedStack(4096, 8, 1, meter=meter)
    text = generate(GenSpec("xmas", 4096, 0.0, 0))
    with pytest.raises(type(exc)) as raised:
        Runner(TestRun(), FailingReread(text, exc), cs).run()
    assert raised.value is exc
    assert meter.reconstructions == 1
    cs.check_invariants()
    cs.dispose()
    assert meter.live_bytes == 0


def test_a_push_whose_run_start_failed_can_be_retried():
    # The push crosses a deepest boundary, and copying its k-1 floor entry
    # needs a replay that no delegate can run; the retry must fail the same
    # way, not as a push below the last pushed index.
    meter = MemoryMeter()
    cs = CompressedStack(64, 2, 2, meter=meter)
    for i in range(1, 40):
        cs.push(entry(i))
    for _ in range(3):
        cs.pop()
    with pytest.raises(StackError, match="no replay delegate bound"):
        cs.pop()
    errors = []
    for _ in range(2):
        with pytest.raises(StackError) as exc:
            cs.push(entry(50))
        errors.append((type(exc.value), str(exc.value)))
        cs.check_invariants()
    assert errors[0] == errors[1]
    assert errors[0][1] == "no replay delegate bound; cannot reconstruct"
    cs.dispose()
    assert meter.live_bytes == 0


class FailingMeter(MemoryMeter):
    """A meter whose `fail_at`-th byte call raises MemoryError before it
    counts anything; `calls` counts the byte calls made."""

    __slots__ = ("calls", "fail_at")

    def __init__(self, fail_at=0):
        super().__init__()
        self.calls = 0
        self.fail_at = fail_at

    def _call(self):
        self.calls += 1
        if self.calls == self.fail_at:
            raise MemoryError

    def alloc_entry(self, count=1):
        self._call()
        super().alloc_entry(count)

    def free_entry(self, count=1):
        self._call()
        super().free_entry(count)

    def alloc_sig(self, count=1):
        self._call()
        super().alloc_sig(count)

    def free_sig(self, count=1):
        self._call()
        super().free_sig(count)


def test_dispose_after_a_memory_error_empties_the_stack():
    # A MemoryError at any byte call may leave the stack and its meter out
    # of step; dispose still empties the stack and restores the layout it
    # was built with, so the next run matches a fresh stack's.
    text = generate(GenSpec("xmas", 1024, 0.0, 0))
    fields = ("reconstructions", "replay_lines", "peak_bytes", "promotions", "pops",
              "final_len", "degraded_estimate")

    def run(cs):
        result = Runner(TestRun(), LineSource.from_text(text), cs).run()
        return result.report, tuple(getattr(result.metrics, f) for f in fields)

    meter = FailingMeter()
    fresh = run(CompressedStack(32, 3, 1, meter=meter))
    assert fresh[1][-1]  # the layout grows
    for t in random.Random(0).sample(range(1, meter.calls + 1), 30):
        cs = CompressedStack(32, 3, 1, meter=FailingMeter(t))
        with pytest.raises(MemoryError):
            run(cs)
        try:
            cs.dispose()
        except AccountingError:
            pass  # the failed call left the meter short of what the stack held
        assert cs.live == 0 and not any(cs.lists)
        assert not cs.degraded
        cs.meter = MemoryMeter()
        assert run(cs) == fresh


class HookFault(Exception):
    """The fault a sweep injects into one hook."""


def _fault_at(algo, name, t):
    """Make algo's hook `name` raise HookFault at its t-th call, counting
    from 1 over the run, its replays and its drain; return the call count."""
    hook = getattr(algo, name)
    calls = [0]

    def faulty(*args):
        calls[0] += 1
        if calls[0] == t:
            raise HookFault(f"{name} call {t}")
        return hook(*args)

    setattr(algo, name, faulty)
    return calls


# Every hook each problem has, on inputs small enough that every 23rd call
# ordinal takes a few seconds; replays make most of the calls.
HOOK_SWEEP = [
    ("xmas", 256, 2, TestRun, "post_pop"),
    ("xmas", 300, 3, TestRun, "post_pop"),
    ("points", 200, 3, UpperHull, "push_condition"),
]


@pytest.mark.parametrize("kind,n,p,algo_cls,own", HOOK_SWEEP)
def test_sampled_hook_faults_surface_and_dispose_cleanly(kind, n, p, algo_cls, own):
    # A hook that raises, in the scan, a replay or the drain, surfaces as its
    # own error, a ParseError (read_input) or a DeterminismError (a hook that
    # raised only in a replay), with the fault as the cause.  The stack stays
    # whole: dispose frees every byte, and a clean rerun matches classic.
    text = generate(GenSpec(kind, n, 0.0, 3))
    expected = Runner(algo_cls(), LineSource.from_text(text), ClassicStack()).run().report
    for name in ("initialize", "clone_context", "read_input", "pop_condition",
                 "report_line", own):
        algo = algo_cls()
        calls = _fault_at(algo, name, 0)
        Runner(algo, LineSource.from_text(text), CompressedStack(n, p, algo.k)).run()
        for t in range(1, calls[0] + 1, 23):
            algo = algo_cls()
            _fault_at(algo, name, t)
            meter = MemoryMeter()
            cs = CompressedStack(n, p, algo.k, meter=meter)
            with pytest.raises((HookFault, ParseError, DeterminismError)) as exc:
                Runner(algo, LineSource.from_text(text), cs).run()
            err = exc.value
            while not isinstance(err, HookFault):
                err = err.__cause__
                assert err is not None, f"{name} call {t} surfaced as {exc.value!r}"
            cs.check_invariants()
            cs.dispose()
            assert meter.live_bytes == 0
            rerun = Runner(algo_cls(), LineSource.from_text(text), cs).run()
            assert rerun.report == expected
