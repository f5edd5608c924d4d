import builtins
import copy
import io
import os
import random
import re
from dataclasses import dataclass, field

import pytest

from cstack.checker import DivergenceError, TwinStack, run_checked
from cstack.compressed import CompressedStack
from cstack.core import ClassicStack, ContractError, Data, DeterminismError
from cstack.generators import GenSpec, generate
from cstack.metrics import MemoryMeter
from cstack.problems import TestRun, UpperHull
from cstack.runner import LineCursor, LineSource, ParseError, Runner, StackAlgorithm

from helpers import pairs_to_text, random_trace


def test_spec_trace_drains_to_nine():
    src = LineSource.from_text("5,0\n7,0\n3,2\n9,1\n")
    runner = Runner(TestRun(), src, ClassicStack())
    result = runner.run()
    assert result.report == ["9"]


def test_empty_input_reports_nothing():
    runner = Runner(TestRun(), LineSource.from_text(""), ClassicStack())
    result = runner.run()
    assert result.report == []
    assert result.metrics.pushes == 0


def test_pop_loop_stops_at_empty_stack():
    src = LineSource.from_text("1,0\n2,5\n")
    result = Runner(TestRun(), src, ClassicStack()).run()
    assert result.report == ["2"]


def test_reports_identical_across_stacks():
    rng = random.Random(2)
    pairs = random_trace(rng, 500)
    text = pairs_to_text(pairs)
    classic = Runner(TestRun(), LineSource.from_text(text), ClassicStack()).run()
    cs = CompressedStack(500, 3, 1)
    compressed = Runner(TestRun(), LineSource.from_text(text), cs).run()
    assert classic.report == compressed.report


def test_malformed_line_reports_position():
    src = LineSource.from_text("5,0\nnot-a-pair\n")
    with pytest.raises(ParseError) as exc:
        Runner(TestRun(), src, ClassicStack()).run()
    assert exc.value.line_no == 2


def test_undecodable_line_reports_position():
    src = LineSource(data=b"5,0\n# a comment\n7,\xff0\n9,0\n")
    with pytest.raises(ParseError, match=r"line 2: not valid UTF-8") as exc:
        Runner(TestRun(), src, ClassicStack()).run()
    assert exc.value.line_no == 2


def test_undecodable_comment_is_skipped():
    src = LineSource(data=b"5,0\n# caf\xe9\n7,0\n")
    assert Runner(TestRun(), src, ClassicStack()).run().report == ["7", "5"]


def test_malformed_line_during_replay_reports_position():
    # The forward scan reads the clean input; every cursor a replay opens
    # (pos > 0) reads a copy whose line 5 no longer parses.  Pushing 17
    # demotes the block [1..16], which folds its held level-2 block [1..8]
    # into one signature; the pops then reach it and its replay reads 2..8.
    pairs = [(i, 0) for i in range(1, 18)] + [(18, 12)]
    text = pairs_to_text(pairs)
    corrupted = text.replace("\n5,0\n", "\nx,0\n").encode()

    class ChangedOnReplay(LineSource):
        def cursor(self, pos=0):
            if not pos:
                return super().cursor(pos)
            handle = io.BytesIO(corrupted)
            handle.seek(pos)
            return LineCursor(handle, pos)

    with pytest.raises(ParseError) as exc:
        Runner(TestRun(), ChangedOnReplay.from_text(text), CompressedStack(18, 2, 1)).run()
    assert exc.value.line_no == 5


def test_input_ending_during_replay_reports_position():
    # The forward scan reads the whole input; every cursor a replay opens
    # (pos > 0) reads it cut after line 4, so the first replay, of the
    # block whose bottom is 9, finds no line 10.
    pairs = [(i, 0) for i in range(1, 18)] + [(18, 12)]
    text = pairs_to_text(pairs)
    cut = "".join(text.splitlines(keepends=True)[:4]).encode()

    class CutOnReplay(LineSource):
        def cursor(self, pos=0):
            if not pos:
                return super().cursor(pos)
            handle = io.BytesIO(cut)
            handle.seek(pos)
            return LineCursor(handle, pos)

    meter = MemoryMeter()
    cs = CompressedStack(18, 2, 1, meter=meter)
    with pytest.raises(ParseError, match="input ended during replay") as exc:
        Runner(TestRun(), CutOnReplay.from_text(text), cs).run()
    assert exc.value.line_no == 10
    cs.check_invariants()
    cs.dispose()
    assert meter.live_bytes == 0


def test_changed_input_raises_instead_of_replaying_other_lines(tmp_path):
    # Adding 1 to every value between the scan and the drain would make the
    # drain's replays rebuild other entries than the scan pushed.  The mtime
    # is set explicitly, so the check does not rest on the filesystem's
    # timestamp granularity.
    path = tmp_path / "xmas.txt"
    generate(GenSpec("xmas", 4096, 0.0, 3, str(path)))
    meter = MemoryMeter()
    cs = CompressedStack(4096, 8, 1, meter=meter)
    with LineSource.from_path(path) as source:
        Runner(TestRun(), source, cs, drain_report=False).run()
        st = os.stat(path)

        def bump(line):
            if line.startswith("#"):
                return line
            value, pops = line.split(",")
            return f"{int(value) + 1},{pops}"

        path.write_text("\n".join(map(bump, path.read_text().splitlines())) + "\n")
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10 ** 9))
        with pytest.raises(DeterminismError, match=re.escape(str(path))):
            while cs.len():
                cs.pop()
    cs.check_invariants()
    cs.dispose()
    assert meter.live_bytes == 0


def test_comment_and_blank_lines_skipped():
    src = LineSource.from_text("# kind=pushonly n=2 rho=1 seed=0\n\n5,0\n\n7,0\n")
    result = Runner(TestRun(), src, ClassicStack()).run()
    assert result.report == ["7", "5"]


def test_cursor_skips_indented_and_lone_comments_but_keeps_inline_hash():
    data = b"  # indented\n#\n\t#tab\n5,0 # trailing\n   \n#\n7,0\n"
    with LineSource(data=data) as source:
        cursor = source.cursor()
        assert cursor.read() == ("5,0 # trailing", data.index(b"   \n"))
        assert cursor.read() == ("7,0", len(data))
        assert cursor.read() is None
        cursor.close()


def test_hook_order_follows_pop_loop_then_push():
    calls = []

    class Recording(TestRun):
        def read_input(self, line, ctx):
            calls.append("read")
            return super().read_input(line, ctx)

        def pop_condition(self, payload, ctx, top):
            calls.append("pop?")
            return super().pop_condition(payload, ctx, top)

        def pre_pop(self, payload, ctx):
            calls.append("prePop")

        def post_pop(self, payload, popped, ctx):
            calls.append("postPop")
            super().post_pop(payload, popped, ctx)

        def no_pop(self, payload, ctx):
            calls.append("noPop")

        def push_condition(self, payload, ctx, top):
            calls.append("push?")
            return True

        def pre_push(self, payload, ctx):
            calls.append("prePush")

        def post_push(self, entry, ctx):
            calls.append("postPush")

        def no_push(self, payload, ctx):
            calls.append("noPush")

    src = LineSource.from_text("5,0\n7,0\n3,2\n")
    Runner(Recording(), src, ClassicStack(), drain_report=False).run()
    assert calls == [
        # element 1: empty stack skips the pop loop entirely
        "read", "push?", "prePush", "postPush",
        # element 2: one no-pop exit, then push
        "read", "pop?", "noPop", "push?", "prePush", "postPush",
        # element 3: two pops drain the stack, the loop exits on emptiness
        "read", "pop?", "prePop", "postPop", "pop?", "prePop", "postPop",
        "push?", "prePush", "postPush",
    ]


class PrePushOnly(TestRun):
    """Overrides pre_push alone of the hooks StackAlgorithm leaves as no-ops."""

    def pre_push(self, payload, ctx):
        self.calls.append((self.meter.replay_depth, payload.value))


def post_pop_on_the_instance():
    """UpperHull, which leaves post_pop as the base no-op, with one set on
    the instance before its Runner is built."""
    algo = UpperHull()
    algo.post_pop = lambda payload, popped, ctx: algo.calls.append(
        (algo.meter.replay_depth, popped.index)
    )
    return algo


@pytest.mark.parametrize("make_algo", [PrePushOnly, post_pop_on_the_instance])
def test_a_hook_overridden_alone_is_called_in_the_run_and_in_replays(make_algo):
    # The runner skips the hooks an algorithm leaves as StackAlgorithm's
    # no-ops; one overridden in the class or set on the instance still runs,
    # in order, in the run and in every replay.
    n = 600
    if make_algo is PrePushOnly:
        pairs = random_trace(random.Random(4), n)
        text = pairs_to_text([(i, pops) for i, (_, pops) in enumerate(pairs, 1)])
    else:
        text = generate(GenSpec("points", n, 0.0, 3))
    runs = []
    for stack_kind in ("classic", "compressed"):
        algo = make_algo()
        algo.calls = []
        algo.meter = MemoryMeter()
        if stack_kind == "classic":
            stack = ClassicStack(meter=algo.meter)
        else:
            stack = CompressedStack(n, 2, algo.k, meter=algo.meter)
        result = Runner(algo, LineSource.from_text(text), stack).run()
        runs.append((result, algo.calls))
    (classic, classic_calls), (compressed, calls) = runs
    assert compressed.report == classic.report
    m, c = compressed.metrics, classic.metrics
    assert (m.pushes, m.pops) == (c.pushes, c.pops)
    assert classic_calls and all(depth == 0 for depth, _ in classic_calls)
    assert [key for depth, key in calls if depth == 0] == [key for _, key in classic_calls]
    replayed = [key for depth, key in calls if depth > 0]
    assert replayed and set(replayed) <= {key for _, key in classic_calls}


def test_a_hook_set_after_the_runner_is_built_is_not_called():
    # A Runner binds the hooks when it is built: one set on the instance
    # afterwards is called neither in the run nor in a replay.
    n = 512
    calls = []
    algo = TestRun()
    meter = MemoryMeter()
    text = generate(GenSpec("xmas", n, 0.0, 0))
    runner = Runner(algo, LineSource.from_text(text), CompressedStack(n, 2, 1, meter=meter))
    algo.pre_push = lambda payload, ctx: calls.append(("pre_push", meter.replay_depth))
    algo.post_push = lambda entry, ctx: calls.append(("post_push", meter.replay_depth))
    runner.run()
    assert meter.reconstructions > 0
    assert calls == []


def test_context_snapshot_taken_after_pre_push():
    # The compressed stack keeps a snapshot on the entries that start its
    # runs, the only ones a replay restarts from, taken after pre_push and
    # before post_push; the entries pushed onto a run carry none.
    seen = []

    class Stamping(TestRun):
        def pre_push(self, payload, ctx):
            ctx.remaining_pops = 77

        def post_push(self, entry, ctx):
            snap = stack.top(1).ctx_snapshot
            seen.append(None if snap is None else snap.remaining_pops)
            ctx.remaining_pops = 0

    stack = CompressedStack(9, 3, k=1)  # deepest blocks [1..3], [4..6], [7..9]
    src = LineSource.from_text(pairs_to_text([(v, 0) for v in range(1, 8)]))
    Runner(Stamping(), src, stack, drain_report=False).run()
    assert seen == [77, None, None, 77, None, None, 77]


class CountingClones:
    clones = 0

    def clone_context(self, ctx):
        self.clones += 1
        return super().clone_context(ctx)


class CountingTestRun(CountingClones, TestRun):
    pass


class CountingHull(CountingClones, UpperHull):
    pass


class CountingReplays(Runner):
    replays = 0

    def replay_segment(self, scratch, bottom, last_index):
        self.replays += 1
        super().replay_segment(scratch, bottom, last_index)


def test_classic_run_takes_no_snapshot():
    algo = CountingTestRun()
    text = generate(GenSpec("xmas", 1024, 0.0, 0))
    result = Runner(algo, LineSource.from_text(text), ClassicStack()).run()
    assert result.metrics.pushes > 0
    assert algo.clones == 0


def test_pushonly_scan_snapshots_once_per_deepest_block():
    n = 1000
    algo = CountingTestRun()
    stack = CompressedStack(n, 4, k=1)
    text = generate(GenSpec("pushonly", n, 1.0, 0))
    Runner(algo, LineSource.from_text(text), stack, drain_report=False).run()
    assert stack.meter.reconstructions == 0
    s = stack.geom.sizes[-1]
    assert algo.clones == -(-n // s) < n


def test_context_free_algorithm_takes_no_snapshot():
    # UpperHull's context is None, which no hook can replace: replays
    # restart from None without any copy taken during the scan.
    text = generate(GenSpec("points", 2048, 0.0, 3))
    algo = CountingHull()
    runner = CountingReplays(algo, LineSource.from_text(text), CompressedStack(2048, 4, k=2))
    report = runner.run().report
    assert runner.replays > 0
    assert algo.clones == runner.replays
    assert report == Runner(UpperHull(), LineSource.from_text(text), ClassicStack()).run().report


@pytest.mark.parametrize("p", [2, 4, 32])
def test_snapshots_are_run_starts_plus_one_per_replay(monkeypatch, p):
    starts = []
    start_run = CompressedStack._start_run

    def counting(self, index):
        if self.snapshot is not None:  # a replay's seeded bottom has its own
            starts.append(index)
        return start_run(self, index)

    monkeypatch.setattr(CompressedStack, "_start_run", counting)
    algo = CountingTestRun()
    text = generate(GenSpec("xmas", 2048, 0.0, 1))
    runner = CountingReplays(algo, LineSource.from_text(text), CompressedStack(2048, p, k=1))
    result = runner.run()
    assert runner.replays > 0
    assert algo.clones == len(starts) + runner.replays
    assert len(starts) < result.metrics.pushes


def test_run_opens_its_input_once(tmp_path, monkeypatch):
    path = tmp_path / "xmas.txt"
    generate(GenSpec("xmas", 4096, 0.0, 3, str(path)))
    opens = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opens.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    with LineSource.from_path(path) as source:
        result = Runner(TestRun(), source, CompressedStack(4096, 8, 1)).run()
    assert result.metrics.reconstructions > 0
    assert len(opens) == 1


def test_input_replaced_by_rename_is_read_from_the_original(tmp_path):
    # The replacement holds other values, so a replay that read it would
    # rebuild other entries than the scan pushed.
    path = tmp_path / "xmas.txt"
    text = generate(GenSpec("xmas", 4096, 0.0, 3, str(path)))
    expected = Runner(TestRun(), LineSource.from_text(text), ClassicStack()).run().report
    cs = CompressedStack(4096, 8, 1)
    with LineSource.from_path(path) as source:
        runner = Runner(TestRun(), source, cs, drain_report=False)
        runner.run()
        st = os.stat(path)
        other = tmp_path / "other.txt"
        other.write_text(text.replace(",", "1,"))
        os.utime(other, ns=(st.st_atime_ns, st.st_mtime_ns + 10 ** 9))
        os.replace(other, path)
        report = []
        while cs.len():
            report.append(str(cs.pop().payload.value))
    assert runner.meter.reconstructions > 0
    assert report == expected


@dataclass
class SeenContext:
    remaining_pops: int = 0
    seen: list = field(default_factory=lambda: [0])


class SeenRun(StackAlgorithm):
    """TestRun-like, but each payload also carries the number of pushes so
    far, which post_push counts in a list that the context holds."""

    def initialize(self):
        return SeenContext()

    def read_input(self, line, ctx):
        value, pops = map(int, line.split(","))
        ctx.remaining_pops = pops
        return value, ctx.seen[0]

    def pop_condition(self, payload, ctx, top):
        return ctx.remaining_pops > 0

    def post_pop(self, payload, popped, ctx):
        ctx.remaining_pops -= 1

    def post_push(self, entry, ctx):
        ctx.seen[0] += 1


def test_default_clone_context_shares_no_state_with_the_live_context():
    # post_push mutates a list in the context in place; a shallow snapshot
    # would share it, and replays would restart from the live count.
    text = generate(GenSpec("xmas", 4096, 0.0, 3))
    classic = Runner(SeenRun(), LineSource.from_text(text), ClassicStack()).run()
    compressed = Runner(SeenRun(), LineSource.from_text(text), CompressedStack(4096, 8, 1)).run()
    assert compressed.metrics.reconstructions > 0
    assert compressed.report == classic.report


def test_checker_reports_a_shallow_snapshot_as_a_divergence():
    # With a shallow clone every snapshot shares the live `seen` list, so
    # the first replay rebuilds payloads that the classic stack never held.
    class ShallowSeenRun(SeenRun):
        def clone_context(self, ctx):
            return copy.copy(ctx)

    text = generate(GenSpec("xmas", 4096, 0.0, 3))
    ok, detail = run_checked(ShallowSeenRun(), LineSource.from_text(text), 8, n_expect=4096)
    assert not ok
    assert detail.startswith("divergence at operation 105: pop returned ")


def test_a_disposed_stack_replays_its_new_runners_input():
    # dispose() leaves a stack that takes pushes as a new one does, so a
    # second Runner on it replays its own input.  The two inputs share the
    # pop column and the width of every line, so replays that re-read the
    # first input would find lines at the same offsets and raise nothing.
    text = generate(GenSpec("xmas", 4096, 0.0, 3))
    pops = [line.split(",")[1] for line in text.splitlines()
            if line and not line.startswith("#")]
    first, second = (
        "".join(f"{base + i},{p}\n" for i, p in enumerate(pops))
        for base in (100000, 200000)
    )
    cs = CompressedStack(4096, 8, 1)
    Runner(TestRun(), LineSource.from_text(first), cs).run()
    cs.dispose()
    result = Runner(TestRun(), LineSource.from_text(second), cs).run()
    classic = Runner(TestRun(), LineSource.from_text(second), ClassicStack()).run()
    assert result.metrics.reconstructions > 0
    assert result.report == classic.report


def test_cursor_closes_once_and_not_after_its_source():
    src = LineSource.from_text("1,0\n2,0\n3,0\n")
    outer = src.cursor(0)
    _, pos1 = outer.read()
    inner = src.cursor(pos1)
    inner.read()
    inner.close()
    assert src._handle.tell() == pos1
    outer.read()
    inner.close()  # a second close leaves the handle where it is
    assert outer.read() == ("3,0", src._handle.tell())
    src.close()
    outer.close()  # the handle is gone; nothing to hand back


def test_cursor_reopens_at_saved_positions():
    src = LineSource.from_text("a,0\nb,0\nc,0\n".replace("a", "1").replace("b", "2").replace("c", "3"))
    cur = src.cursor(0)
    line1, pos1 = cur.read()
    line2, pos2 = cur.read()
    again = src.cursor(pos1)
    assert again.read() == (line2, pos2)
    line3, pos3 = again.read()
    again.close()
    # the outer cursor resumes where it stopped, not where the nested one did
    assert cur.read() == (line3, pos3)
    assert cur.read() is None
    src.close()


class TestChecker:
    def test_testrun_traces_pass(self):
        rng = random.Random(6)
        for _ in range(10):
            pairs = random_trace(rng, 300)
            ok, detail = run_checked(
                TestRun(), LineSource.from_text(pairs_to_text(pairs)),
                rng.choice([2, 3, 10]), n_expect=300,
            )
            assert ok, detail

    def test_corrupted_entry_reported_with_ordinal(self):
        class Sabotage(TestRun):
            def post_push(self, entry, ctx):
                if entry.index == 7:
                    bad = Data(entry.index, type(entry.payload)(999999, 0),
                               entry.ctx_snapshot, entry.stream_pos)
                    self.twin.lists[-1][-1] = bad

        pairs = [(i, 0) for i in range(1, 17)]
        algo = Sabotage()
        meter = MemoryMeter()
        twin = TwinStack(16, 2, 1, meter=meter, deep=True)
        algo.twin = twin
        runner = Runner(algo, LineSource.from_text(pairs_to_text(pairs)), twin)
        with pytest.raises(DivergenceError) as exc:
            runner.run()
        assert exc.value.ordinal > 0
        assert "index 7" in str(exc.value)

    def test_resident_entry_missing_from_classic_stack_reported(self):
        class Sabotage(TestRun):
            def post_push(self, entry, ctx):
                if entry.index == 7:
                    self.twin.lists[-1][-1] = entry._replace(index=1000)

        pairs = [(i, 0) for i in range(1, 17)]
        algo = Sabotage()
        twin = TwinStack(16, 2, 1, deep=True)
        algo.twin = twin
        runner = Runner(algo, LineSource.from_text(pairs_to_text(pairs)), twin)
        with pytest.raises(DivergenceError, match="index 1000 not live in classic stack"):
            runner.run()

    @staticmethod
    def _deep_twin(pops):
        """A deep k=2 twin at p=2 after direct pushes of 1..14 and `pops` pops:
        `first`'s held[2], lists[7], holds the signatures of [9, 10] and
        [11, 12], floors [8] and [10], and its run [13, 14] has floor [12]."""
        twin = TwinStack(16, 2, 2, deep=True)
        for i in range(1, 15):
            twin.push(Data(i, i, None, i))
        for _ in range(pops):
            twin.pop()
        return twin

    def test_corrupted_signature_bottom_reported(self):
        twin = self._deep_twin(0)
        group = twin.lists[7]
        group[1] = group[1]._replace(bottom=group[1].bottom._replace(payload=-1))
        with pytest.raises(DivergenceError, match=r"index 11: Data\(index=11, payload=-1"):
            twin.verify_now()

    def test_corrupted_signature_floor_reported(self):
        twin = self._deep_twin(0)
        group = twin.lists[7]
        group[0] = group[0]._replace(floor=(group[0].floor[0]._replace(payload=-1),))
        with pytest.raises(DivergenceError, match=r"index 8: Data\(index=8, payload=-1"):
            twin.verify_now()

    def test_corrupted_emptied_run_floor_reported(self):
        # popping 14 and 13 empties the run slot; its floor [12] stays
        twin = self._deep_twin(2)
        run = twin.lists[-1]
        assert not run and [d.index for d in run.floor] == [12]
        run.floor = (run.floor[0]._replace(index=1000),)
        with pytest.raises(DivergenceError, match="index 1000 not live in classic stack"):
            twin.verify_now()

    def test_the_drain_checks_each_entry_of_a_run(self):
        # Without deep checks nothing looks at resident entries until they
        # are popped, so the corrupted entry 15 reaches the drain, which
        # takes the run [15, 16] in one pop_run and must match both entries.
        class Sabotage(TestRun):
            def post_push(self, entry, ctx):
                if entry.index == 16:
                    run = self.twin.lists[-1]
                    run[0] = run[0]._replace(payload=type(entry.payload)(999999, 0))

        pairs = [(i, 0) for i in range(1, 17)]
        algo = Sabotage()
        twin = TwinStack(16, 2, 1)
        algo.twin = twin
        runner = Runner(algo, LineSource.from_text(pairs_to_text(pairs)), twin)
        with pytest.raises(DivergenceError, match=r"pop returned Data\(index=15") as exc:
            runner.run()
        assert exc.value.ordinal == 18  # 16 pushes, then the pops of 16 and 15

    def test_upperhull_instances_pass(self):
        from cstack.generators import GenSpec, generate

        for seed in range(5):
            text = generate(GenSpec("points", 200, seed=seed))
            ok, detail = run_checked(
                UpperHull(), LineSource.from_text(text), 5, n_expect=200,
            )
            assert ok, detail


def test_pushes_and_pops_counted_without_replay_inflation():
    # the level-2 block [1..4] is held as the signatures of [1, 2] and
    # [3, 4], so the pops of 4 and of 2 each replay one line: two
    # reconstructions and two lines, where replaying [1..4] whole took one
    # reconstruction and three lines
    pairs = [(v, 0) for v in range(16, 8, -1)] + [(5, 8)]
    src = LineSource.from_text(pairs_to_text(pairs))
    meter = MemoryMeter()
    cs = CompressedStack(16, 2, 1, meter=meter)
    runner = Runner(TestRun(), src, cs, drain_report=False)
    result = runner.run()
    assert runner.meter.reconstructions == 2
    assert meter.replay_lines == 2
    assert result.metrics.pushes == 9
    assert result.metrics.pops == 8  # the replayed pushes of 2..4 are not counted


class EveryThirdDeclined(TestRun):
    """TestRun that declines to push every third element and counts the
    post_push and post_pop calls it sees."""

    def __init__(self):
        self.post_pushes = self.post_pops = 0

    def push_condition(self, payload, ctx, top):
        return payload.value % 3 != 0

    def post_push(self, entry, ctx):
        self.post_pushes += 1

    def post_pop(self, payload, popped, ctx):
        super().post_pop(payload, popped, ctx)
        self.post_pops += 1


@pytest.mark.parametrize("drain", [False, True])
def test_pops_derived_from_pushes_when_pushes_are_declined(drain):
    # the run counts pushes only and derives pops: every pushed entry is
    # popped by the scan or the drain, or left on the stack
    pairs = [(i, c) for i, (_, c) in enumerate(random_trace(random.Random(25), 300), 1)]
    counts = {}
    for name, stack in (("classic", ClassicStack()), ("compressed", CompressedStack(300, 2))):
        algo = EveryThirdDeclined()
        runner = Runner(algo, LineSource.from_text(pairs_to_text(pairs)), stack,
                        drain_report=drain)
        m = runner.run().metrics
        counts[name] = (m.pushes, m.pops)
        if name == "classic":
            assert m.pushes == 200 and m.final_len > 0 and algo.post_pops > 0
            drained = m.final_len if drain else 0
            assert counts[name] == (algo.post_pushes, algo.post_pops + drained)
        else:
            assert runner.meter.reconstructions > 0
    assert counts["compressed"] == counts["classic"]


def test_classic_runs_count_zero_reconstructions():
    src = LineSource.from_text("5,0\n7,1\n")
    runner = Runner(TestRun(), src, ClassicStack())
    runner.run()
    assert runner.meter.reconstructions == 0


def _k2_stacks():
    return [ClassicStack(), CompressedStack(16, 2, 2)]


class FailingPostPush(TestRun):
    """TestRun, whose context a compressed stack snapshots, with k = 2 and a
    post_push that raises at element 3."""

    k = 2

    def post_push(self, entry, ctx):
        if entry.index == 3:
            raise ValueError("post_push failed")


@pytest.mark.parametrize("stack", _k2_stacks(), ids=["classic", "compressed"])
def test_cursor_closed_when_a_hook_raises(stack, tmp_path):
    # UpperHull has no context to snapshot; FailingPostPush's is snapshotted
    # while the hook raises.  Either way the loop hands the handle back and
    # unbinds the snapshot.
    for algo, text, match in ((UpperHull(), "2,0\n1,5\n3,1\n", "not sorted"),
                              (FailingPostPush(), "1,0\n2,0\n3,0\n", "post_push failed")):
        stack.dispose()
        src = LineSource.from_text(text)
        with pytest.raises(ValueError, match=match):
            Runner(algo, src, stack).run()
        assert src._handle.tell() == 0  # the run's cursor handed the handle back
        assert getattr(stack, "snapshot", None) is None
        handle = src._handle
        src.close()
        assert handle.closed and src._handle is None
    # An input that cannot be opened fails before anything is bound.
    with pytest.raises(FileNotFoundError):
        Runner(TestRun(), LineSource.from_path(tmp_path / "absent.txt"), stack).run()
    assert getattr(stack, "snapshot", None) is None


class TestTopView:
    class Probing(TestRun):
        """TestRun whose push condition records its top(1) and top(2) probes."""

        def __init__(self, k, probes):
            self.k = k
            self.probes = probes

        def push_condition(self, payload, ctx, top):
            self.probes.append((payload.value, top(1), top(2)))
            return True

    @pytest.mark.parametrize(
        "stack",
        [ClassicStack(), CompressedStack(16, 2, 1), CompressedStack(16, 2, 2),
         TwinStack(16, 2, 1), TwinStack(16, 2, 2)],
        ids=["classic", "compressed-k1", "compressed-k2", "twin-k1", "twin-k2"],
    )
    def test_probe_beyond_declared_depth_is_refused(self, stack):
        src = LineSource.from_text("5,0\n7,0\n")
        with pytest.raises(ContractError):
            Runner(self.Probing(1, []), src, stack).run()

    @pytest.mark.parametrize(
        "k, stack, own",
        [(2, CompressedStack(16, 2, 2), True), (2, TwinStack(16, 2, 2), True),
         (2, ClassicStack(), False), (1, CompressedStack(16, 2, 2), False)],
        ids=["compressed-k2", "twin-k2", "classic", "compressed-k2-algo-k1"],
    )
    def test_a_stack_declaring_the_algorithms_k_hands_over_its_own_top(self, k, stack, own):
        # Such a stack checks the depth itself; any other gets a checking wrapper.
        tops = []

        class Recording(TestRun):
            def push_condition(self, payload, ctx, top):
                tops.append(top)
                return True

        algo = Recording()
        algo.k = k
        Runner(algo, LineSource.from_text("5,0\n7,0\n"), stack, drain_report=False).run()
        assert len(tops) == 2
        assert all((top == stack.top) == own for top in tops)

    @pytest.mark.parametrize(
        "stack", _k2_stacks() + [TwinStack(16, 2, 2)], ids=["classic", "compressed", "twin"]
    )
    def test_probe_deeper_than_the_stack_reads_none(self, stack):
        probes = []
        src = LineSource.from_text("5,0\n7,0\n9,0\n")
        Runner(self.Probing(2, probes), src, stack, drain_report=False).run()
        assert [(v, t1 and t1.index, t2 and t2.index) for v, t1, t2 in probes] == [
            (5, None, None), (7, 1, None), (9, 2, 1),
        ]

    def test_probe_below_a_replayed_range_reads_the_floor(self):
        # Sixteen pushes fold blocks away; the final pops replay them, and
        # each replay's second element sees only the replayed bottom on the
        # scratch stack, so its top(2) must come from the signature's floor.
        pairs = [(i, 0) for i in range(1, 17)] + [(17, 12)]
        probes = []
        meter = MemoryMeter()
        stack = CompressedStack(17, 2, 2, meter=meter)
        Runner(self.Probing(2, probes), LineSource.from_text(pairs_to_text(pairs)),
               stack, drain_report=False).run()
        assert meter.reconstructions > 0
        forward = {}
        replayed = 0
        for value, t1, t2 in probes:
            if value in forward:
                replayed += 1
                assert (t1, t2) == forward[value]
            else:
                forward[value] = (t1, t2)
        assert replayed > 0
        assert all(t2 is not None for v, t1, t2 in probes if v > 2)
