"""Acceptance suite: one test per release criterion, in order.

Each test prints a "[criterion N] PASS" line on success; run with
`pytest tests/test_acceptance.py -v -s` to see them.  Criteria 1-3 execute
with per-operation space-cap checking enabled; criterion 10 summarizes that
evidence, so this module is meant to run in file order.
"""

import random
import time

import pytest

from cstack.checker import TwinStack, run_checked
from cstack.core import ClassicStack
from cstack.generators import GenSpec, generate
from cstack.metrics import DATA_BYTES, MemoryMeter, resolve_p
from cstack.problems import TestRun, UpperHull
from cstack.runner import LineSource, Runner
from cstack.bench import ensure_input, execute_run

from helpers import ProbedTestRun, pairs_to_text, random_trace
from oracles import replay_testrun, upper_hull_chain, xmas_height_steps

CAP_EVIDENCE = {"suite1": 0, "suite2": 0, "suite3": 0}


def sample_sizes(rng, count, buckets):
    """Draw `count` sizes from (weight, lo, hi) buckets, log-ish spread."""
    total = sum(w for w, _, _ in buckets)
    sizes = []
    for _ in range(count):
        pick = rng.uniform(0, total)
        for w, lo, hi in buckets:
            if pick <= w:
                sizes.append(rng.randint(lo, hi))
                break
            pick -= w
    return sizes


def twin_run(algo_cls, text, n, p, k):
    meter = MemoryMeter()
    twin = TwinStack(n, p, k, meter=meter, deep=False)
    runner = Runner(algo_cls(), LineSource.from_text(text), twin)
    return runner.run(), twin


def test_criterion_1_oracle_equivalence():
    """1000 random traces, four p values each: pops, probes, drains match."""
    t0 = time.monotonic()
    rng = random.Random(101)
    sizes = sample_sizes(rng, 1000, [(85, 64, 512), (12, 512, 2048), (3, 2048, 4096)])
    runs = 0
    for n in sizes:
        pairs = random_trace(rng, n)
        text = pairs_to_text(pairs)
        _, final = replay_testrun(pairs)
        want = [str(v) for v in reversed(final)]
        for p in (2, 3, 10, resolve_p("sqrt", n)):
            result, twin = twin_run(TestRun, text, n, p, 1)
            assert result.report == want
            runs += 1
    CAP_EVIDENCE["suite1"] = runs
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"criterion 1 overran its budget: {elapsed:.0f}s"
    print(f"\n[criterion 1] PASS - 1000 traces x 4 p-values, exact equality ({elapsed:.0f}s)")


def test_criterion_2_checker_suite():
    """Lockstep state verification over random inputs for both problems."""
    t0 = time.monotonic()
    rng = random.Random(202)
    checked = 0
    sizes = sample_sizes(rng, 100, [(70, 32, 256), (25, 256, 1024), (5, 1024, 4096)])
    for n in sizes:
        text = pairs_to_text(random_trace(rng, n))
        for p in (2, 10, resolve_p("sqrt", n)):
            ok, detail = run_checked(TestRun(), LineSource.from_text(text), p, n_expect=n)
            assert ok, detail
            checked += 1
    sizes = sample_sizes(rng, 50, [(35, 16, 256), (12, 256, 1024), (3, 1024, 4096)])
    for i, n in enumerate(sizes):
        text = generate(GenSpec("points", n, seed=5000 + i))
        for p in (2, 10, resolve_p("sqrt", n)):
            ok, detail = run_checked(UpperHull(), LineSource.from_text(text), p, n_expect=n)
            assert ok, detail
            checked += 1
    CAP_EVIDENCE["suite2"] = checked
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"criterion 2 overran its budget: {elapsed:.0f}s"
    print(f"[criterion 2] PASS - {checked} lockstep-verified runs ({elapsed:.0f}s)")


def test_criterion_3_upper_hull_correctness():
    """10^4 random sorted point sets match the chain oracle on both stacks."""
    t0 = time.monotonic()
    rng = random.Random(303)
    sizes = sample_sizes(rng, 10_000, [(90, 4, 128), (9, 128, 1024), (1, 1024, 2048)])
    for i, n in enumerate(sizes):
        text = generate(GenSpec("points", n, seed=40_000 + i))
        pts = [tuple(map(float, l.split(",")))
               for l in text.splitlines() if not l.startswith("#")]
        want = [f"{x!r},{y!r}" for x, y in reversed(upper_hull_chain(pts))]
        p = resolve_p("sqrt", n)
        result, twin = twin_run(UpperHull, text, n, p, 2)
        assert result.report == want
    CAP_EVIDENCE["suite3"] = len(sizes)
    elapsed = time.monotonic() - t0
    assert elapsed < 180, f"criterion 3 overran its budget: {elapsed:.0f}s"
    print(f"[criterion 3] PASS - 10000 hulls equal the oracle under both stacks ({elapsed:.0f}s)")


def test_criterion_4_nested_cycle_heights():
    """Stack is 32 high after 64 elements, 16 after the first deep drop,
    128 after 512 elements; checked on the schedule and on a real run."""
    steps = {(m, d): h for m, d, h in xmas_height_steps(600)}
    assert steps[(64, 0)] == 32
    assert steps[(64, 1)] == 16
    assert steps[(512, 1)] == 128

    heights = {}

    class Counted(ProbedTestRun):
        # a classic stack never replays, so this counts each element once
        elements = 0

        def read_input(self, line, ctx):
            self.elements += 1
            return super().read_input(line, ctx)

    def on_pop(runner, popped):
        heights.setdefault(algo.elements, []).append(runner.stack.len())

    text = generate(GenSpec("xmas", 600, seed=0))
    algo = Counted(on_pop=on_pop)
    runner = Runner(algo, LineSource.from_text(text), ClassicStack(), drain_report=False)
    algo._runner = runner
    runner.run()
    # the pops carried by elements 65 and 513 realize the same checkpoints
    assert heights[65][3] == 32 and heights[65][-1] == 16
    assert heights[513][19] == 128
    print("[criterion 4] PASS - heights 32/16/128 at elements 64/64/512, schedule and run")


def test_criterion_5_two_thirds_power_growth():
    """Classic peak height quadruples per eightfold input growth, within 10%."""
    peaks = []
    for k in range(1, 6):
        n = 8 ** (k + 1)
        text = generate(GenSpec("xmas", n, seed=0))
        meter = MemoryMeter()
        runner = Runner(TestRun(), LineSource.from_text(text),
                        ClassicStack(meter=meter), drain_report=False)
        runner.run()
        peaks.append(meter.peak_bytes // DATA_BYTES)
    ratios = [b / a for a, b in zip(peaks, peaks[1:])]
    assert all(abs(r / 4 - 1) <= 0.10 for r in ratios), (peaks, ratios)
    print(f"[criterion 5] PASS - peak heights {peaks}, ratios within 10% of 4")


def test_criterion_6_memory_separation(tmp_path):
    """Push-only at 2^19: compressed with p=log n needs <=1% of classic."""
    t0 = time.monotonic()
    n = 2 ** 19
    path = ensure_input(GenSpec("pushonly", n, 1.0, 0), tmp_path)
    with LineSource.from_path(path) as src:
        classic = execute_run("testrun", src, "classic", n_expect=n,
                              collect_report=False, drain_report=False)
    with LineSource.from_path(path) as src:
        compressed = execute_run("testrun", src, "compressed", n_expect=n,
                                 p=resolve_p("log", n),
                                 collect_report=False, drain_report=False)
    assert compressed.metrics.peak_bytes <= classic.metrics.peak_bytes / 100
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"criterion 6 overran its budget: {elapsed:.0f}s"
    ratio = classic.metrics.peak_bytes / compressed.metrics.peak_bytes
    print(f"[criterion 6] PASS - classic/compressed peak ratio {ratio:.0f} ({elapsed:.0f}s)")


def test_criterion_7_parameter_imbalance(tmp_path):
    """p=500 on a 2^10 input wastes memory: compressed peak >= classic peak."""
    n = 2 ** 10
    path = ensure_input(GenSpec("pushonly", n, 1.0, 0), tmp_path)
    with LineSource.from_path(path) as src:
        classic = execute_run("testrun", src, "classic", n_expect=n,
                              collect_report=False, drain_report=False)
    with LineSource.from_path(path) as src:
        compressed = execute_run("testrun", src, "compressed", n_expect=n, p=500,
                                 collect_report=False, drain_report=False)
    assert compressed.metrics.peak_bytes >= classic.metrics.peak_bytes
    print(f"[criterion 7] PASS - p=500 peak {compressed.metrics.peak_bytes} >= "
          f"classic {classic.metrics.peak_bytes} at n=2^10")


def test_criterion_8_zero_reconstructions(tmp_path):
    """A run that never pops never replays, for any p."""
    n = 2 ** 15
    path = ensure_input(GenSpec("pushonly", n, 1.0, 0), tmp_path)
    for p in (2, 10, 500, resolve_p("sqrt", n), resolve_p("log", n)):
        with LineSource.from_path(path) as src:
            result = execute_run("testrun", src, "compressed", n_expect=n, p=p,
                                 collect_report=False, drain_report=False)
        assert result.metrics.reconstructions == 0, (p, result.metrics)
    print("[criterion 8] PASS - zero reconstructions across five p choices")


def test_criterion_9_reconstruction_monotonicity(tmp_path):
    """Nested-cycle workload at 2^14: more space means fewer replays."""
    n = 2 ** 14
    path = ensure_input(GenSpec("xmas", n, 0.0, 0), tmp_path)
    counts = []
    for p in (10, 50, 100, 500):
        with LineSource.from_path(path) as src:
            result = execute_run("testrun", src, "compressed", n_expect=n, p=p,
                                 collect_report=False, drain_report=False)
        counts.append(result.metrics.reconstructions)
    assert all(a >= b for a, b in zip(counts, counts[1:])), counts
    print(f"[criterion 9] PASS - reconstructions {counts} non-increasing over p")


def test_criterion_10_space_cap_never_fired():
    """Criteria 1-3 run with a per-operation resident cap assertion."""
    if not all(CAP_EVIDENCE.values()):
        # running standalone: gather evidence from compact reruns of 1-3
        rng = random.Random(404)
        for _ in range(30):
            n = rng.randint(64, 1024)
            text = pairs_to_text(random_trace(rng, n))
            twin_run(TestRun, text, n, rng.choice([2, 3, 10]), 1)
            CAP_EVIDENCE["suite1"] += 1
        for i in range(10):
            n = rng.randint(32, 1024)
            ok, detail = run_checked(
                TestRun(), LineSource.from_text(pairs_to_text(random_trace(rng, n))),
                rng.choice([2, 10]), n_expect=n)
            assert ok, detail
            CAP_EVIDENCE["suite2"] += 1
        for i in range(30):
            n = rng.randint(4, 512)
            text = generate(GenSpec("points", n, seed=90_000 + i))
            twin_run(UpperHull, text, n, resolve_p("sqrt", n), 2)
            CAP_EVIDENCE["suite3"] += 1
    assert all(CAP_EVIDENCE.values()), CAP_EVIDENCE
    # spot check with the full invariant set verified after every push and
    # pop, drain included
    rng = random.Random(77)
    for _ in range(5):
        n = rng.randint(64, 512)
        ok, detail = run_checked(
            TestRun(), LineSource.from_text(pairs_to_text(random_trace(rng, n))),
            rng.choice([2, 5, 12]), n_expect=n)
        assert ok, detail
    print("[criterion 10] PASS - resident cap held across every checked operation")
