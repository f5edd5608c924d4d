import math
import random

import pytest

from cstack.generators import GenSpec, cycle_pops_after, generate

from oracles import replay_testrun, xmas_height_steps, xmas_peak_height


def data_lines(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


def parse_pairs(text):
    return [tuple(map(int, l.split(","))) for l in data_lines(text)]


def test_header_carries_spec_and_rng():
    text = generate(GenSpec("pushonly", 3, rho=1.0, seed=9))
    first = text.splitlines()[0]
    assert first.startswith("# kind=pushonly n=3 rho=1 seed=9")
    assert "rng=mt19937" in first


def test_same_spec_same_bytes():
    for kind, rho in [("pushonly", 0.5), ("xmas", 0.0), ("points", 0.0)]:
        a = generate(GenSpec(kind, 200, rho=rho, seed=4))
        b = generate(GenSpec(kind, 200, rho=rho, seed=4))
        assert a == b


class TestPushOnly:
    def test_rho_one_never_pops(self):
        pairs = parse_pairs(generate(GenSpec("pushonly", 100, rho=1.0, seed=1)))
        assert all(c == 0 for _, c in pairs)
        _, final = replay_testrun(pairs)
        assert len(final) == 100

    def test_rho_zero_keeps_at_most_one(self):
        pairs = parse_pairs(generate(GenSpec("pushonly", 10, rho=0.0, seed=1)))
        height = max_h = 0
        for _, pops in pairs:
            height = height - min(pops, height) + 1
            max_h = max(max_h, height)
        assert max_h == 1

    def test_final_height_near_rho_n(self):
        n, rho = 100_000, 0.5
        pairs = parse_pairs(generate(GenSpec("pushonly", n, rho=rho, seed=3)))
        _, final = replay_testrun(pairs)
        sigma = math.sqrt(n * rho * (1 - rho))
        assert abs(len(final) - rho * n) <= 3 * sigma


class TestNestedCycles:
    def test_cycle_pop_cascade(self):
        assert cycle_pops_after(8) == 4
        assert cycle_pops_after(64) == 4 + 16
        assert cycle_pops_after(512) == 4 + 16 + 64
        assert cycle_pops_after(7) == 0

    def test_height_checkpoints(self):
        steps = {(m, d): h for m, d, h in xmas_height_steps(600)}
        assert steps[(64, 0)] == 32
        assert steps[(64, 1)] == 16
        assert steps[(512, 1)] == 128
        assert steps[(512, 2)] == 64

    def test_growth_quadruples_per_nesting_level(self):
        # "kept" height when the first depth-m cycle completes: the value just
        # before that element's own deepest drop applies; exactly 4x per level
        def kept_height(n):
            steps = [h for m, d, h in xmas_height_steps(n) if m == n]
            return steps[-2]

        for m in range(4):
            h_small = kept_height(8 ** (m + 1))
            h_big = kept_height(8 ** (m + 2))
            assert h_big == 4 * h_small

    def test_peak_tracks_two_thirds_power(self):
        ratios = [
            xmas_peak_height(8 ** (k + 1)) / (8 ** (k + 1)) ** (2 / 3)
            for k in range(1, 6)
        ]
        mid = sum(ratios) / len(ratios)
        assert all(abs(r / mid - 1) <= 0.1 for r in ratios)

    def test_emitted_pops_realize_the_schedule(self):
        n = 4096
        pairs = parse_pairs(generate(GenSpec("xmas", n, seed=5)))
        assert len(pairs) == n
        height = 0
        for value, pops in pairs:
            assert pops <= height  # never truncated by an empty stack
            height = height - pops + 1
        # deferred pops: the trace height after element n equals the schedule
        # height after n pushes, before element n's own completion drops
        sched = {(m, d): h for m, d, h in xmas_height_steps(n)}
        assert height == sched[(n, -1)]

    def test_final_drain_matches_schedule(self):
        n = 512
        pairs = parse_pairs(generate(GenSpec("xmas", n, seed=6)))
        _, final = replay_testrun(pairs)
        sched = {(m, d): h for m, d, h in xmas_height_steps(n)}
        assert len(final) == sched[(n, -1)]


class TestPoints:
    def test_two_points_strictly_increasing(self):
        lines = data_lines(generate(GenSpec("points", 2, seed=0)))
        assert len(lines) == 2
        xs = [float(l.split(",")[0]) for l in lines]
        assert xs[0] < xs[1]

    def test_sorted_and_strict_for_larger_sets(self):
        lines = data_lines(generate(GenSpec("points", 5000, seed=8)))
        xs = [float(l.split(",")[0]) for l in lines]
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_coordinates_in_unit_square(self):
        lines = data_lines(generate(GenSpec("points", 1000, seed=2)))
        for line in lines:
            x, y = map(float, line.split(","))
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        generate(GenSpec("nope", 10))


@pytest.mark.parametrize("spec, message", [
    (GenSpec("pushonly", 4, 1.5), "rho must be within [0, 1], got 1.5"),
    (GenSpec("pushonly", 4, -0.1), "rho must be within [0, 1], got -0.1"),
    (GenSpec("xmas", 0), "xmas input needs at least one element"),
    (GenSpec("points", 1), "point input needs at least two points"),
])
def test_out_of_range_spec_rejected(spec, message):
    with pytest.raises(ValueError) as exc:
        generate(spec)
    assert str(exc.value) == message


def test_out_path_written(tmp_path):
    out = tmp_path / "t.txt"
    text = generate(GenSpec("pushonly", 5, rho=1.0, seed=0, out_path=str(out)))
    assert out.read_text(encoding="utf-8") == text
