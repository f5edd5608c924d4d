import math
import random

import pytest

from cstack.compressed import CompressedStack
from cstack.core import ClassicStack, Data
from cstack.generators import GenSpec, generate
from cstack.problems import Point2D, TestRun, UpperHull, orientation
from cstack.runner import LineSource, Runner

from oracles import upper_hull_chain, upper_hull_wrap


class TestOrientation:
    def test_collinear(self):
        assert orientation(Point2D(0, 0), Point2D(1, 1), Point2D(2, 2)) == 0

    def test_right_turn(self):
        assert orientation(Point2D(0, 0), Point2D(1, 1), Point2D(2, 0)) == -1

    def test_left_turn(self):
        assert orientation(Point2D(0, 0), Point2D(1, 0), Point2D(1, 1)) == 1

    def test_float_near_collinear_snaps_to_zero(self):
        a, b = Point2D(0.0, 0.0), Point2D(1.0, 1.0)
        c = Point2D(2.0, 2.0 + 2e-16)
        assert orientation(a, b, c) == 0

    def test_exact_on_integers(self):
        # far beyond float precision, still decided exactly
        big = 10 ** 20
        assert orientation(Point2D(0, 0), Point2D(big, big), Point2D(2 * big, 2 * big + 1)) == 1


def _hull_triples():
    """(a, b, c) point triples for the hull's pop condition: random ints and
    floats, collinear ones, ones within orientation's relative tolerance,
    and ones with inf and nan coordinates."""
    rng = random.Random(41)
    triples = []
    for _ in range(200):
        triples.append(tuple(Point2D(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)))
        triples.append(tuple(Point2D(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)))
        # tiny coordinates: cross products far below 1, decided by their sign
        triples.append(tuple(Point2D(rng.uniform(-1e-6, 1e-6), rng.uniform(-1e-6, 1e-6))
                             for _ in range(3)))
        # collinear: c on the line through a and b, exactly for ints
        a = Point2D(rng.randint(-9, 9), rng.randint(-9, 9))
        dx, dy = rng.randint(-4, 4), rng.randint(-4, 4)
        t = rng.randint(1, 3)
        triples.append((a, Point2D(a.x + dx, a.y + dy),
                        Point2D(a.x + (1 + t) * dx, a.y + (1 + t) * dy)))
        # floats on a line, then nudged to either side, within and beyond
        # the 1e-12 relative tolerance
        x0, slope = rng.uniform(-1e3, 1e3), rng.uniform(-10, 10)
        xs = sorted(rng.uniform(-1e3, 1e3) for _ in range(3))
        pts = [Point2D(x, slope * (x - x0)) for x in xs]
        c = pts[2]
        for nudge in (0.0, 5e-16, -5e-16, 1e-13, -1e-13, 1e-9, -1e-9):
            triples.append((pts[0], pts[1], Point2D(c.x, c.y * (1 + nudge) + nudge)))
    special = (0.0, 1.0, -2.5, math.inf, -math.inf, math.nan)
    for _ in range(300):
        triples.append(tuple(Point2D(rng.choice(special), rng.choice(special))
                             for _ in range(3)))
    return triples


def test_hull_pop_condition_equals_counterclockwise_orientation():
    hull = UpperHull()
    outcomes = set()
    for a, b, c in _hull_triples():
        stack = ClassicStack()
        stack.push(Data(1, a, None, 0))
        stack.push(Data(2, b, None, 0))
        want = orientation(a, b, c)
        assert hull.pop_condition(c, None, stack.top) == (want == 1), (a, b, c)
        outcomes.add(want)
    assert outcomes == {-1, 0, 1}


class TestTestRun:
    def test_spec_trace(self):
        src = LineSource.from_text("5,0\n7,0\n3,2\n9,1\n")
        assert Runner(TestRun(), src, ClassicStack()).run().report == ["9"]

    def test_push_only_keeps_everything(self):
        n = 50
        src = LineSource.from_text("\n".join(f"{i},0" for i in range(n)) + "\n")
        result = Runner(TestRun(), src, ClassicStack()).run()
        assert len(result.report) == n

    def test_pops_capped_by_empty_stack(self):
        src = LineSource.from_text("1,0\n2,5\n")
        assert Runner(TestRun(), src, ClassicStack()).run().report == ["2"]

    def test_negative_pops_rejected(self):
        from cstack.runner import ParseError

        src = LineSource.from_text("1,-2\n")
        with pytest.raises(ParseError):
            Runner(TestRun(), src, ClassicStack()).run()


def run_hull(text, stack_kind="classic", p=4):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    n = max(len(lines), 2)
    if stack_kind == "classic":
        stack = ClassicStack()
    else:
        stack = CompressedStack(n, p, 2)
    return Runner(UpperHull(), LineSource.from_text(text), stack).run().report


def hull_report(points):
    return [f"{x!r},{y!r}" for x, y in points]


class TestUpperHull:
    def test_simple_hull(self):
        text = "0,0\n1,2\n2,1\n3,3\n"
        got = run_hull(text)
        assert got == ["3.0,3.0", "1.0,2.0", "0.0,0.0"]

    def test_collinear_points_retained(self):
        text = "0,0\n1,1\n2,2\n"
        assert run_hull(text) == ["2.0,2.0", "1.0,1.0", "0.0,0.0"]

    def test_concave_down_parabola_keeps_all(self):
        pts = [(float(x), float(-x * x)) for x in range(-5, 6)]
        text = "\n".join(f"{x},{y}" for x, y in pts) + "\n"
        assert len(run_hull(text)) == len(pts)

    @pytest.mark.parametrize("stack_kind", ["classic", "compressed"])
    @pytest.mark.parametrize("text", [
        "0,0\n1,2\n0.5,0.1\n",  # a later point out of order
        "2,0\n1,5\n3,1\n",  # the first two points out of order
        "1,0\n1,2\n2,1\n",  # the first two points with equal x
    ], ids=["later", "first_two", "first_two_equal_x"])
    def test_unsorted_input_rejected(self, text, stack_kind):
        with pytest.raises(ValueError):
            run_hull(text, stack_kind)

    @pytest.mark.parametrize("stack_kind", ["classic", "compressed"])
    def test_single_point(self, stack_kind):
        assert run_hull("3,4\n", stack_kind) == ["3.0,4.0"]

    def test_matches_chain_oracle_both_stacks(self):
        rng = random.Random(13)
        for trial in range(40):
            n = rng.choice([4, 10, 30, 100, 400])
            text = generate(GenSpec("points", n, seed=9000 + trial))
            pts = [tuple(map(float, l.split(",")))
                   for l in text.splitlines() if not l.startswith("#")]
            want = hull_report(reversed(upper_hull_chain(pts)))
            assert run_hull(text, "classic") == want
            assert run_hull(text, "compressed", p=rng.choice([2, 3, 8])) == want

    def test_chain_oracle_agrees_with_gift_wrapping(self):
        rng = random.Random(17)
        for trial in range(60):
            n = rng.randint(3, 40)
            pts = sorted((rng.random(), rng.random()) for _ in range(n))
            assert upper_hull_chain(pts) == upper_hull_wrap(pts)

    def test_large_generated_set_matches_oracle(self):
        text = generate(GenSpec("points", 10_000, seed=123))
        pts = [tuple(map(float, l.split(",")))
               for l in text.splitlines() if not l.startswith("#")]
        want = hull_report(reversed(upper_hull_chain(pts)))
        assert run_hull(text, "compressed", p=100) == want

    def test_hull_is_x_monotone_without_left_turns(self):
        text = generate(GenSpec("points", 500, seed=77))
        got = [tuple(map(float, l.split(","))) for l in run_hull(text)]
        chain = list(reversed(got))
        assert all(a[0] < b[0] for a, b in zip(chain, chain[1:]))
        from oracles import turn

        assert all(turn(a, b, c) != 1 for a, b, c in zip(chain, chain[1:], chain[2:]))
