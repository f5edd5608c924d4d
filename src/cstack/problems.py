"""The two bundled stack algorithms: a pop/push driver and the upper hull.

TestRun reads "value,pops" pairs and performs the requested pops before each
push; it exists to exercise arbitrary pop/push distributions with almost no
per-element computation.  UpperHull reads x-sorted "x,y" points and keeps the
chain of points bounding the set from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import Data
from .runner import StackAlgorithm

# Builds a named tuple from a tuple of its fields without the Python-level
# __new__ that the named tuple's own constructor goes through.
_new_tuple = tuple.__new__


class TestRunPayload(NamedTuple):
    value: int
    pops: int


@dataclass(slots=True)
class TestRunContext:
    remaining_pops: int = 0


class TestRun(StackAlgorithm):
    """Pops as many times as the current line asks (or until empty), then pushes."""

    k = 1

    def initialize(self) -> TestRunContext:
        return TestRunContext()

    def clone_context(self, ctx: TestRunContext) -> TestRunContext:
        return TestRunContext(ctx.remaining_pops)

    def read_input(self, line: str, ctx) -> TestRunPayload:
        value_s, pops_s = line.split(",")
        value = int(value_s)
        pops = int(pops_s)
        if pops < 0:
            raise ValueError("pop count must be non-negative")
        if ctx is not None:
            ctx.remaining_pops = pops
        return _new_tuple(TestRunPayload, (value, pops))

    def pop_condition(self, payload, ctx, top) -> bool:
        return ctx.remaining_pops > 0

    def post_pop(self, payload, popped: Data, ctx) -> None:
        ctx.remaining_pops -= 1

    def report_line(self, d: Data) -> str:
        return str(d.payload.value)


class Point2D(NamedTuple):
    x: float
    y: float


def orientation(a: Point2D, b: Point2D, c: Point2D) -> int:
    """Turn direction of a->b->c: +1 counterclockwise, -1 clockwise, 0 collinear.

    Exact when all coordinates are ints; for floats, collinearity is decided
    with a relative 1e-12 tolerance on the cross product.
    """
    lhs = (b.x - a.x) * (c.y - b.y)
    rhs = (b.y - a.y) * (c.x - b.x)
    cross = lhs - rhs
    if cross == 0:
        return 0
    if not (isinstance(cross, int)):
        scale = max(abs(lhs), abs(rhs))
        if abs(cross) <= 1e-12 * scale:
            return 0
    return 1 if cross > 0 else -1


class UpperHull(StackAlgorithm):
    """Keeps the upper convex chain of x-sorted points.

    A point already on the chain is discarded when the incoming point sees it
    make a counterclockwise turn; collinear points stay.  Needs no context.
    """

    k = 2

    def read_input(self, line: str, ctx) -> Point2D:
        x_s, y_s = line.split(",")
        return _new_tuple(Point2D, (float(x_s), float(y_s)))

    def pop_condition(self, payload: Point2D, ctx, top) -> bool:
        last = top(1)
        below = top(2)
        if below is None:
            # Fewer than two entries available: no turn to evaluate.
            return False
        a, b = below.payload, last.payload
        # orientation's test, inline: its cross product is lhs - rhs.  Where
        # not lhs > rhs, that is at most 0 or NaN, and orientation gives no 1.
        lhs = (b.x - a.x) * (payload.y - b.y)
        rhs = (b.y - a.y) * (payload.x - b.x)
        if not lhs > rhs:
            return False
        # Given lhs > rhs, this scale is orientation's max(|lhs|, |rhs|).
        # Only a near-collinear turn goes to orientation, exact on ints.
        if lhs - rhs > 1e-12 * (lhs if lhs > -rhs else -rhs):
            return True
        return orientation(a, b, payload) == 1

    def push_condition(self, payload: Point2D, ctx, top) -> bool:
        last = top(1)
        if last is not None and payload.x <= last.payload.x:
            raise ValueError(
                f"input points not sorted by strictly increasing x at x={payload.x}"
            )
        return True

    def report_line(self, d: Data) -> str:
        return f"{d.payload.x!r},{d.payload.y!r}"


PROBLEMS = {"testrun": TestRun, "upperhull": UpperHull}
