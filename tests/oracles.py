"""Independent reference implementations the test suite checks against.

Everything here deliberately avoids the package's stack framework: plain
lists, no hooks, no replay machinery.
"""

from __future__ import annotations

from cstack.generators import CYCLE, UNIT_DROP


def replay_testrun(pairs):
    """List-model run of (value, pops) pairs.

    Returns (pop_sequence, final_stack) where pops stop early on an empty
    stack, matching the runner's pop-loop guard.
    """
    stack: list[int] = []
    popped: list[int] = []
    for value, pops in pairs:
        for _ in range(pops):
            if not stack:
                break
            popped.append(stack.pop())
        stack.append(value)
    return popped, stack


def cross(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])


def turn(a, b, c, eps: float = 1e-12) -> int:
    v = cross(a, b, c)
    lhs = abs((b[0] - a[0]) * (c[1] - b[1]))
    rhs = abs((b[1] - a[1]) * (c[0] - b[0]))
    if v == 0 or abs(v) <= eps * max(lhs, rhs):
        return 0
    return 1 if v > 0 else -1


def upper_hull_chain(points):
    """Monotone-chain upper hull keeping collinear points, left to right."""
    hull: list = []
    for p in points:
        while len(hull) >= 2 and turn(hull[-2], hull[-1], p) == 1:
            hull.pop()
        hull.append(p)
    return hull


def upper_hull_wrap(points):
    """Gift-wrapping upper hull for small inputs; anchors the chain oracle.

    Walks from the leftmost to the rightmost point, always taking the
    neighbor that keeps every remaining point on or below the ray, preferring
    the nearest collinear point so collinear vertices are kept.
    """
    pts = list(points)
    if len(pts) <= 2:
        return pts
    hull = [pts[0]]
    last = pts[-1]
    while hull[-1] != last:
        cur = hull[-1]
        candidates = [p for p in pts if p[0] > cur[0]]
        best = candidates[0]
        for p in candidates[1:]:
            t = turn(cur, best, p)
            if t == 1 or (t == 0 and p[0] < best[0]):
                best = p
        hull.append(best)
    return hull


def xmas_height_steps(n: int):
    """Yield (elements_processed, cycle_depth, height) for the nested cycles.

    Heights follow the logical schedule in which each completing cycle's drop
    applies at its own boundary: after element m the pending drops of depth
    0, 1, ... apply in order, each yielding one step.  Depth -1 tags the
    height right after the push, before any completion drops.
    """
    height = 0
    for m in range(1, n + 1):
        height += 1
        yield m, -1, height
        depth = 0
        span = CYCLE
        drop = UNIT_DROP
        while m % span == 0:
            height -= drop
            yield m, depth, height
            depth += 1
            span *= CYCLE
            drop *= UNIT_DROP


def xmas_peak_height(n: int) -> int:
    """Largest height the nested-cycle schedule reaches over n elements."""
    return max(h for _, _, h in xmas_height_steps(n))
