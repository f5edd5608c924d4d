"""What the benchmark runs: input size, workloads, cells, recorded geometry.

Plain data with no import of `cstack`, so the set-up can read it before the
package is imported.
"""

from __future__ import annotations

from dataclasses import dataclass

# One odd power of two.  At 2^14 and 2^16 p=sqrt collapses to a single level
# (h=1) and xmas replays only 0.13-0.20 lines/element; at 2^16 p=16 also
# aligns blocks with xmas's 8-ary cycles.  2^15 keeps every cell at h>=2
# without aligned cycles, and hull at p=log stays near 11k reconstructions,
# which is short enough to repeat.
N = 2 ** 15


@dataclass(frozen=True)
class Workload:
    problem: str  # key of cstack.problems.PROBLEMS
    kind: str  # generator kind
    rho: float


WORKLOADS = {
    # Every element pushed, nothing popped: all scan cells do zero
    # reconstructions, so the forward path does all the work; only the
    # sqrt_run drain replays.
    "pushonly": Workload("testrun", "pushonly", 1.0),
    # Nested push-pop cycles: bulk pops interleave with pushes and replays nest.
    "xmas": Workload("testrun", "xmas", 0.0),
    # Upper hull of uniform points: top(2) probes, float parsing, a preload
    # through read_push, a tiny stack and many small replays.
    "hull": Workload("upperhull", "points", 0.0),
}


@dataclass(frozen=True)
class Cell:
    name: str
    schedule: str | None  # p schedule; None is the classic stack
    drain: bool  # drain and format the report inside the timed run


CELLS = (
    Cell("classic", None, False),
    Cell("sqrt", "sqrt", False),
    Cell("log", "log", False),
    Cell("sqrt_run", "sqrt", True),
)
CELL_BY_NAME = {c.name: c for c in CELLS}

# Resolved p and PartitionGeometry.sizes at N, recorded when the benchmark was
# defined.  A run whose geometry differs measures another regime and fails.
GEOMETRY = {
    None: (0, ()),
    "sqrt": (181, (32761, 181)),
    "log": (15, (3375, 225, 15)),
}
