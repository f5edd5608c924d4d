"""Deterministic synthetic inputs: linear-stack, nested push-pop cycles, points.

Every generator is a pure function of its GenSpec: same parameters, byte
identical file.  Files start with a header comment recording the parameters
and the RNG, then one data line per element in the owning problem's format.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# Nested-cycle constants: blocks of CYCLE sub-blocks, dropping half of what a
# block added once it completes.
CYCLE = 8
UNIT_DROP = CYCLE // 2


@dataclass(frozen=True, slots=True)
class GenSpec:
    kind: str
    n: int
    rho: float = 0.0
    seed: int = 0
    out_path: str | None = None

    def header(self) -> str:
        return (
            f"# kind={self.kind} n={self.n} rho={self.rho:g} "
            f"seed={self.seed} rng=mt19937"
        )


def generate(spec: GenSpec) -> str:
    """Render one input (header + data lines); write out_path if set."""
    render = _RENDERERS.get(spec.kind)
    if render is None:
        raise ValueError(f"unknown generator kind: {spec.kind!r}")
    if spec.n < 0:
        raise ValueError(f"input size n must be non-negative, got {spec.n}")
    text = spec.header() + "\n" + render(spec)
    if spec.out_path:
        Path(spec.out_path).write_text(text, encoding="utf-8")
    return text


def _gen_pushonly(spec: GenSpec) -> str:
    """n "value,pops" lines; pops is 1 with probability 1-rho, else 0.

    Every element is pushed, so with survival probability rho the stack ends
    near rho*n entries; rho=1 never pops, rho=0 keeps at most one entry.
    """
    if not 0.0 <= spec.rho <= 1.0:
        raise ValueError(f"rho must be within [0, 1], got {spec.rho}")
    rng = random.Random(spec.seed)
    lines = []
    for _ in range(spec.n):
        value = rng.randrange(1, 1_000_000_000)
        pops = 0 if rng.random() < spec.rho else 1
        lines.append(f"{value},{pops}")
    return "\n".join(lines) + "\n"


def cycle_pops_after(m: int) -> int:
    """Pops released by every nested cycle that completes after element m.

    A depth-d cycle spans CYCLE**(d+1) elements and, on completion, drops
    half of the net growth it produced, which works out to 4**(d+1) entries.
    """
    total = 0
    span = CYCLE
    drop = UNIT_DROP
    while m % span == 0:
        total += drop
        span *= CYCLE
        drop *= UNIT_DROP
    return total


def _gen_xmas(spec: GenSpec) -> str:
    """Nested push-pop cycles; pending pops attach to the next element.

    The pop loop runs before the push, so pops released when cycles complete
    at element m are carried on element m+1's line; whatever is pending when
    the input ends is dropped (the report drain empties the stack anyway).
    """
    if spec.n < 1:
        raise ValueError("xmas input needs at least one element")
    rng = random.Random(spec.seed)
    lines = []
    pending = 0
    for m in range(1, spec.n + 1):
        value = rng.randrange(1, 1_000_000_000)
        lines.append(f"{value},{pending}")
        pending = cycle_pops_after(m)
    return "\n".join(lines) + "\n"


def _gen_points(spec: GenSpec) -> str:
    """n uniform points in the unit square, sorted by strictly increasing x."""
    if spec.n < 2:
        raise ValueError("point input needs at least two points")
    rng = random.Random(spec.seed)
    pts = sorted((rng.random(), rng.random()) for _ in range(spec.n))
    xs = [p[0] for p in pts]
    for i in range(1, len(xs)):
        if xs[i] <= xs[i - 1]:
            xs[i] = math.nextafter(xs[i - 1], 2.0)
    lines = [f"{x!r},{y!r}" for x, (_, y) in zip(xs, pts)]
    return "\n".join(lines) + "\n"


_RENDERERS = {"pushonly": _gen_pushonly, "xmas": _gen_xmas, "points": _gen_points}
GEN_KINDS = tuple(_RENDERERS)
