"""Smoke test of perfbench's traced cells on small inputs.

`perfbench/tracing.py` wraps the package from outside, so it relies on:
CompressedStack and MemoryMeter taking subclasses with `__slots__ = ()`, a
scratch stack whose `__class__` can be switched to such a subclass, the
replay delegate's `(scratch, bottom, last_index)` signature, `scratch.geom`
with `last_expected` and `origin`, and a runner that touches a cursor only
through `read` and `close`.  A traced cell breaks when any of these changes.
The runner recognises a stack by its `k` and `replay` attributes, not its
class, so the classic cell checks that a traced ClassicStack, which has
neither, runs as the plain one does.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import cells  # noqa: E402
import tracing  # noqa: E402
from spec import CELL_BY_NAME, GEOMETRY, WORKLOADS  # noqa: E402

from cstack import GenSpec, generate  # noqa: E402


@pytest.mark.parametrize("workload", ["xmas", "hull"])
@pytest.mark.parametrize("cell_name", ["classic", "log", "sqrt_run"])
def test_traced_cell_passes_its_checks_and_counts_as_untraced(tmp_path, workload, cell_name):
    wl = WORKLOADS[workload]
    cell = CELL_BY_NAME[cell_name]
    path = str(tmp_path / f"{workload}.txt")
    generate(GenSpec(wl.kind, 4096, wl.rho, 7, path))
    expected = cells.REFERENCES[wl.problem](path)
    plain = cells.run_cell(wl, cell, path, check=True)
    tracer = tracing.Tracer(GEOMETRY[cell.schedule][1], (0.0, 0.0))
    traced = cells.run_cell(wl, cell, path, check=True, tracer=tracer)
    assert cells.check_run(cell, plain, expected) == []
    assert cells.check_run(cell, traced, expected) == []
    assert traced.counters == plain.counters
    if cell.schedule:
        assert tracer.calls("replay") > 0
        assert tracer.summary(4096, traced.wall)["replay.count"] == len(tracer.spans)
