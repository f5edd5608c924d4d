"""Cell execution, output checks and untraced ablation scans.

A cell is one way of running a workload's input: which stack, which space
parameter, and whether the report is drained.  Every cell goes through the
package's public entry points only, exactly as `cstack bench` (scan only)
or `cstack run` (scan, drain and format) would.

Import this module only after `cstack` has been imported from the checkout,
so that every class used here comes from the same module objects.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

from cstack import ClassicStack, CompressedStack, LineSource, MemoryMeter, Runner, resolve_p
from cstack.problems import PROBLEMS

from spec import GEOMETRY, N, Cell, Workload


@dataclass
class CellRun:
    """What one execution of one cell produced."""

    wall: float  # seconds spent in Runner.run
    counters: dict  # deterministic counts; must repeat exactly
    geometry: tuple  # (p, sizes, degraded)
    report: list[str] | None  # drained report, when the cell or check drained
    live_after_dispose: int


def make_stack(cell: Cell, k: int, meter, classic_cls=ClassicStack,
               compressed_cls=CompressedStack):
    if cell.schedule is None:
        return classic_cls(meter=meter), 0
    p = resolve_p(cell.schedule, N)
    return compressed_cls(N, p, k, meter=meter), p


def run_cell(wl: Workload, cell: Cell, path: str, *, check: bool = False,
             tracer=None) -> CellRun:
    """Run one cell on one input; with `check`, also drain a scan-only cell.

    The timed region is Runner.run alone.  A check drain happens after it,
    as a consumer would pop the stack, and is not timed.
    """
    algo_cls = PROBLEMS[wl.problem]
    if tracer is None:
        algo = algo_cls()
        meter = MemoryMeter()
        stack, p = make_stack(cell, algo.k, meter)
        source = LineSource.from_path(path)
    else:
        algo = tracer.algorithm(algo_cls)()
        meter = tracer.meter(MemoryMeter)()
        stack, p = make_stack(cell, algo.k, meter, tracer.stack(ClassicStack),
                              tracer.stack(CompressedStack))
        source = tracer.source(LineSource).from_path(path)
    with source:
        runner = Runner(algo, source, stack, collect_report=cell.drain,
                        drain_report=cell.drain)
        run = runner.run
        if tracer is not None:
            run = tracer.bind(runner, stack, meter)
        gc.collect()
        t0 = time.perf_counter()
        result = run()
        wall = time.perf_counter() - t0
        m = result.metrics
        counters = {
            "reconstructions": m.reconstructions,
            "replay_lines": meter.replay_lines,
            "pushes": m.pushes,
            "pops": m.pops,
            "peak_bytes": m.peak_bytes,
            "final_len": m.final_len,
        }
        report = result.report if cell.drain else None
        if check and not cell.drain:
            report = []
            while stack.len() > 0:
                report.append(algo.report_line(stack.pop()))
    geometry = (p, stack.geom.sizes if p else (), m.degraded_estimate)
    stack.dispose()
    return CellRun(wall, counters, geometry, report, meter.live_bytes)


# -- references ----------------------------------------------------------------


def _data_lines(path: str):
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                yield line


def testrun_reference(path: str) -> list[str]:
    """TestRun on a plain list: pop up to `pops` entries, then push."""
    stack: list[int] = []
    for line in _data_lines(path):
        value, pops = line.split(",")
        del stack[max(0, len(stack) - int(pops)):]
        stack.append(int(value))
    return [str(v) for v in reversed(stack)]


def hull_reference(path: str) -> list[str]:
    """Monotone-chain upper hull keeping collinear points, right to left."""
    chain: list[tuple[float, float]] = []
    for line in _data_lines(path):
        x, y = (float(v) for v in line.split(","))
        while len(chain) >= 2:
            (ax, ay), (bx, by) = chain[-2], chain[-1]
            if (bx - ax) * (y - by) - (by - ay) * (x - bx) <= 0:
                break
            chain.pop()
        chain.append((x, y))
    return [f"{x!r},{y!r}" for x, y in reversed(chain)]


REFERENCES = {"testrun": testrun_reference, "upperhull": hull_reference}


def check_run(cell: Cell, run: CellRun, expected_report: list[str]) -> list[str]:
    """Reasons this run is wrong; empty when it passed every output check."""
    problems = []
    p, sizes = GEOMETRY[cell.schedule]
    if run.geometry != (p, sizes, False):
        problems.append(
            f"geometry (p, sizes, degraded) = {run.geometry}, recorded {(p, sizes, False)}"
        )
    if run.live_after_dispose != 0:
        problems.append(f"live_bytes {run.live_after_dispose} after dispose()")
    if run.counters["final_len"] != len(expected_report):
        problems.append(
            f"final_len {run.counters['final_len']}, expected {len(expected_report)}"
        )
    if run.report is not None and run.report != expected_report:
        first = next(
            (i for i, (a, b) in enumerate(zip(run.report, expected_report)) if a != b),
            min(len(run.report), len(expected_report)),
        )
        problems.append(f"report differs from the expected one at line {first}")
    return problems


# -- ablation scans (untraced) -------------------------------------------------


def timed(fn, *args) -> float:
    gc.collect()
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def cursor_scan(path: str) -> None:
    """Every line through LineCursor.read and nothing else."""
    with LineSource.from_path(path) as source:
        read = source.cursor(0).read
        while read() is not None:
            pass


def parse_scan(path: str, problem: str) -> None:
    """Cursor plus the problem's read_input, without a stack."""
    read_input = PROBLEMS[problem]().read_input
    with LineSource.from_path(path) as source:
        read = source.cursor(0).read
        while (item := read()) is not None:
            read_input(item[0], None)


def floor_scan(path: str) -> None:
    """Bare-Python readline/split/list push-pop over the same file."""
    stack = []
    with open(path, "rb") as fh:
        for raw in iter(fh.readline, b""):
            if raw.startswith(b"#"):
                continue
            value, rest = raw.rstrip().split(b",")
            if rest.isdigit():
                for _ in range(min(int(rest), len(stack))):
                    stack.pop()
            stack.append(value)
