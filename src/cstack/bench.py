"""Benchmark harness: sweep input sizes and emit one CSV row per run.

Rows are `size,p,time_s,peak_bytes,reconstructions,final_stack_len`; p is 0
for the classic stack.  Inputs are generated once per (kind, n, rho, seed)
into a cache directory and reused.  Sizes run over powers of two and are
capped at 2**22 by default; larger sweeps need an explicit override.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path

from .core import ClassicStack
from .compressed import CompressedStack
from .generators import GenSpec, generate
from .metrics import RunMetrics, resolve_p
from .problems import PROBLEMS
from .runner import LineSource, Runner, RunResult

DESK_CAP = 2 ** 22

CSV_HEADER = ["size", "p", "time_s", "peak_bytes", "reconstructions", "final_stack_len"]


def execute_run(problem: str, source: LineSource, stack_kind: str, *,
                n_expect: int | None, p: int | None = None, k: int | None = None,
                collect_report: bool = True, drain_report: bool = True) -> RunResult:
    algo = PROBLEMS[problem]()
    if k is not None:
        algo.k = k
    if stack_kind == "classic":
        stack = ClassicStack()
    elif stack_kind == "compressed":
        stack = CompressedStack(n_expect, p, algo.k)
    else:
        raise ValueError(f"unknown stack kind: {stack_kind!r}")
    runner = Runner(algo, source, stack, collect_report=collect_report,
                    drain_report=drain_report)
    result = runner.run()
    stack.dispose()
    return result


def ensure_input(spec: GenSpec, cache_dir: Path) -> Path:
    cache_dir.mkdir(parents=True, exist_ok=True)
    name = f"{spec.kind}-n{spec.n}-rho{spec.rho:g}-seed{spec.seed}.txt"
    path = cache_dir / name
    if not path.exists():
        # Written aside and renamed: an interrupted write caches nothing.
        part = path.with_name(name + ".part")
        try:
            generate(GenSpec(spec.kind, spec.n, spec.rho, spec.seed, str(part)))
            os.replace(part, path)
        finally:
            part.unlink(missing_ok=True)
    return path


def bench(problem: str, kind: str, stack_kind: str, schedule: str | int,
          sizes: list[int], *, rho: float = 1.0, seed: int = 0,
          cache_dir: Path | str = "bench-inputs",
          force_large: bool = False) -> list[dict]:
    """Run one problem/stack/schedule over the given sizes; return CSV rows."""
    rows = []
    for n in sizes:
        if n < 1 or n & (n - 1):
            raise ValueError(f"sizes must be powers of two, got {n}")
        if n > DESK_CAP and not force_large:
            raise ValueError(
                f"size {n} exceeds the desk cap {DESK_CAP}; pass force_large to override"
            )
        # Resolved first, so that a bad p caches no input.
        p = resolve_p(schedule, n) if stack_kind == "compressed" else 0
        path = ensure_input(GenSpec(kind, n, rho, seed), Path(cache_dir))
        with LineSource.from_path(path) as source:
            # The row captures the scan itself; the report drain is a
            # consumer-side cost and would rebuild every folded block.
            result = execute_run(
                problem, source, stack_kind,
                n_expect=n, p=p or None,
                collect_report=False, drain_report=False,
            )
        m = result.metrics
        rows.append({"size": n, "p": p, "time_s": f"{m.wall_seconds:.6f}",
                     "peak_bytes": m.peak_bytes, "reconstructions": m.reconstructions,
                     "final_stack_len": m.final_len})
    return rows


def write_csv(rows: list[dict], out_path) -> None:
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        writer.writerows(rows)


def metrics_footer(m: RunMetrics) -> list[str]:
    """The `run` footer; resident_bound only for a stack that declares one."""
    bound = [] if m.resident_bound is None else [f"# resident_bound={m.resident_bound}"]
    return [
        f"# time_s={m.wall_seconds:.6f}",
        f"# peak_bytes={m.peak_bytes}",
        f"# reconstructions={m.reconstructions}",
        f"# replay_lines={m.replay_lines}",
        f"# peak_entries={m.peak_entries}",
        *bound,
        f"# promotions={m.promotions}",
        f"# max_replay_depth={m.max_replay_depth}",
        f"# pushes={m.pushes} pops={m.pops}",
        f"# final_stack_len={m.final_len}",
        f"# degraded_estimate={str(m.degraded_estimate).lower()}",
    ]
