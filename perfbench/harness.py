"""The benchmark's bookkeeping: executes cells, checks them, derives metrics.

Import only after set-up has imported `cstack` from the checkout.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import traceback
from pathlib import Path

import cells
import tracing
from spec import CELL_BY_NAME, CELLS, GEOMETRY, N, WORKLOADS

TRACED_CELLS = ("log", "sqrt_run")
FLOOR_SCANS = 3
# setup_s is the set-up time on a reference host, on which the floor scan
# takes this long per element.  On the shared 2-core host the benchmark was
# defined on, the floor scan took 0.4-1.3 us per element, depending on the
# workload's input and on the host's speed at the time, and the raw set-up
# median of ten runs moved by 60% within half an hour.
REFERENCE_FLOOR_US = 1.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    """Runs cells on the workload's inputs, checks every execution, and keeps
    what the result needs."""

    def __init__(self, workload: str, seed: int, paths: list[str], setups: list[float]):
        self.workload = workload
        self.seed = seed
        self.wl = WORKLOADS[workload]
        self.paths = paths
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.counters: dict[tuple[str, int], dict] = {}  # per (cell, input)
        self.geometry: dict[str, tuple] = {}
        self.walls: dict[str, list[float]] = {}  # untraced executions
        # walls over adjacent floor scans, per cell and input
        self.relative: dict[str, dict[int, list[float]]] = {}
        self.setups = setups  # seconds of every set-up in this run
        self.setup_relative: list[float] = []  # repeats over adjacent floor scans
        # (wall, summary, seconds the corrected self times cover) per execution
        self.traced: dict[str, list[tuple[float, dict, float]]] = {}
        # (untraced wall, traced wall, corrected self times), each over the
        # floor scans adjacent to its execution, per traced round
        self.trace_pairs: dict[str, list[tuple[float, float, float]]] = {}
        self.wrapper_costs: list[tuple[float, float]] = []  # one per traced execution
        self.dumps: dict[str, dict] = {}
        self.ablation: dict[str, list[float]] = {}
        self.expected: dict[int, dict[str, list[str]]] = {}  # per input

    def execute(self, name: str, i: int, *, check=False, timed=False,
                traced=False) -> float | None:
        """One execution of one cell on input i; a raise or a failed check fails it.

        Returns the cell's wall time, or None when it raised.
        """
        cell = CELL_BY_NAME[name]
        self.attempted += 1
        try:
            tracer = (tracing.Tracer(GEOMETRY[cell.schedule][1], self.wrapper_costs[-1])
                      if traced else None)
            run = cells.run_cell(self.wl, cell, self.paths[i], check=check, tracer=tracer)
            if tracer is not None:
                run.counters.update(tracer.counters())
            expected = self.expected[i]["classic" if name != "classic" else "reference"]
            problems = cells.check_run(cell, run, expected)
            problems += self._determinism((name, i), run.counters)
        except Exception:  # noqa: BLE001 - a raising cell is counted, not fatal
            self.failed += 1
            print(f"# FAIL {self.workload}/{name}/input{i}:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None
        if problems:
            self.failed += 1
            for p in problems:
                print(f"# FAIL {self.workload}/{name}/input{i}: {p}", file=sys.stderr)
        if name == "classic" and run.report is not None:
            self.expected[i]["classic"] = run.report
        self.geometry.setdefault(name, run.geometry)
        if traced:
            self.traced.setdefault(name, []).append(
                (run.wall, tracer.summary(N, run.wall), tracer.attributed()))
            self.dumps[name] = tracer.dump()
        elif timed:
            self.walls.setdefault(name, []).append(run.wall)
        return run.wall

    def _determinism(self, key: tuple[str, int], counters: dict) -> list[str]:
        first = self.counters.setdefault(key, {})
        problems = [
            f"{k} = {v}, earlier execution had {first[k]}"
            for k, v in counters.items()
            if k in first and first[k] != v
        ]
        for k, v in counters.items():
            first.setdefault(k, v)
        return problems

    def _expect(self, i: int) -> None:
        """The reference report of input i; the classic cell's replaces it
        as what the compressed cells must match."""
        reference = cells.REFERENCES[self.wl.problem](self.paths[i])
        self.expected[i] = {"reference": reference, "classic": reference}

    def _floor(self) -> float:
        # The mean of a few short scans: it follows the host speed the cell
        # saw more closely than their minimum, which only finds fast phases.
        path = self.paths[0]
        return statistics.fmean(cells.timed(cells.floor_scan, path)
                                for _ in range(FLOOR_SCANS))

    def timing_round(self, setup) -> None:
        """Every cell once on the next input, then one more set-up, whose
        seconds setup() returns, each between two floor scans.

        Host speed drifts by up to 1.5x in phases of about a second, and
        between runs, so each cell time and each set-up time is divided by
        the mean of the floor scans just before and after it.  The first
        visit to an input also drains and checks every cell, after its timed
        region.
        """
        i = self.rounds % len(self.paths)
        check = i not in self.expected
        if check:
            self._expect(i)
        self.rounds += 1
        floors = self.ablation.setdefault("floor", [])
        if not floors:
            floors.append(self._floor())
        for cell in CELLS:
            wall = self.execute(cell.name, i, check=check, timed=True)
            before = floors[-1]
            floors.append(self._floor())
            if wall is not None:
                self.relative.setdefault(cell.name, {}).setdefault(i, []).append(
                    wall / ((before + floors[-1]) / 2))
        seconds = setup()
        floors.append(self._floor())
        self.setups.append(seconds)
        self.setup_relative.append(seconds / ((floors[-2] + floors[-1]) / 2))

    def traced_round(self) -> None:
        """The log and sqrt_run cells untraced and traced, and the ablation scans.

        Each cell runs untraced and then traced, between floor scans, so
        that the two compare in floor units, as the end-to-end times do.
        The wrapper cost is calibrated just before each traced execution,
        at the host speed of that moment.
        """
        if not self.rounds:
            self._expect(0)
            for cell in CELLS:
                self.execute(cell.name, 0, check=True)
        self.rounds += 1
        for name in TRACED_CELLS:
            f0 = self._floor()
            untraced = self.execute(name, 0, timed=True)
            f1 = self._floor()
            self.wrapper_costs.append(tracing.calibrate())
            traced = self.execute(name, 0, traced=True)
            f2 = self._floor()
            if untraced is not None and traced is not None:
                attributed = self.traced[name][-1][2]
                self.trace_pairs.setdefault(name, []).append(
                    (untraced / ((f0 + f1) / 2), traced / ((f1 + f2) / 2),
                     attributed / ((f1 + f2) / 2)))
        path = self.paths[0]
        scans = {
            "cursor": (cells.cursor_scan, path),
            "parse": (cells.parse_scan, path, self.wl.problem),
            "floor": (cells.floor_scan, path),
        }
        for key, (fn, *args) in scans.items():
            self.ablation.setdefault(key, []).append(cells.timed(fn, *args))

    def check_across_runs(self, record: Path) -> None:
        """Compare the counters with an earlier run of the same code.

        `record` names the workload, the seed and the code, so runs of
        other code never meet.  Each (cell, input) that an earlier run also
        recorded is one attempted check, failed when any counter differs.
        """
        earlier = json.loads(record.read_text()) if record.exists() else {}
        for (name, i), counters in self.counters.items():
            key = f"{name}@input{i}"
            if key not in earlier:
                earlier[key] = counters
                continue
            self.attempted += 1
            differ = [f"{k} = {v}, an earlier run had {earlier[key].get(k)}"
                      for k, v in counters.items() if earlier[key].get(k, v) != v]
            if differ:
                self.failed += 1
                for d in differ:
                    print(f"# FAIL {self.workload}/{name}/input{i}: {d}", file=sys.stderr)
            earlier[key] = {**counters, **earlier[key]}
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(".tmp")
        tmp.write_text(json.dumps(earlier, indent=1, sort_keys=True))
        os.replace(tmp, record)

    # -- metrics ---------------------------------------------------------------

    def us(self, seconds: list[float]) -> float:
        return statistics.median(seconds) / N * 1e6

    def counter(self, name: str, key: str) -> float:
        """Mean over the inputs of one cell's counter."""
        return statistics.fmean(
            c[key] for (cell, _), c in self.counters.items() if cell == name)

    def rel(self, name: str) -> float:
        """Mean over the inputs of one cell's median time over the floor.

        Work differs between hull inputs, so a median over all rounds would
        report the middle input's; the mean weighs every input alike.
        """
        return statistics.fmean(
            statistics.median(ratios) for ratios in self.relative[name].values())

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_relative) * REFERENCE_FLOOR_US * N / 1e6,
            "classic_rel": self.rel("classic"),
            "sqrt_rel": self.rel("sqrt"),
            "log_rel": self.rel("log"),
            "sqrt_run_rel": self.rel("sqrt_run"),
            "classic_peak_bytes": self.counter("classic", "peak_bytes"),
            "sqrt_peak_bytes": self.counter("sqrt_run", "peak_bytes"),
            "log_peak_bytes": self.counter("log", "peak_bytes"),
            "log_read_lines": (N + self.counter("log", "replay_lines")) / N,
            "passed_share": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in TRACED_CELLS:
            runs = self.traced[name]
            for key in runs[0][1]:
                out[f"{name}.{key}"] = statistics.median(s[key] for _, s, _ in runs)
            pairs = self.trace_pairs[name]
            untraced = statistics.median(u for u, _, _ in pairs)
            out[f"{name}.trace.overhead"] = statistics.median(t for _, t, _ in pairs) / untraced
            # Share of the untraced wall time that the self times, net of the
            # wrapper costs, leave uncovered; negative when they exceed it.
            out[f"{name}.trace.unattributed"] = (
                1 - statistics.median(a for _, _, a in pairs) / untraced)
        a = self.ablation
        out["cursor.scan_us"] = self.us(a["cursor"])
        out["problems.parse_us"] = self.us(a["parse"]) - self.us(a["cursor"])
        out["machine.floor_us"] = self.us(a["floor"])
        return out

    def describe(self) -> list[str]:
        """Human-readable lines: medians, quartiles, counts and geometry."""
        lines = []

        def timing(label: str, values: list[float], unit="us/elem", scale=1e6 / N):
            q1, q2, q3 = quartiles([v * scale for v in values])
            lines.append(f"# {label}: median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                         f"min {min(values) * scale:.4f} {unit} (n={len(values)})")

        timing("setup", self.setups, "s", 1.0)
        if self.setup_relative:
            timing("setup over floor", self.setup_relative, "x_floor", 1.0)
        for (name, i), counters in sorted(self.counters.items()):
            p, sizes, degraded = self.geometry[name]
            lines.append(f"# cell {name} input{i}: p={p} sizes={list(sizes)} "
                         f"degraded={degraded} "
                         + " ".join(f"{k}={v}" for k, v in counters.items()))
        for name, walls in self.walls.items():
            timing(f"{name} untraced", walls)
        for name, per_input in self.relative.items():
            timing(f"{name} over floor", [r for rs in per_input.values() for r in rs],
                   "x_floor", 1.0)
        for name, runs in self.traced.items():
            timing(f"{name} traced", [w for w, _, _ in runs])
        if self.wrapper_costs:
            timing("wrapper cost to the caller", [c for c, _ in self.wrapper_costs],
                   "us/call", 1e6)
            timing("wrapper cost to the callee", [c for _, c in self.wrapper_costs],
                   "us/call", 1e6)
        for key, walls in self.ablation.items():
            timing(f"{key} scan", walls)
        return lines
