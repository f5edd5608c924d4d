"""Benchmark of the cstack package: scan and run cost per element, peak bytes
and replay work, with per-layer tracing from outside the package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload xmas --seed 0 --seconds 30 --trace 0

Set-up imports `cstack` from the checkout's `src` and generates the
workload's inputs into a fresh directory: INPUTS of them, from input seeds
seed*INPUTS .. seed*INPUTS+INPUTS-1, because on `hull` peak bytes and replay
work depend on the points by up to 40%.  Rounds run the cells round-robin,
so that host drift hits every cell alike, on the next input in turn.  A run
makes whole passes over the inputs, so that each input weighs the same, and
stops at the pass boundary nearest to `--seconds`.  The first round on an
input also drains every cell after its timed region and compares each
report with the classic stack's, and the classic report with a plain-list
reference.  Counters are means over the inputs.  They must repeat in every
execution of a cell on an input, and match
perfbench-out/counters/<workload>-seed<seed>-<digest>.json, which earlier
runs of the same sources (the digest hashes src/cstack, perfbench and the
Python version) wrote.

On a shared host the speed of plain Python moves by up to 1.5x, both in
phases of about a second and between runs, so each cell runs between two
floor measurements, each the mean of three floor scans (a bare-Python
readline/split/list loop over one input file), and its end-to-end time
`<cell>_rel` is its wall time divided by the mean of those two: the median
over the rounds on each input, averaged over the inputs.  Set-up is repeated once per round between floor scans in the same
way.  The metric must be in seconds, so `setup_s` is the median of the
set-up time over the floor times the time the floor scan takes on a
reference host, 1 us per element: the set-up seconds that host would
measure, not the seconds this one did.  The measured set-up seconds and the
raw microseconds per element of every cell are printed above the result.

With `--trace 0` the result line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of the `log` and `sqrt_run` cells from
traced executions, next to untraced ones for the tracing overhead, plus
untraced ablation scans.  Names and units come from BENCHMARK.json.  Lines
before the last one give every time as median and quartiles with the sample
count, and each cell's resolved p, geometry and counters.  The trace
(per-call aggregates and one span per replay) goes to
perfbench-out/trace-<workload>-seed<seed>.json.

The last line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  Exit status: 0 correct, 1 some cell failed a check, 2 set-up
failed (no result printed).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spec import N, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
INPUTS = 5
# Traced rounds all use one input; pairs make every traced figure a median
# of at least two.
TRACED_PASS = 2


def _cstack_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "cstack" or name.startswith("cstack.")}


def import_cstack():
    """Import cstack afresh from the checkout's src, never from elsewhere."""
    for name in _cstack_modules():
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("cstack")
    if Path(module.__file__).resolve().parent != SRC / "cstack":
        raise ImportError(f"cstack imported from {module.__file__}, not from {SRC}")
    return module


def setup(workload: str, seed: int, tmp_root: str) -> tuple[float, str]:
    """Import cstack and generate the input into a fresh directory; time both.

    A repeat keeps the modules imported first, which the harness is bound to.
    """
    wl = WORKLOADS[workload]
    earlier = _cstack_modules()
    t0 = time.perf_counter()
    cstack = import_cstack()
    path = os.path.join(tempfile.mkdtemp(dir=tmp_root), f"{workload}.txt")
    cstack.generate(cstack.GenSpec(wl.kind, N, wl.rho, seed, path))
    seconds = time.perf_counter() - t0
    if earlier:
        for name in _cstack_modules():
            del sys.modules[name]
        sys.modules.update(earlier)
    return seconds, path


def run_rounds(seconds: float, per_pass: int, each) -> None:
    """Call each() in whole passes of per_pass calls, at least one pass,
    until the pass boundary nearest to `seconds`."""
    start = time.perf_counter()
    done = 0
    while True:
        each()
        done += 1
        if done % per_pass:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done * per_pass / 2 > seconds:
            return


def code_digest() -> str:
    """A hash of the package and benchmark sources and the Python version.

    The cross-run counter record is kept per digest, so that a record only
    ever compares runs of the same code.
    """
    h = hashlib.sha256(sys.version.encode())
    here = Path(__file__).resolve().parent
    for path in sorted([*(SRC / "cstack").rglob("*.py"), *here.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=OUT, prefix="inputs-")
    # The traced pass needs one input; the untraced one cycles through INPUTS.
    input_seeds = [args.seed * INPUTS + i for i in range(1 if args.trace else INPUTS)]
    try:
        setup_samples, paths = [], []
        try:
            units = declared_metrics(bool(args.trace))
            for input_seed in input_seeds:
                seconds, path = setup(args.workload, input_seed, tmp_root)
                setup_samples.append(seconds)
                paths.append(path)
        except Exception:  # noqa: BLE001 - no package or no input: no result
            print(f"set-up failed:\n{traceback.format_exc()}", file=sys.stderr)
            return 2
        # Imported only now, so that it binds the cstack modules set-up imported.
        from harness import Bench

        bench = Bench(args.workload, args.seed, paths, setup_samples)

        def repeat_setup() -> float:
            # Repeated once per round, so that its samples spread over the
            # run like the cells' do.
            seconds, path = setup(args.workload, input_seeds[0], tmp_root)
            shutil.rmtree(os.path.dirname(path))
            return seconds

        if args.trace:
            run_rounds(args.seconds, TRACED_PASS, bench.traced_round)
        else:
            run_rounds(args.seconds, len(paths), lambda: bench.timing_round(repeat_setup))
        bench.check_across_runs(
            OUT / "counters" / f"{args.workload}-seed{args.seed}-{code_digest()}.json")
        for line in bench.describe():
            print(line)
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                              "n": N, "cells": bench.dumps}))
            print(f"# trace written to {trace_path.relative_to(ROOT)}")

        correct = bench.failed == 0
        try:
            values = bench.per_layer() if args.trace else bench.end_to_end()
        except (KeyError, ValueError, statistics.StatisticsError):
            # A cell that failed every execution leaves nothing to report.
            correct = False
            values = {}
        if set(values) != set(units):
            print(f"# metrics differ from BENCHMARK.json: "
                  f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
            correct = False
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in units.items()}
        print(json.dumps({"correct": correct, "attempted": bench.attempted,
                          "failed": bench.failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
