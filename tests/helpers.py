"""Shared drivers for building traces and running them against stacks."""

from __future__ import annotations

import random

from cstack.checker import TwinStack
from cstack.compressed import CompressedStack
from cstack.core import ClassicStack
from cstack.metrics import MemoryMeter
from cstack.problems import TestRun
from cstack.runner import LineSource, Runner


def pairs_to_text(pairs) -> str:
    return "\n".join(f"{v},{c}" for v, c in pairs) + "\n"


class ProbedTestRun(TestRun):
    """TestRun that reports progress to a callback after each element."""

    def __init__(self, on_element=None, on_pop=None):
        self.on_element = on_element
        self.on_pop = on_pop
        self._runner = None

    def post_pop(self, payload, popped, ctx):
        super().post_pop(payload, popped, ctx)
        if self.on_pop is not None:
            self.on_pop(self._runner, popped)

    def post_push(self, entry, ctx):
        if self.on_element is not None:
            self.on_element(self._runner, entry)


def run_testrun(pairs, stack_kind="compressed", *, p=2, n_expect=None, k=1,
                drain=True, on_element=None, on_pop=None):
    """Run a (value,pops) trace; returns (result, runner, stack, meter)."""
    n_expect = n_expect if n_expect is not None else max(len(pairs), 2)
    meter = MemoryMeter()
    if stack_kind == "classic":
        stack = ClassicStack(meter=meter)
    else:
        stack = CompressedStack(n_expect, p, k, meter=meter)
    algo = ProbedTestRun(on_element, on_pop) if (on_element or on_pop) else TestRun()
    runner = Runner(algo, LineSource.from_text(pairs_to_text(pairs)), stack,
                    drain_report=drain)
    if isinstance(algo, ProbedTestRun):
        algo._runner = runner
    result = runner.run()
    return result, runner, stack, meter


def run_twin_testrun(pairs, *, p, n_expect=None, k=1, deep=False, drain=True,
                     algo=None):
    """Run a trace against classic and compressed in lockstep."""
    n_expect = n_expect if n_expect is not None else max(len(pairs), 2)
    meter = MemoryMeter()
    twin = TwinStack(n_expect, p, k, meter=meter, deep=deep)
    runner = Runner(algo or TestRun(), LineSource.from_text(pairs_to_text(pairs)), twin,
                    drain_report=drain)
    result = runner.run()
    return result, twin


def random_trace(rng: random.Random, n: int, deep_prob=0.2, pop_prob=0.45):
    """Random (value, pops) pairs whose pops never outrun the stack."""
    pairs = []
    height = 0
    for _ in range(n):
        pops = 0
        if height and rng.random() < pop_prob:
            if rng.random() < deep_prob:
                pops = rng.randint(1, height)
            else:
                pops = rng.randint(1, min(4, height))
        height = height - pops + 1
        pairs.append((rng.randrange(1_000_000), pops))
    return pairs
