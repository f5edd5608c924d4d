"""Per-layer tracing from outside the package.

A traced cell hands the Runner subclasses of the package's public classes
whose layer-boundary methods are wrapped: the algorithm's hooks (problems),
the stacks' push/pop/top (core, compressed), the MemoryMeter's alloc/free
calls (metrics), LineSource.cursor and LineCursor.read (the runner's input
cursor), and the bound CompressedStack.replay delegate.  Scratch stacks that
a replay builds inherit the wrapped delegate, which switches each one to the
traced stack class, so nested replays and their stack calls are traced too.

Each wrapped call adds its duration to its own name and to the open call
that encloses it, so self time = inclusive time - children.  A wrapper
costs time of its own: the part before and after its clock reads lands in
the caller's self time, the part between them in the callee's.  Both are
measured on an empty function (`calibrate`) just before each traced
execution and taken off the self times: per direct child call from the
caller, per call from the callee.  What the corrected self times leave of
the untraced wall time is reported as `trace.unattributed`.  Replays also
keep one span each.  Nothing is written while a cell runs.
"""

from __future__ import annotations

import statistics
import time

ALGO_HOOKS = (
    "initialize", "clone_context", "pop_condition", "push_condition",
    "pre_pop", "post_pop", "no_pop", "pre_push", "post_push", "no_push",
    "report_line",
)
STACK_CALLS = ("push", "pop", "top")
METER_CALLS = ("alloc_data", "free_data", "alloc_sig", "free_sig", "alloc_slot", "free_slot")
SPAN_FIELDS = ("id", "parent", "depth", "level", "first_index", "last_index",
               "lines", "survivors", "start_us", "dur_us")


class Stat:
    __slots__ = ("calls", "incl", "child", "kids")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.child = 0.0  # inclusive time of wrapped direct callees
        self.kids = 0  # number of wrapped direct callee calls


class _Cursor:
    """A LineCursor stand-in whose read() is traced."""

    __slots__ = ("read", "close")

    def __init__(self, read, close):
        self.read = read
        self.close = close


def layer_of(name: str) -> str:
    # replay_segment is the runner's own loop; only its callees are other layers.
    return "runner" if name == "replay" else name.split(".", 1)[0]


class Tracer:
    """Call aggregates and replay spans for one traced cell execution."""

    def __init__(self, root_sizes: tuple[int, ...], cost: tuple[float, float] = (0.0, 0.0)):
        self.root_sizes = root_sizes
        # Wrapper cost per call in seconds: (charged to the caller, to the callee).
        self.outer_cost, self.inner_cost = cost
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple | None] = []
        self.forward_marks: list[float] = []
        self.replay_depth = 0
        self._frames: list[list[float]] = []
        self._open_replays: list[int] = []
        self._t0 = time.perf_counter()

    def wrap(self, name: str, fn, marks: list[float] | None = None):
        """`fn` traced under `name`; with `marks`, calls made outside any
        replay also append their start time there."""
        st = self.stats.setdefault(name, Stat())
        frames = self._frames
        clock = time.perf_counter

        def traced(*args):
            frame = [0.0, 0]
            frames.append(frame)
            t0 = clock()
            if marks is not None and not self.replay_depth:
                marks.append(t0)
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                frames.pop()
                st.calls += 1
                st.incl += dt
                st.child += frame[0]
                st.kids += frame[1]
                if frames:
                    parent = frames[-1]
                    parent[0] += dt
                    parent[1] += 1

        return traced

    @staticmethod
    def _subclass(base: type, attrs: dict) -> type:
        if hasattr(base, "__slots__"):
            # Same layout as the base, so a base instance can switch to it.
            attrs["__slots__"] = ()
        return type("Traced" + base.__name__, (base,), attrs)

    # -- traced classes ----------------------------------------------------------

    def algorithm(self, base: type) -> type:
        attrs = {h: self.wrap("problems." + h, getattr(base, h)) for h in ALGO_HOOKS}
        # Forward elements start at their read_input; replayed ones do not count.
        attrs["read_input"] = self.wrap("problems.read_input", base.read_input,
                                        self.forward_marks)
        return self._subclass(base, attrs)

    def meter(self, base: type) -> type:
        return self._subclass(base, {c: self.wrap("meter." + c, getattr(base, c))
                                     for c in METER_CALLS})

    def stack(self, base: type) -> type:
        return self._subclass(base, {c: self.wrap("stack." + c, getattr(base, c))
                                     for c in STACK_CALLS})

    def source(self, base: type) -> type:
        open_cursor = self.wrap("cursor.open", base.cursor)
        tracer = self

        def cursor(src, pos=0):
            c = open_cursor(src, pos)
            return _Cursor(tracer.wrap("cursor.read", c.read), c.close)

        return self._subclass(base, {"cursor": cursor})

    def bind(self, runner, stack, meter):
        """Wrap the stack's replay delegate; return the traced Runner.run."""
        if getattr(stack, "replay", None) is not None:
            stack.replay = self._replay(stack.replay, type(stack), meter)
        return self.wrap("runner.run", runner.run)

    def _replay(self, delegate, stack_cls: type, meter):
        spans = self.spans
        open_replays = self._open_replays
        clock = time.perf_counter
        level_of = {size: lvl for lvl, size in enumerate(self.root_sizes, 1)}

        def replay(scratch, bottom, last_index):
            scratch.__class__ = stack_cls
            span_id = len(spans)
            spans.append(None)
            parent = open_replays[-1] if open_replays else -1
            open_replays.append(span_id)
            self.replay_depth += 1
            depth = self.replay_depth
            g = scratch.geom
            level = level_of.get(g.last_expected - g.origin + 1, 0)
            lines0 = meter.replay_lines
            t0 = clock()
            try:
                delegate(scratch, bottom, last_index)
            finally:
                t1 = clock()
                self.replay_depth -= 1
                open_replays.pop()
                spans[span_id] = (
                    span_id, parent, depth, level, bottom.index, last_index,
                    meter.replay_lines - lines0, scratch.len(),
                    round((t0 - self._t0) * 1e6, 3), round((t1 - t0) * 1e6, 3),
                )

        # Wrapped whole, so that the span bookkeeping is charged to the
        # replay itself rather than to the stack call that asked for it.
        return self.wrap("replay", replay)

    # -- results -------------------------------------------------------------------

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st else 0

    def _self(self, st: Stat) -> float:
        return (st.incl - st.child - st.kids * self.outer_cost
                - st.calls * self.inner_cost)

    def self_time(self, name: str) -> float:
        """Self time of one name, net of the wrapper costs."""
        st = self.stats.get(name)
        return self._self(st) if st else 0.0

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + self._self(st)
        return out

    def attributed(self) -> float:
        """Seconds of the traced cell that the corrected self times cover."""
        return sum(self.layer_self().values())

    def counters(self) -> dict:
        """Counts that must repeat exactly across traced executions."""
        return {
            "folds": self.calls("meter.alloc_sig"),
            "replay_max_depth": max((s[2] for s in self.spans), default=0),
        }

    def summary(self, n: int, wall: float) -> dict[str, float]:
        """Per-layer metrics of this cell; times in microseconds per element."""
        per_elem = 1e6 / n
        layers = self.layer_self()
        steps = [b - a for a, b in zip(self.forward_marks, self.forward_marks[1:])]
        cuts = statistics.quantiles(steps, n=100) if len(steps) > 1 else [0.0] * 99
        outer = [s for s in self.spans if s[2] == 1]
        replayed = [s for s in self.spans if s[5] > s[4]]
        replay_lines = sum(s[6] for s in outer)
        replayed_span = sum(s[5] - s[4] for s in replayed)
        return {
            "cursor.reads": self.calls("cursor.read"),
            "cursor.opens": self.calls("cursor.open"),
            "cursor.self_us": layers.get("cursor", 0.0) * per_elem,
            "problems.parse_calls": self.calls("problems.read_input"),
            "problems.cond_calls": (self.calls("problems.pop_condition")
                                    + self.calls("problems.push_condition")),
            "problems.self_us": layers.get("problems", 0.0) * per_elem,
            "runner.self_us": layers.get("runner", 0.0) * per_elem,
            "runner.steps_per_elem": self.calls("problems.push_condition") / n,
            "runner.step_p50_us": cuts[49] * 1e6,
            "runner.step_p99_us": cuts[98] * 1e6,
            "runner.step_max_us": max(steps, default=0.0) * 1e6,
            "stack.push_calls": self.calls("stack.push"),
            "stack.pop_calls": self.calls("stack.pop"),
            "stack.top_calls": self.calls("stack.top"),
            "stack.push_self_us": self.self_time("stack.push") * per_elem,
            "stack.pop_self_us": self.self_time("stack.pop") * per_elem,
            "stack.top_self_us": self.self_time("stack.top") * per_elem,
            "stack.folds": self.calls("meter.alloc_sig"),
            "meter.calls": sum(self.calls("meter." + c) for c in METER_CALLS),
            "meter.self_us": layers.get("meter", 0.0) * per_elem,
            "replay.count": len(self.spans),
            "replay.lines_per_elem": replay_lines / n,
            "replay.max_depth": self.counters()["replay_max_depth"],
            "replay.share": sum(s[9] for s in outer) / 1e6 / wall,
            "replay.survivor_ratio": (sum(s[7] - 1 for s in replayed) / replayed_span
                                      if replayed_span else 0.0),
        }

    def dump(self) -> dict:
        """Everything recorded, for writing out once the run has ended."""
        return {
            "layers": {
                name: {"calls": st.calls, "incl_us": st.incl * 1e6,
                       "raw_self_us": (st.incl - st.child) * 1e6,
                       "self_us": self._self(st) * 1e6}
                for name, st in sorted(self.stats.items())
            },
            "wrapper_cost_us": {"outer": self.outer_cost * 1e6,
                                "inner": self.inner_cost * 1e6},
            "span_fields": list(SPAN_FIELDS),
            "spans": self.spans,
        }


def calibrate(calls: int = 10000, repeats: int = 5) -> tuple[float, float]:
    """Wrapper cost per call in seconds: (charged to the caller, to the callee).

    A wrapped loop calls a wrapped empty function with two arguments, as
    most traced methods take.  The loop's own cost per iteration comes from
    the same loop with no call, and the empty function's own cost from the
    loop calling it unwrapped; the rest of the caller's and the callee's
    measured time is the wrapper's.  Medians over repeats.
    """
    clock = time.perf_counter

    def nop(*args):
        pass

    def per_iteration(body) -> float:
        t0 = clock()
        body()
        return (clock() - t0) / calls

    def empty():
        for _ in range(calls):
            pass

    def direct():
        for _ in range(calls):
            nop(None, None)

    outer, inner = [], []
    for _ in range(repeats):
        tracer = Tracer(())
        child = tracer.wrap("child", nop)

        def wrapped():
            for _ in range(calls):
                child(None, None)

        tracer.wrap("loop", wrapped)()
        loop = per_iteration(empty)
        call = per_iteration(direct) - loop
        st = tracer.stats
        outer.append((st["loop"].incl - st["loop"].child) / calls - loop)
        inner.append(st["child"].incl / calls - call)
    return statistics.median(outer), statistics.median(inner)
