"""Hook-driven execution loop shared by every stack-backed algorithm.

An algorithm is a set of hooks (`StackAlgorithm`, which also states the
contracts they keep): parse one input line into a payload, decide per
element whether to pop (repeatedly) and whether to push, with optional
pre/post/no actions around each, and a formatter for the final report.  The
runner executes the loop, feeds the conditions a read-only view of the top-k
entries (`TopAccess`), and drains the stack into the report when the input
ends.

The run and every replay share one loop, `Runner._scan`: a stack that
declares a `replay` delegate, as the compressed stack does, gets the
`replay_segment` of each Runner built on it, and when it needs a folded
block back the runner re-runs the hooks over that block's input range,
against a scratch stack, with a private copy of the context, through a
cursor nested in the one it interrupts (`LineSource`).  The context is
copied only where a replay can restart, through the `snapshot` callback
that `_scan` binds on a stack that declares one.
"""

from __future__ import annotations

import copy
import io
import os
import time
from dataclasses import dataclass, field
from typing import Any

from .core import ContractError, Data, DeterminismError, ParseError, StackInterface
from .metrics import MemoryMeter, RunMetrics


class TopAccess:
    """Read-only window onto the top k entries, handed to the conditions.

    top(j) returns the j-th entry from the top, or None where the stack holds
    fewer than j entries; j beyond the algorithm's declared depth is an
    error.  Probes are lazy: a condition that never looks at the stack never
    pays for deep access.  Every stack's own top reads None beyond its
    depth, so the view only adds the k check; a stack that declares the
    same k makes that check itself, so there `top` is the stack's own
    method.
    """

    __slots__ = ("top", "k", "_top")

    def __init__(self, stack: StackInterface, k: int):
        self.k = k
        if getattr(stack, "k", None) == k:
            self.top = stack.top
        else:
            self._top = stack.top
            self.top = self._checked_top

    def _checked_top(self, j: int) -> Data | None:
        if j > self.k:
            raise ContractError(f"top({j}) outside declared access depth k={self.k}")
        return self._top(j)


class StackAlgorithm:
    """Base hooks. Subclasses set k and override what they need.

    Conditions receive `top`, a TopAccess window; positions the stack cannot
    answer read as None.  A compressed stack rebuilds folded blocks by
    running the hooks again over their input, so conditions must be pure
    functions of (payload, context, top-k view), and the other hooks may
    mutate the context but nothing else the replay can observe.  The runner
    does not call a pre/post/no hook, or push_condition, that is left as the
    base no-op (push_condition: push always); override it in a subclass or
    set it on the instance before the Runner is built, which looks every
    hook up once for its run and all its replays, to have it called.
    """

    k = 1

    def initialize(self) -> Any:
        """Create the context."""
        return None

    def clone_context(self, ctx: Any) -> Any:
        """Independent copy of the context: a deep copy, so a snapshot shares
        no mutable state with the live context.  Override it with a cheaper
        copy that still shares nothing a hook mutates."""
        return copy.deepcopy(ctx)

    def read_input(self, line: str, ctx: Any) -> Any:
        raise NotImplementedError

    def pop_condition(self, payload: Any, ctx: Any, top: TopAccess) -> bool:
        return False

    def push_condition(self, payload: Any, ctx: Any, top: TopAccess) -> bool:
        return True

    def pre_pop(self, payload: Any, ctx: Any) -> None:
        pass

    def post_pop(self, payload: Any, popped: Data, ctx: Any) -> None:
        pass

    def no_pop(self, payload: Any, ctx: Any) -> None:
        pass

    def pre_push(self, payload: Any, ctx: Any) -> None:
        pass

    def post_push(self, entry: Data, ctx: Any) -> None:
        pass

    def no_push(self, payload: Any, ctx: Any) -> None:
        pass

    def report_line(self, d: Data) -> str:
        return str(d.payload)


def _hook(algo: StackAlgorithm, name: str):
    """algo's hook `name`, or None where it is StackAlgorithm's own no-op
    (or, for push_condition, its constant True): a hook overridden in a
    subclass or set on the instance is returned."""
    hook = getattr(algo, name)
    if getattr(hook, "__func__", None) is getattr(StackAlgorithm, name):
        return None
    return hook


class LineSource:
    """Line-oriented input read through one handle by nested cursors.

    Cursors skip blank lines and '#' comment lines; positions refer to the
    underlying byte stream, so a cursor opened at a saved position re-reads
    exactly the bytes that followed it.  The file, or the in-memory bytes, is
    opened once, at the first cursor, and every cursor reads through that
    handle: opening one notes where the handle is and seeks it to the
    cursor's position, and closing it seeks the handle back.  Replays are
    synchronous and nested, so a cursor opens where the enclosing one
    stopped, and only the innermost open cursor reads.  The content must
    not change during a run: each cursor compares the open file's size and
    modification time with those its first cursor found, and raises
    DeterminismError instead of replaying other lines.  A file replaced by
    rename keeps being read from the original.  The source owns the handle:
    close it, or use it as a context manager.
    """

    def __init__(self, path: str | None = None, data: bytes | None = None):
        self._path = path
        self._data = data
        self._handle = None
        self._stamp: tuple[int, int] | None = None

    @classmethod
    def from_path(cls, path) -> "LineSource":
        return cls(path=str(path))

    @classmethod
    def from_text(cls, text: str) -> "LineSource":
        return cls(data=text.encode("utf-8"))

    def cursor(self, pos: int = 0) -> "LineCursor":
        handle = self._handle
        if self._path is not None:
            if handle is None:
                handle = self._handle = open(self._path, "rb")
            st = os.fstat(handle.fileno())
            stamp = (st.st_size, st.st_mtime_ns)
            if self._stamp is None:
                self._stamp = stamp
            elif stamp != self._stamp:
                raise DeterminismError(
                    f"input {self._path} changed during the run: (size, mtime_ns) "
                    f"{self._stamp} -> {stamp}"
                )
        elif handle is None:
            handle = self._handle = io.BytesIO(self._data)
        resume = handle.tell()
        handle.seek(pos)
        return LineCursor(handle, resume)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class LineCursor:
    """Reads data lines from a handle, remembering where it stopped.

    A cursor shares its LineSource's handle and keeps the position the
    handle had when it opened, `resume`; closing the cursor seeks the handle
    back there, once, so the enclosing cursor reads on where it stopped.
    """

    __slots__ = ("_handle", "_readline", "_pos", "_resume")

    def __init__(self, handle, resume: int):
        self._handle = handle
        self._readline = handle.readline
        self._pos = handle.tell()
        self._resume = resume

    def read(self) -> tuple[str, int] | None:
        """Next data line and the byte position just after it, or None at EOF."""
        readline = self._readline
        pos = self._pos
        while True:
            raw = readline()
            if not raw:
                self._pos = pos
                return None
            pos += len(raw)
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                # skip a comment whatever its bytes; _scan reports a data line
                if raw.lstrip().startswith(b"#"):
                    continue
                raise
            if not line or line[0] == "#":
                continue
            self._pos = pos
            return line, pos

    def close(self) -> None:
        resume, self._resume = self._resume, None
        if resume is not None and not self._handle.closed:
            self._handle.seek(resume)


@dataclass
class RunResult:
    metrics: RunMetrics
    report: list[str] = field(default_factory=list)


class Runner:
    """Executes one algorithm over one input against one stack."""

    def __init__(
        self,
        algo: StackAlgorithm,
        source: LineSource,
        stack: StackInterface,
        *,
        collect_report: bool = True,
        drain_report: bool = True,
    ):
        self.algo = algo
        self.source = source
        self.stack = stack
        self.collect_report = collect_report
        self.drain_report = drain_report
        # In _scan's order; post_push comes last, as replay_segment seeds with it.
        names = ("pre_pop", "post_pop", "no_pop", "push_condition", "pre_push", "no_push",
                 "post_push")
        self.hooks = (algo.read_input, algo.pop_condition) + tuple(_hook(algo, n) for n in names)
        if hasattr(stack, "replay"):
            stack.replay = self.replay_segment
        self.meter: MemoryMeter = getattr(stack, "meter", None) or MemoryMeter()

    # -- main loop -----------------------------------------------------------

    def run(self) -> RunResult:
        t0 = time.perf_counter()
        stack = self.stack
        pushes = self._scan(stack, self.algo.initialize(), 0, 0, None)
        final_len = stack.len()
        report = self._report() if self.drain_report else []
        # Every pushed entry is popped, by the scan or the drain, or left.
        pops = pushes if self.drain_report else pushes - final_len
        wall = time.perf_counter() - t0
        bound = getattr(stack, "resident_data_bound", None)
        metrics = RunMetrics(
            wall_seconds=wall,
            peak_bytes=self.meter.peak_bytes,
            reconstructions=self.meter.reconstructions,
            pushes=pushes,
            pops=pops,
            degraded_estimate=getattr(stack, "degraded", False),
            final_len=final_len,
            replay_lines=self.meter.replay_lines,
            peak_entries=self.meter.peak_data,
            promotions=self.meter.promotions,
            max_replay_depth=self.meter.max_replay_depth,
            resident_bound=bound() if bound is not None else None,
        )
        return RunResult(metrics=metrics, report=report)

    def _scan(
        self,
        stack: StackInterface,
        ctx: Any,
        pos: int,
        index: int,
        last_index: int | None,
    ) -> int:
        """The hook loop: read, parse, pop while asked, push if asked.

        Reads through a cursor of the source that it opens at byte position
        pos and closes.  Elements are numbered from index + 1.  The run
        passes last_index None and stops at the end of the input; a replay
        stops after last_index and raises ParseError if the input ends
        first.  The hooks are the Runner's (None: not called); stack
        operations are looked up once per call, and the conditions share one
        top-k view.  Returns the number of pushes this call made.
        """
        (read_input, pop_condition, pre_pop, post_pop, no_pop, push_condition,
         pre_push, no_push, post_push) = self.hooks
        push, pop, length = stack.push, stack.pop, stack.len
        view = TopAccess(stack, self.algo.k)
        # Data's generated __new__ only packs its four arguments; the literal
        # below packs them without the Python-level call.
        new_tuple = tuple.__new__
        pushes = 0
        # Opened first, so that a failed open leaves no snapshot bound.
        cursor = self.source.cursor(pos)
        read = cursor.read
        # A stack that declares `snapshot` calls it for the pushes whose entry
        # a replay may restart from; it copies this call's context.  Hooks
        # mutate the context but cannot replace it, so a None context stays
        # None: there is nothing to copy.
        bound = ctx is not None and hasattr(stack, "snapshot")
        if bound:
            clone_context = self.algo.clone_context
            stack.snapshot = lambda: clone_context(ctx)
        try:
            while index != last_index:
                try:
                    item = read()
                except UnicodeDecodeError as exc:
                    line = exc.object.decode("utf-8", "backslashreplace").strip()
                    raise ParseError(index + 1, line, "not valid UTF-8") from exc
                if item is None:
                    if last_index is None:
                        break
                    raise ParseError(index + 1, "<eof>", "input ended during replay")
                line, pos = item
                index += 1
                try:
                    payload = read_input(line, ctx)
                except ParseError:
                    raise
                except Exception as exc:
                    raise ParseError(index, line, str(exc)) from exc
                while length() > 0:
                    if pop_condition(payload, ctx, view):
                        if pre_pop is not None:
                            pre_pop(payload, ctx)
                        popped = pop()
                        if post_pop is not None:
                            post_pop(payload, popped, ctx)
                    else:
                        if no_pop is not None:
                            no_pop(payload, ctx)
                        break
                if push_condition is None or push_condition(payload, ctx, view):
                    if pre_push is not None:
                        pre_push(payload, ctx)
                    entry = new_tuple(Data, (index, payload, None, pos))
                    push(entry)
                    pushes += 1
                    if post_push is not None:
                        post_push(entry, ctx)
                elif no_push is not None:
                    no_push(payload, ctx)
        finally:
            if bound:
                stack.snapshot = None
            cursor.close()
        return pushes

    def _report(self) -> list[str]:
        """Drain the stack a run at a time, formatting only when collecting."""
        lines: list[str] = []
        stack = self.stack
        report_line = self.algo.report_line if self.collect_report else None
        while stack.len() > 0:
            run = stack.pop_run()
            if report_line is not None:
                lines.extend(map(report_line, run))
        return lines

    # -- replay delegate -------------------------------------------------------

    def replay_segment(self, scratch: StackInterface, bottom: Data, last_index: int) -> None:
        """Re-run the hook loop over input indices bottom.index..last_index.

        Seeds the scratch with the bottom entry, restores its context
        snapshot, and resumes reading right after the bottom's line;
        last_index is above bottom.index, as a lone survivor needs no
        replay.  The loop's push count is dropped, so replays do not
        inflate the run's.
        """
        ctx = self.algo.clone_context(bottom.ctx_snapshot)
        scratch.push(bottom)
        if (post_push := self.hooks[-1]) is not None:
            post_push(bottom, ctx)
        self._scan(scratch, ctx, bottom.stream_pos, bottom.index, last_index)
        self.meter.replay_lines += last_index - bottom.index
