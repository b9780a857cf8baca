"""Per-layer tracing of the triconc package from outside it.

A :class:`Tracer` replaces selected public functions of the package's
modules with timing wrappers for the duration of one job.  Because
``teststate``, ``protocol``, the package ``__init__`` and others import
functions by name, a wrapper is installed at *every* module-level
binding whose value is the original function object, not only in the
defining module; a binding that still pointed at the original would
silently escape the trace.

Two kinds of wrapper:

* hot leaves (``binom``, ``log2_big``, ``sample_k``) are called up to a
  million times per job, so they only add to a count and a total time;
* every other traced function records a span (name, start, end,
  parent index), kept in memory and returned by :meth:`Tracer.report`.

A span's self time is its duration minus the time of its child spans
and of the leaf calls made directly under it.  The root span ``cli.job``
covers the whole timed job, so its self time is the time spent in
``cli.main`` (or the job's own loop) outside every traced layer.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time

#: Aggregated as count + total seconds, no span per call.
LEAVES = {
    "exactmath": ("binom", "log2_big"),
    "protocol": ("sample_k",),
}

#: One span per call.
SPANS = {
    "exactmath": ("inner_sum_table",),
    "teststate": ("e_in", "gap_scan", "slope_fit", "fit_line"),
    "oracle": (
        "build_test_state",
        "superpose_strings",
        "string_state",
        "schmidt_spectrum",
        "apply_ubc",
        "apply_local_circuit",
        "entanglement_delta",
    ),
    "protocol": ("run_batches",),
    "eof": ("ledger", "concurrence"),
}

#: Oracle functions that return a dense state; their ``amps.nbytes`` is
#: counted once per state object (a pass-through of a child's result,
#: as in build_test_state -> superpose_strings, is not counted again).
_STATE_FUNCS = frozenset({
    "oracle.build_test_state",
    "oracle.superpose_strings",
    "oracle.string_state",
    "oracle.apply_ubc",
    "oracle.apply_local_circuit",
})

ROOT = "cli.job"


class _Frame:
    __slots__ = ("index", "start", "child_s", "child_results")

    def __init__(self, index: int, start: float, keep_results: bool):
        self.index = index
        self.start = start
        self.child_s = 0.0
        self.child_results: list | None = [] if keep_results else None


class Tracer:
    """Spans, leaf aggregates and data counters for one job."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, self_s]
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds]
        self.counters = {
            "oracle.state_bytes.max": 0,
            "oracle.state_bytes.sum": 0,
            "oracle.svd_dim.max": 0,
            "protocol.batches": 0,
            "protocol.truncated": 0,
            "protocol.dm_bits.max": 0,
        }
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []
        self._truncation_error: type | None = None

    # -------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every traced function at every binding in ``triconc.*``."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "triconc" or name.startswith("triconc."))]
        protocol = sys.modules.get("triconc.protocol")
        self._truncation_error = getattr(protocol, "TruncationError", None)
        for kinds, make in ((LEAVES, self._leaf), (SPANS, self._span)):
            for modname, fnames in kinds.items():
                module = sys.modules.get(f"triconc.{modname}")
                for fname in fnames:
                    name = f"{modname}.{fname}"
                    original = getattr(module, fname, None)
                    if not callable(original):
                        self.missing.append(name)
                        continue
                    wrapper = make(name, original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, wrapper)
                                self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ---------------------------------------------------------- spans

    def _open(self, name: str) -> _Frame:
        parent = self._stack[-1].index if self._stack else -1
        index = len(self.spans)
        start = time.perf_counter()
        self.spans.append([name, start, None, parent, None])
        frame = _Frame(index, start, name in _STATE_FUNCS)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[frame.index]
        span[2] = end
        span[4] = (end - frame.start) - frame.child_s
        if self._stack:
            self._stack[-1].child_s += end - frame.start

    @contextlib.contextmanager
    def root(self):
        """Span covering the whole timed job."""
        frame = self._open(ROOT)
        try:
            yield
        finally:
            self._close(frame)

    def _span(self, name: str, fn):
        observe = self._observer(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                if name == "oracle.schmidt_spectrum":
                    state = args[0] if args else kwargs["state"]
                    self._max("oracle.svd_dim.max", 1 << state.n_pairs)
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(frame, result)
                return result
            except BaseException as exc:
                if (self._truncation_error is not None
                        and isinstance(exc, self._truncation_error)):
                    self.counters["protocol.truncated"] += 1
                    self._run_stats(frame, exc.stats)
                raise
            finally:
                self._close(frame)

        return wrapper

    def _leaf(self, name: str, fn):
        agg = self.leaves.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                agg[0] += 1
                agg[1] += dt
                if stack:
                    stack[-1].child_s += dt

        return wrapper

    # ------------------------------------------------------- counters

    def _observer(self, name: str):
        if name in _STATE_FUNCS:
            return self._count_state
        if name == "protocol.run_batches":
            return self._run_stats
        return None

    def _max(self, key: str, value: int) -> None:
        if value > self.counters[key]:
            self.counters[key] = value

    def _count_state(self, frame: _Frame, state) -> None:
        # `frame` is still the top of the stack; its parent collects the
        # result so that a pass-through is recognised one level up.
        if len(self._stack) >= 2 and self._stack[-2].child_results is not None:
            self._stack[-2].child_results.append(state)
        if frame.child_results and any(state is r for r in frame.child_results):
            return
        nbytes = int(state.amps.nbytes)
        self.counters["oracle.state_bytes.sum"] += nbytes
        self._max("oracle.state_bytes.max", nbytes)

    def _run_stats(self, frame: _Frame, stats) -> None:
        self.counters["protocol.batches"] += int(stats.m_batches)
        self._max("protocol.dm_bits.max", math.ceil(stats.gamma_log2))

    # --------------------------------------------------------- report

    def report(self) -> dict:
        """Per-name calls / inclusive seconds / self seconds, plus counters."""
        per_name: dict[str, dict] = {}
        for name, start, end, _parent, self_s in self.spans:
            agg = per_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += self_s
        for name, (calls, seconds) in self.leaves.items():
            per_name[name] = {"calls": calls, "s": seconds, "self_s": seconds}
        return {
            "layers": per_name,
            "counters": dict(self.counters),
            "missing": list(self.missing),
            "spans": self.spans,
        }

