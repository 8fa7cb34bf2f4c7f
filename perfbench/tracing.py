"""Span tracing installed from outside the program under test.

The tracer wraps public functions and methods of the ``repro`` layers
(see :func:`install_layers`) for the duration of a traced run and
restores the originals afterwards; nothing under ``src/`` is edited.

Every wrapped call is a span.  Calls are properly nested (the grids run
in one thread), so a span's *self time* is its duration minus the
durations of its direct children.  Hot spans (per-event hooks and the
hierarchy) are aggregated per name as ``[calls, total_s, self_s]``;
coarse spans (grid, trace build, trace I/O, engine runs, result-cache
reads and writes) are also kept individually in memory as
``(name, start, end, parent, cell)`` and written out when the run ends.

Each wrapper costs time of its own.  :meth:`Tracer.calibrate` measures
that cost on a no-op and the tracer subtracts it: the part that falls
inside a span's own clock readings is removed from the span's duration,
and the whole per-call cost is charged to neither the span nor its
parent.  The sum of all self times plus ``calls x per-call cost`` then
equals the root span's duration.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable

#: Span names whose individual spans are kept (the rest only aggregate).
COARSE_SPANS = frozenset({
    "exec.grid",
    "workloads.build_trace",
    "trace.io_write",
    "trace.io_read",
    "sim.run",
    "sim.batch_run",
    "exec.cache_get",
    "exec.cache_put",
})


class Tracer:
    """A stack of open spans plus per-name aggregates.

    ``clock`` is injectable so tests can drive a synthetic span tree.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        #: Open frames, innermost last: ``[child_seconds, name]``.  The
        #: bottom frame is a sentinel that absorbs top-level spans.
        self.stack: list[list[Any]] = [[0.0, None]]
        #: name -> [calls, total_seconds, self_seconds]
        self.stats: dict[str, list[float]] = {}
        #: Individually kept coarse spans.
        self.spans: list[tuple[str, float, float, str | None, str | None]] = []
        #: Work counted at span boundaries (events, bytes, lanes).
        self.counts: dict[str, int] = {}
        #: Label of the grid cell being simulated (set by the sim wrappers).
        self.cell: str | None = None
        #: Calibrated wrapper cost inside a span's own clock readings.
        self.inner_cost = 0.0
        #: Calibrated total cost of one wrapped call, seen by the caller.
        self.call_cost = 0.0

    def stat(self, name: str) -> list[float]:
        """The live ``[calls, total_s, self_s]`` aggregate of one name."""
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def total_calls(self) -> int:
        return int(sum(stat[0] for stat in self.stats.values()))

    # -- spans --------------------------------------------------------------

    def wrap(self, fn: Callable, name: str | Callable[..., str]) -> Callable:
        """A traced stand-in for ``fn``.

        ``name`` is a span name or a function of the call's first
        argument (the instance, for methods) returning one.
        """
        stack = self.stack
        clock = self.clock
        tracer = self
        fixed = name if isinstance(name, str) else None
        fixed_stat = self.stat(fixed) if fixed is not None else None
        coarse = fixed in COARSE_SPANS if fixed is not None else False

        def traced(*args: Any, **kwargs: Any) -> Any:
            if fixed_stat is None:
                label = name(args[0])  # type: ignore[operator]
                stat = tracer.stat(label)
                keep = label in COARSE_SPANS
            else:
                label, stat, keep = fixed, fixed_stat, coarse
            frame = [0.0, label]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start - tracer.inner_cost
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                stack[-1][0] += duration + tracer.call_cost
                if keep:
                    tracer.spans.append(
                        (label, start, end, stack[-1][1], tracer.cell))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named ``name`` (no wrapper install)."""
        return self.wrap(fn, name)(*args, **kwargs)

    # -- calibration ----------------------------------------------------------

    def calibrate(self, calls: int = 200_000, rounds: int = 5) -> None:
        """Measure the wrapper's own cost on a no-op and store it.

        Runs on a scratch tracer with this tracer's clock so the live
        aggregates are untouched.  Each round times ``calls`` plain
        calls and ``calls`` wrapped calls; the medians over rounds give
        the total per-call cost (wrapped minus plain) and the part of it
        that lands between a span's own clock readings.  The real hooks'
        cost also depends on cache and branch state a no-op cannot
        reproduce; ``bench.trace_overhead_frac`` shows what remains.
        """

        class Probe:
            # Two arguments, like the hooks and hierarchy methods traced.
            def noop(self, first: Any, second: Any) -> None:
                return None

        probe = Probe()
        plain_call = probe.noop
        inner: list[float] = []
        total: list[float] = []
        loop = range(calls)
        for _ in range(rounds):
            scratch = Tracer(self.clock)
            traced = scratch.wrap(Probe.noop, "calibration")
            started = self.clock()
            for _ in loop:
                plain_call(1, 2)
            plain = (self.clock() - started) / calls
            started = self.clock()
            for _ in loop:
                traced(probe, 1, 2)
            wrapped = (self.clock() - started) / calls
            measured = scratch.total("calibration") / calls
            inner.append(max(0.0, measured - plain))
            total.append(max(0.0, wrapped - plain))
        self.inner_cost = statistics.median(inner)
        self.call_cost = max(self.inner_cost, statistics.median(total))

    def overhead_seconds(self) -> float:
        """Wrapper cost removed from the attributed times, in total."""
        return self.total_calls() * self.call_cost

    # -- output ---------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write the kept spans and the aggregates as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, cell in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "cell": cell,
                }) + "\n")
            for name, (calls, total, own) in sorted(self.stats.items()):
                handle.write(json.dumps({
                    "aggregate": name, "calls": calls, "total_s": total,
                    "self_s": own,
                }) + "\n")


class Installation:
    """Replaces attributes with traced stand-ins; :meth:`remove` undoes it."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attribute: str,
              name: str | Callable[..., str],
              around: Callable[[Callable], Callable] | None = None) -> None:
        """Trace ``owner.attribute``; ``around`` may wrap the traced call
        once more, outside the span (for bookkeeping around it)."""
        original = (owner.__dict__[attribute] if isinstance(owner, type)
                    else getattr(owner, attribute))
        self._saved.append((owner, attribute, original))
        traced = self.tracer.wrap(original, name)
        setattr(owner, attribute, around(traced) if around else traced)

    def patch_hooks(self, cls: type, name: str | Callable[..., str],
                    hooks: Iterable[str]) -> None:
        """Wrap each hook that ``cls`` itself defines (not inherited ones)."""
        for hook in hooks:
            if hook in cls.__dict__:
                self.patch(cls, hook, name)

    def remove(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


PREFETCHER_HOOKS = ("on_access", "on_block_begin", "on_block_end",
                    "on_l1_eviction")


def install_layers(tracer: Tracer,
                   after_run: Callable[[Any, Any], None] | None = None
                   ) -> Installation:
    """Wrap every layer boundary the benchmark attributes time to.

    Targets are public functions and methods, patched where the callers
    look them up: classes for methods, and the ``repro.harness.runner``
    namespace for the functions it imported by name.  ``after_run`` is
    called with ``(prefetcher, result)`` after each per-cell engine run,
    outside its span.
    """
    from repro.core.hybrid import CbwsSmsPrefetcher
    from repro.core.prefetcher import CbwsPrefetcher
    from repro.exec.cache import ResultCache
    from repro.harness import runner
    from repro.memory.hierarchy import CacheHierarchy
    from repro.prefetchers.ampm import AmpmPrefetcher
    from repro.prefetchers.ghb import GhbPrefetcher
    from repro.prefetchers.learned import PanglossPrefetcher, PythiaPrefetcher
    from repro.prefetchers.markov import MarkovPrefetcher
    from repro.prefetchers.sms import SmsPrefetcher
    from repro.prefetchers.stride import StridePrefetcher
    from repro.sim.batch import BatchSimulationEngine
    from repro.sim.engine import SimulationEngine
    from repro.trace.stream import Trace

    def count_events(build: Callable) -> Callable:
        def counted(*args: Any, **kwargs: Any) -> Any:
            trace = build(*args, **kwargs)
            tracer.count("workloads.build_trace_events", len(trace.events))
            return trace
        return counted

    def count_bytes(write: Callable) -> Callable:
        def counted(trace: Any, path: Any) -> None:
            write(trace, path)
            tracer.count("trace.io_bytes", Path(path).stat().st_size)
        return counted

    install = Installation(tracer)
    install.patch(runner, "build_trace", "workloads.build_trace",
                  count_events)
    install.patch(runner, "write_trace", "trace.io_write", count_bytes)
    install.patch(runner, "try_read_trace", "trace.io_read")
    install.patch(Trace, "columns", "trace.columns")

    def label_cell(run: Callable) -> Callable:
        def labelled(engine: Any, trace: Any) -> Any:
            tracer.cell = f"{trace.name}|{engine.prefetcher.name}"
            result = run(engine, trace)
            if after_run is not None:
                after_run(engine.prefetcher, result)
            return result
        return labelled

    def label_batch(run: Callable) -> Callable:
        def labelled(engine: Any, trace: Any) -> Any:
            tracer.cell = f"{trace.name}|batch"
            tracer.count("sim.batch_lanes", len(engine.lanes))
            return run(engine, trace)
        return labelled

    install.patch(SimulationEngine, "run", "sim.run", label_cell)
    install.patch(BatchSimulationEngine, "run", "sim.batch_run", label_batch)
    install.patch(CacheHierarchy, "demand_access_fast", "memory.demand")
    install.patch(CacheHierarchy, "prefetch_fill_fast", "memory.fill")
    install.patch(ResultCache, "get", "exec.cache_get")
    install.patch(ResultCache, "put", "exec.cache_put")

    install.patch(CbwsPrefetcher, "on_access", "core.cbws.access")
    install.patch(CbwsPrefetcher, "on_block_end", "core.cbws.block_end")
    install.patch(CbwsPrefetcher, "on_block_begin", "core.cbws.block_begin")
    install.patch_hooks(CbwsSmsPrefetcher, "core.hybrid.hook",
                        PREFETCHER_HOOKS)
    for cls, label in (
        (SmsPrefetcher, "sms"),
        (StridePrefetcher, "stride"),
        (AmpmPrefetcher, "ampm"),
        (MarkovPrefetcher, "markov"),
        (PanglossPrefetcher, "pangloss"),
        (PythiaPrefetcher, "pythia"),
    ):
        install.patch_hooks(cls, f"prefetchers.{label}.hook", PREFETCHER_HOOKS)
    install.patch_hooks(GhbPrefetcher, _ghb_label, PREFETCHER_HOOKS)
    return install


def _ghb_label(prefetcher: Any) -> str:
    """One class serves both GHB variants; the mode names the span."""
    mode = "pcdc" if prefetcher.config.mode == "pc" else "gdc"
    return f"prefetchers.ghb-{mode}.hook"
