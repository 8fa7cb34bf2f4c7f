"""Grid runner: (workload x prefetcher) simulations with trace caching.

Traces are expensive to generate (the IR interpreter executes every
iteration over real data) but identical for every prefetcher, so each
workload's trace is built once and reused across the grid.
:func:`load_trace` is the only code that builds, reads or writes a
workload trace: a bounded process-wide LRU keyed by the trace's content
key covers repeated use, and an optional on-disk copy (the binary trace
format) survives processes.

Every grid runs through :func:`repro.exec.scheduler.execute_grid`, which
owns the result cache, the run journal, ``--resume`` and the engine-tier
selection; ``jobs=1`` runs its tasks in-process.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Sequence

from repro.common.errors import ExecError
from repro.exec.keys import trace_filename, trace_key
from repro.exec.telemetry import count_corrupt_trace
from repro.metrics.aggregate import ResultGrid
from repro.prefetchers.base import Prefetcher
from repro.sim.config import REDUCED_CONFIG, SimConfig
from repro.sim.engine import simulate
from repro.sim.results import SimResult
from repro.trace.io import try_read_trace, write_trace
from repro.trace.stream import Trace
from repro.workloads.base import build_trace, get_workload

#: Most-recently-used traces by content key (one LRU per process, so
#: each pool worker keeps its own).  Bounded two ways: by entry count,
#: and by estimated total bytes so a grid of huge traces cannot exhaust
#: memory that a grid of small traces would sail through.
_TRACE_CACHE: "OrderedDict[str, Trace]" = OrderedDict()
_TRACE_CACHE_CAPACITY = 4

#: Total-bytes bound on the trace LRU, tunable via
#: ``$REPRO_TRACE_CACHE_BYTES`` (default 256 MiB).  The most recently
#: used trace is always retained even when it alone exceeds the bound,
#: so repeated sims of one oversized workload still hit.
_TRACE_CACHE_MAX_BYTES = int(
    os.environ.get("REPRO_TRACE_CACHE_BYTES", str(256 * 1024 * 1024))
)

#: Rough per-event heap cost of a deserialized ``TraceEvent`` (a small
#: Python object plus list slot); used to estimate cache footprint
#: without walking every object graph.
_EVENT_NBYTES_ESTIMATE = 160


def trace_nbytes(trace: Trace) -> int:
    """Estimated heap footprint of one in-memory trace."""
    return 1024 + len(trace.events) * _EVENT_NBYTES_ESTIMATE


def _remember_trace(key: str, trace: Trace) -> None:
    _TRACE_CACHE[key] = trace
    _TRACE_CACHE.move_to_end(key)
    while len(_TRACE_CACHE) > _TRACE_CACHE_CAPACITY:
        _TRACE_CACHE.popitem(last=False)
    total = sum(trace_nbytes(cached) for cached in _TRACE_CACHE.values())
    while total > _TRACE_CACHE_MAX_BYTES and len(_TRACE_CACHE) > 1:
        _, evicted = _TRACE_CACHE.popitem(last=False)
        total -= trace_nbytes(evicted)


def load_trace(
    workload: str,
    scale: float,
    budget_fraction: float,
    seed: int,
    path: str | Path | None = None,
    key: str | None = None,
) -> tuple[Trace, str]:
    """One workload's annotated trace, and where it came from.

    Looks in the LRU, then reads ``path`` (a corrupt file is logged,
    deleted and rebuilt), then builds the trace; whatever ``path`` lacks
    is written there.  ``path=None`` means no disk.  ``key`` is the
    trace's content key when the caller already has it.  The source is
    ``"memory"``, ``"disk"``, ``"built"`` or ``"rebuilt"`` (built after
    discarding a corrupt file).
    """
    if key is None:
        key = trace_key(workload, scale, budget_fraction, seed)
    path = Path(path) if path is not None else None
    trace = _TRACE_CACHE.get(key)
    source = "memory"
    if trace is None and path is not None and path.exists():
        trace = try_read_trace(path)
        source = "disk"
        if trace is None:
            # A corrupt or truncated file must not sink the grid:
            # report it, drop it, rebuild below.
            count_corrupt_trace(path)
            path.unlink(missing_ok=True)
    if trace is None:
        source = "rebuilt" if source == "disk" else "built"
        spec = get_workload(workload)
        budget = max(1000,
                     int(spec.default_accesses * scale * budget_fraction))
        trace = build_trace(spec, scale=scale, max_accesses=budget, seed=seed)
    if path is not None and source != "disk" and not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        write_trace(trace, path)
    _remember_trace(key, trace)
    return trace, source


class GridRunner:
    """Runs simulation grids against one machine configuration.

    Args:
        config: machine model (defaults to the reduced Table II scale).
        scale: workload scale factor passed to every kernel factory.
        budget_fraction: multiplies each workload's default access budget;
            tests use small fractions for fast, structurally identical
            runs.
        seed: workload data seed.
        cache_dir: optional directory for on-disk trace caching (also
            the default home of the result cache and execution stats).
        jobs: default worker processes for :meth:`run_grid`; ``1`` (the
            default) runs in-process, ``None`` uses ``os.cpu_count()``.
        result_cache: the content-addressed simulation-result cache.
            ``None`` (default) enables it under ``cache_dir/results``
            when ``cache_dir`` is set; ``False`` disables it; a path
            uses that directory directly.
        exec_options: base :class:`repro.exec.ExecOptions` (timeout,
            retry policy, breaker threshold) for delegated grid runs;
            ``jobs`` above wins.
        engine: simulation engine tier for :meth:`run_grid` —
            ``"auto"`` (default) batches a workload's cells when enough
            of them share its trace, ``"fast"`` / ``"batch"`` force a
            tier.
        run_id: explicit identifier for the write-ahead run journal
            (default: a fresh timestamped id per grid run).  Journals
            live under ``cache_dir/runs/<run_id>/journal.jsonl`` and are
            only written when a cache directory exists.
        resume: id of a journaled prior run to resume — its completed
            cells replay through the result cache and its quarantine /
            degradation decisions carry forward.  The resumed journal's
            fingerprint must match this runner's grid request.
        strict: raise :class:`ExecError` when any cell is quarantined
            (the historical behaviour).  The default is lenient: the
            grid completes with explicit DEGRADED holes.
    """

    def __init__(
        self,
        config: SimConfig = REDUCED_CONFIG,
        scale: float = 1.0,
        budget_fraction: float = 1.0,
        seed: int = 0,
        cache_dir: str | Path | None = None,
        jobs: int | None = 1,
        result_cache: bool | str | Path | None = None,
        exec_options: "object | None" = None,
        run_id: str | None = None,
        resume: str | None = None,
        strict: bool = False,
        engine: str = "auto",
    ) -> None:
        from repro.exec.scheduler import ENGINE_TIERS

        if engine not in ENGINE_TIERS:
            raise ExecError(
                f"unknown engine tier {engine!r}; expected one of "
                f"{', '.join(ENGINE_TIERS)}"
            )
        self.config = config
        self.scale = scale
        self.budget_fraction = budget_fraction
        self.seed = seed
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.jobs = jobs
        self.engine = engine
        self.exec_options = exec_options
        self.run_id = run_id
        self.resume = resume
        self.strict = strict
        #: id of the most recent journaled grid run (for reporting).
        self.last_run_id: str | None = None
        self._grid_runs = 0
        if result_cache is False:
            self._result_cache_root: Path | None = None
        elif result_cache in (None, True):
            self._result_cache_root = (
                self.cache_dir / "results"
                if self.cache_dir is not None else None
            )
        else:
            self._result_cache_root = Path(result_cache)
        # Simulations are deterministic, so registry-built grid cells are
        # memoized: experiments sharing a runner reuse each other's cells.
        self._results: dict[tuple[str, str], SimResult] = {}

    # -- traces ------------------------------------------------------------

    def trace(self, workload: str) -> Trace:
        """The (cached) annotated trace for one workload."""
        return load_trace(workload, self.scale, self.budget_fraction,
                          self.seed, self._disk_path(workload))[0]

    def _disk_path(self, workload: str) -> Path | None:
        if self.cache_dir is None:
            return None
        # The digest-based name is stable across processes and never
        # collides: raw float reprs (s0.30000000000000004) used to
        # produce both unstable and ambiguous names.
        return self.cache_dir / trace_filename(
            workload, self.scale, self.budget_fraction, self.seed
        )

    # -- simulation ---------------------------------------------------------

    def run_one(
        self,
        workload: str,
        prefetcher_name: str,
        prefetcher: Prefetcher | None = None,
    ) -> SimResult:
        """Simulate one grid cell with a fresh prefetcher instance."""
        from repro.harness.registry import make_prefetcher

        if prefetcher is None:
            key = (workload, prefetcher_name)
            cached = self._results.get(key)
            if cached is not None:
                return cached
            result = simulate(
                self.config, make_prefetcher(prefetcher_name),
                self.trace(workload),
            )
            result.prefetcher = prefetcher_name
            self._results[key] = result
            return result

        result = simulate(self.config, prefetcher, self.trace(workload))
        result.prefetcher = prefetcher_name
        return result

    def run_grid(
        self,
        workloads: Sequence[str],
        prefetchers: Sequence[str],
        progress: Callable[[str, str], None] | None = None,
        jobs: int | None = None,
    ) -> ResultGrid:
        """Simulate the full (workload x prefetcher) grid.

        Args:
            jobs: worker processes for this run, overriding the runner's
                default; ``1`` runs in-process, ``None`` defers to the
                runner (whose own ``None`` means ``os.cpu_count()``).

        Cells are deterministic, so any ``jobs`` value yields an
        identical grid; parallel runs and cache replays differ only in
        wall time.
        """
        from repro.exec import ExecOptions, GridPlan, ResultCache
        from repro.exec.scheduler import execute_grid, quarantine_report

        if jobs is None:
            jobs = self.jobs
        if jobs is None:
            jobs = os.cpu_count() or 1
        cells = [(w, p) for w in workloads for p in prefetchers]
        todo = [cell for cell in cells if cell not in self._results]
        if todo:
            base = self.exec_options or ExecOptions()
            options = ExecOptions(
                jobs=jobs,
                timeout=base.timeout,
                max_retries=base.max_retries,
                retry_backoff=base.retry_backoff,
                breaker_threshold=base.breaker_threshold,
                engine=self.engine,
            )
            plan = GridPlan(todo, self.scale, self.budget_fraction,
                            self.seed, self.config)
            cache = (ResultCache(self._result_cache_root)
                     if self._result_cache_root is not None else None)
            journal, carried, run_id = self._open_journal(cells, jobs)
            try:
                executed, telemetry = execute_grid(
                    plan,
                    options=options,
                    cache=cache,
                    trace_dir=self.cache_dir,
                    progress=progress,
                    stats_path=self._stats_path(),
                    journal=journal,
                    carried=carried,
                )
                self._results.update(executed)
                missing = [c for c in cells if c not in self._results]
                if self.strict and telemetry.quarantined:
                    if journal is not None:
                        journal.run_finished(
                            "failed",
                            cells_done=len(executed),
                            quarantined=len(telemetry.quarantined),
                        )
                    raise ExecError(
                        "grid execution quarantined "
                        f"{len(telemetry.quarantined)} task(s):\n"
                        + quarantine_report(telemetry)
                    )
                if journal is not None:
                    journal.run_finished(
                        "degraded" if missing else "complete",
                        cells_done=len(executed),
                        quarantined=len(telemetry.quarantined),
                    )
            finally:
                if journal is not None:
                    journal.close()
            self.last_run_id = run_id
        missing = [cell for cell in cells if cell not in self._results]
        return ResultGrid(
            (self._results[cell] for cell in cells
             if cell in self._results),
            degraded=missing,
        )

    def _open_journal(
        self, cells: list[tuple[str, str]], jobs: int
    ) -> tuple["object | None", "object | None", str | None]:
        """(journal, carried replay, run id) for one delegated grid run.

        Journals need a durable home: without a cache directory (or a
        result-cache root to sit next to) no journal is written and
        ``resume`` is an error.  The fingerprint check makes resuming a
        journal into a *different* grid request fail loudly instead of
        silently mixing results.
        """
        from repro.exec.journal import (
            RunJournal,
            load_run,
            new_run_id,
            run_fingerprint,
        )

        runs_root = self._runs_root()
        fingerprint = run_fingerprint(
            cells, self.scale, self.budget_fraction, self.seed, self.config
        )
        self._grid_runs += 1
        if self.resume is not None and self._grid_runs == 1:
            if runs_root is None:
                raise ExecError(
                    "resuming a run requires a cache directory to hold "
                    "the run journal"
                )
            carried = load_run(runs_root, self.resume)
            if carried.fingerprint != fingerprint:
                from repro.common.errors import JournalError

                raise JournalError(
                    f"run {self.resume!r} was journaled for a different "
                    f"grid (fingerprint {carried.fingerprint} != "
                    f"{fingerprint}); refusing to mix results"
                )
            run_id = carried.run_id or self.resume
            journal = RunJournal.for_run(runs_root, run_id)
            journal.append("run-resumed", run_id=run_id)
            return journal, carried, run_id
        if runs_root is None:
            return None, None, None
        if self.run_id is not None:
            run_id = (self.run_id if self._grid_runs == 1
                      else f"{self.run_id}-{self._grid_runs}")
        else:
            run_id = new_run_id()
        journal = RunJournal.for_run(runs_root, run_id)
        journal.run_started(
            run_id, fingerprint, cells,
            scale=self.scale,
            budget_fraction=self.budget_fraction,
            seed=self.seed,
            jobs=jobs,
        )
        return journal, None, run_id

    def _runs_root(self) -> Path | None:
        from repro.exec.journal import RUNS_DIRNAME

        if self.cache_dir is not None:
            return self.cache_dir / RUNS_DIRNAME
        if self._result_cache_root is not None:
            return self._result_cache_root.parent / RUNS_DIRNAME
        return None

    def _stats_path(self) -> Path | None:
        if self.cache_dir is not None:
            return self.cache_dir / "exec-stats.json"
        if self._result_cache_root is not None:
            return self._result_cache_root / "exec-stats.json"
        return None


def run_grid(
    workloads: Sequence[str],
    prefetchers: Sequence[str],
    config: SimConfig = REDUCED_CONFIG,
    scale: float = 1.0,
    budget_fraction: float = 1.0,
    seed: int = 0,
    jobs: int | None = 1,
    cache_dir: str | Path | None = None,
) -> ResultGrid:
    """One-shot convenience wrapper around :class:`GridRunner`."""
    runner = GridRunner(
        config=config,
        scale=scale,
        budget_fraction=budget_fraction,
        seed=seed,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    return runner.run_grid(workloads, prefetchers)


def clear_trace_cache() -> None:
    """Drop the in-memory trace cache (tests use this for isolation)."""
    _TRACE_CACHE.clear()
