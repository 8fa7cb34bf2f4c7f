"""Task execution and pool lifecycle.

Task payloads are small frozen dataclasses (cheap to pickle).  Every
task reaches its trace through :func:`repro.harness.runner.load_trace`,
whose per-process LRU (keyed by the trace's content key) means the sims
of one workload pay the build or deserialize cost once per process; pool
workers share traces through the content-addressed files a trace task
writes.

:class:`WorkerPool` wraps :class:`concurrent.futures.ProcessPoolExecutor`
with the two operations the scheduler's fault handling needs: detecting
a broken pool (a worker died mid-task) and force-restarting it (killing
any hung worker) so a poisoned task can never wedge the grid.  A pool of
one job runs each task in-process instead.

Failure injection (:class:`InjectSpec`) exists for the fault-tolerance
tests: a task can be made to raise, crash its worker, or hang for its
first N attempts, with the attempt count persisted in a side file so it
survives worker restarts.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from typing import Callable

from repro.common.errors import ExecError, PermanentError
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.sim.results import SimResult
from repro.trace.stream import Trace


@dataclass(frozen=True)
class InjectSpec:
    """Test hook: misbehave on the first ``times`` attempts of a task.

    Attributes:
        mode: ``"raise"`` (raise :class:`ExecError`),
            ``"raise-permanent"`` (raise :class:`PermanentError`, which
            skips the retry budget), ``"crash"`` (hard-exit the worker
            process), or ``"hang"`` (sleep past the task timeout).  Only
            the raise modes are honoured on the in-process (jobs=1) path.
        times: number of initial attempts that misbehave.
        hang_seconds: sleep length for ``"hang"`` mode.
    """

    mode: str = "raise"
    times: int = 1_000_000
    hang_seconds: float = 30.0


@dataclass(frozen=True)
class TraceTaskPayload:
    """Materialize one workload trace (persisted at ``path`` if given)."""

    workload: str
    scale: float
    budget_fraction: float
    seed: int
    key: str
    path: str | None


@dataclass(frozen=True)
class SimTaskPayload:
    """Simulate one grid cell against its workload's trace."""

    prefetcher: str
    config: SimConfig
    trace: TraceTaskPayload
    inject: InjectSpec | None = None
    inject_counter_path: str | None = None


@dataclass(frozen=True)
class BatchTaskPayload:
    """Simulate one workload's cells as one batch over a shared trace.

    Fault injection is a per-cell facility; cells with an
    :class:`InjectSpec` never batch (the scheduler dispatches them as
    plain sim tasks instead), so the payload carries none.
    """

    prefetchers: tuple[str, ...]
    config: SimConfig
    trace: TraceTaskPayload


@dataclass
class TraceTaskOutcome:
    source: str  # see repro.harness.runner.load_trace
    seconds: float


@dataclass
class SimTaskOutcome:
    result: SimResult
    seconds: float


@dataclass
class BatchTaskOutcome:
    results: list[SimResult]  # positions match the payload's prefetchers
    seconds: float


def apply_injection(inject: InjectSpec | None,
                    counter_path: str | None) -> None:
    """Honour a test-injected fault for the current attempt, if any."""
    if inject is None:
        return
    attempts = 0
    counter = Path(counter_path) if counter_path else None
    if counter is not None and counter.exists():
        attempts = int(counter.read_text() or "0")
    if attempts >= inject.times:
        return
    if counter is not None:
        counter.write_text(str(attempts + 1))
    if inject.mode == "crash":
        os._exit(13)
    if inject.mode == "hang":
        time.sleep(inject.hang_seconds)
        return
    if inject.mode == "raise-permanent":
        raise PermanentError(
            f"injected permanent failure (attempt {attempts + 1} of "
            f"{inject.times})"
        )
    raise ExecError(
        f"injected failure (attempt {attempts + 1} of {inject.times})"
    )


def _load(payload: TraceTaskPayload) -> tuple[Trace, str]:
    from repro.harness.runner import load_trace

    return load_trace(payload.workload, payload.scale,
                      payload.budget_fraction, payload.seed, payload.path,
                      payload.key)


def execute_trace_task(payload: TraceTaskPayload) -> TraceTaskOutcome:
    """Task entry point: materialize one trace."""
    started = time.perf_counter()
    _, source = _load(payload)
    return TraceTaskOutcome(source=source,
                            seconds=time.perf_counter() - started)


def execute_sim_task(payload: SimTaskPayload) -> SimTaskOutcome:
    """Task entry point: simulate one grid cell."""
    from repro.harness.registry import make_prefetcher

    apply_injection(payload.inject, payload.inject_counter_path)
    started = time.perf_counter()
    trace, _ = _load(payload.trace)
    result = simulate(payload.config, make_prefetcher(payload.prefetcher),
                      trace)
    result.prefetcher = payload.prefetcher
    return SimTaskOutcome(result=result,
                          seconds=time.perf_counter() - started)


def execute_batch_task(payload: BatchTaskPayload) -> BatchTaskOutcome:
    """Task entry point: simulate one workload's cells as a batch."""
    from repro.sim.batch import BatchLane, BatchSimulationEngine

    started = time.perf_counter()
    trace, _ = _load(payload.trace)
    lanes = [BatchLane(prefetcher=name, config=payload.config)
             for name in payload.prefetchers]
    results = BatchSimulationEngine(lanes).run(trace)
    # The cell is keyed by the grid's (possibly parametrized) prefetcher
    # name, which the canonical engine-reported name must not replace —
    # exactly as execute_sim_task overrides it.
    for result, name in zip(results, payload.prefetchers):
        result.prefetcher = name
    return BatchTaskOutcome(results=results,
                            seconds=time.perf_counter() - started)


class WorkerPool:
    """A restartable process pool, or in-process execution for one job.

    The executor is created lazily and can be torn down and rebuilt at
    any point: :meth:`restart` terminates the worker processes (so a
    hung task dies with its worker) and drops every outstanding future —
    the scheduler owns resubmission.  With ``jobs=1`` there is no
    executor: :meth:`submit` runs the task at once and returns a
    completed future.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ExecError("worker pool needs at least one job slot")
        self.jobs = jobs
        self._executor: ProcessPoolExecutor | None = None

    @property
    def in_process(self) -> bool:
        return self.jobs == 1

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # fork is markedly cheaper than spawn and the parent is
            # single-threaded at submission time; fall back to the
            # platform default where fork does not exist.
            context = (get_context("fork")
                       if "fork" in get_all_start_methods() else None)
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context
            )
        return self._executor

    def submit(self, fn: Callable, payload: object) -> Future:
        if not self.in_process:
            return self._ensure().submit(fn, payload)
        future: Future = Future()
        try:
            future.set_result(fn(payload))
        except Exception as error:
            future.set_exception(error)
        return future

    def restart(self) -> None:
        """Kill the workers and start fresh (outstanding futures die)."""
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError):  # already dead / closed
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    @staticmethod
    def is_pool_failure(error: BaseException) -> bool:
        """True when a future failed because its worker died."""
        return isinstance(error, BrokenProcessPool)
