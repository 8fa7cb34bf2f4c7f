"""DAG orchestration: cache probe, fan-out, retries, quarantine, degradation.

:func:`execute_grid` drives a :class:`~repro.exec.plan.GridPlan` to
completion:

1. every simulation node is probed against the result cache — hits are
   returned without scheduling any work;
2. the remaining cells group by workload; each workload's trace-build
   task runs first, and its simulation tasks are released the moment the
   trace lands (no barrier between workloads);
3. every task attempt is wrapped with an optional timeout, bounded retry
   with exponential backoff, and worker-crash recovery.  Failures are
   classified (:func:`repro.common.errors.classify_error`): permanent
   failures skip the retry budget and quarantine immediately; transient
   ones retry with backoff.  A task that exhausts its retries is
   *quarantined* — recorded in telemetry and skipped — so one poisoned
   cell can never hang or abort the rest of the grid.  Quarantining a
   trace task quarantines its dependent sims.
4. a per-workload **circuit breaker** counts quarantined simulations;
   at ``options.breaker_threshold`` the workload is marked DEGRADED and
   its remaining cells are skipped, letting the grid complete with
   explicit holes instead of burning the retry budget cell by cell.

One loop executes every grid, whatever ``jobs`` is: it keeps at most
``jobs`` tasks in flight on a :class:`~repro.exec.pool.WorkerPool`, and
released simulations go ahead of trace builds that have not started.
With ``jobs=1`` the pool runs each task in-process the moment it is
submitted, so a serial grid runs trace *w*, then its cells, then the
next workload.

Durability: when a :class:`~repro.exec.journal.RunJournal` is supplied,
every outcome (cache hit, completed task, quarantine, degradation) is
appended to it with an fsync, and a prior run's
:class:`~repro.exec.journal.RunReplay` can be *carried* in: completed
cells replay through the cache, and quarantine/degradation decisions are
preserved instead of re-attempted.
"""

from __future__ import annotations

import os
import tempfile
import time
from collections import deque
from concurrent.futures import CancelledError, FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from repro import obs
from repro.common.errors import ErrorKind, classify_error
from repro.exec import faults
from repro.exec import telemetry as telemetry_module
from repro.exec.cache import ResultCache
from repro.exec.journal import RunJournal, RunReplay
from repro.exec.keys import short_digest
from repro.exec.plan import GridPlan, SimNode
from repro.exec.pool import (
    BatchTaskPayload,
    InjectSpec,
    SimTaskPayload,
    TraceTaskPayload,
    WorkerPool,
    execute_batch_task,
    execute_sim_task,
    execute_trace_task,
)
from repro.exec.telemetry import ExecTelemetry
from repro.sim.results import SimResult

#: Progress callback signature: (workload, prefetcher) per finished cell.
Progress = Callable[[str, str], None]


@dataclass
class ExecOptions:
    """Execution policy knobs.

    Attributes:
        jobs: worker processes; None means ``os.cpu_count()``; 1 runs
            in-process.
        timeout: per-task wall-clock limit in seconds (pool mode only —
            an in-process task cannot be interrupted).  None disables.
        max_retries: failed attempts beyond the first before a task is
            quarantined (so a task runs at most ``1 + max_retries`` times).
            Permanent failures ignore this and quarantine immediately.
        retry_backoff: base sleep before a retry; doubles per attempt.
        breaker_threshold: quarantined simulations after which a
            workload trips its circuit breaker and is marked DEGRADED
            (its remaining cells are skipped).  ``0`` disables the
            breaker.
        engine: simulation engine tier.  ``"auto"`` (default) picks the
            fast per-cell engine, upgrading a workload's cells to the
            batch backend when at least :data:`BATCH_THRESHOLD` of them
            share its trace; ``"fast"`` / ``"batch"`` force one tier.
            Cells with fault injection never batch (injection is a
            per-cell facility), and a failed batch is demoted once to
            per-cell execution rather than retried, so every failure
            policy stays per-cell.
    """

    jobs: int | None = None
    timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    breaker_threshold: int = 3
    engine: str = "auto"

    def effective_jobs(self) -> int:
        if self.jobs is None:
            return os.cpu_count() or 1
        return max(1, self.jobs)


#: Engine tiers accepted by :attr:`ExecOptions.engine`.
ENGINE_TIERS = ("auto", "fast", "batch")

#: Minimum inject-free cells sharing one trace before ``"auto"`` runs
#: them as one batch.
BATCH_THRESHOLD = 8


def _should_batch(options: ExecOptions, eligible: int) -> bool:
    """Decide whether a workload group's cells run as one batch."""
    if options.engine == "batch":
        return eligible >= 1
    if options.engine == "auto":
        return eligible >= BATCH_THRESHOLD
    return False


class _GridState:
    """Failure-policy bookkeeping for one grid run."""

    def __init__(
        self,
        plan: GridPlan,
        options: ExecOptions,
        telemetry: ExecTelemetry,
        journal: RunJournal | None,
        carried: RunReplay | None,
    ) -> None:
        self.plan = plan
        self.options = options
        self.telemetry = telemetry
        self.journal = journal
        self.breaker: dict[str, int] = {}
        self.degraded: dict[str, str] = {}
        self._keys: dict[tuple[str, str], str] = {}
        if carried is not None:
            for workload, reason in carried.degraded.items():
                self.degraded[workload] = reason or "carried from prior run"

    def key(self, node: SimNode) -> str:
        """The cell's result-cache key (computed once per run)."""
        key = self._keys.get(node.cell)
        if key is None:
            key = self._keys[node.cell] = node.key(self.plan.config)
        return key

    def journal_done(self, node: SimNode, source: str) -> None:
        if self.journal is not None:
            self.journal.task_done(
                node.name, "sim", cell=node.cell, key=self.key(node),
                source=source,
            )

    def journal_trace_done(self, name: str) -> None:
        if self.journal is not None:
            self.journal.task_done(name, "trace")

    def quarantine(self, name: str, kind: str, reason: str, attempts: int,
                   classification: str,
                   cell: tuple[str, str] | None = None) -> None:
        self.telemetry.quarantine(name, kind, reason, attempts,
                                  classification)
        if self.journal is not None:
            self.journal.task_quarantined(name, kind, reason, attempts,
                                          classification, cell=cell)

    def record_sim_failure(self, workload: str) -> None:
        """Count one quarantined sim; trips the breaker at its threshold."""
        count = self.breaker.get(workload, 0) + 1
        self.breaker[workload] = count
        threshold = self.options.breaker_threshold
        if threshold > 0 and count >= threshold:
            self.degrade(workload,
                         f"{count} simulation(s) quarantined "
                         f"(breaker threshold {threshold})", count)

    def degrade(self, workload: str, reason: str, failures: int) -> None:
        if workload in self.degraded:
            return
        self.degraded[workload] = reason
        self.telemetry.degrade(workload, reason, failures)
        if self.journal is not None:
            self.journal.workload_degraded(workload, reason, failures)

    def skip_degraded(self, name: str, workload: str,
                      cell: tuple[str, str] | None,
                      attempts: int = 0) -> None:
        """Drop one pending sim of a degraded workload."""
        self.telemetry.tasks_queued = max(0, self.telemetry.tasks_queued - 1)
        self.quarantine(
            name, "sim",
            f"workload {workload} is DEGRADED: {self.degraded[workload]}",
            attempts, "degraded", cell=cell,
        )


def execute_grid(
    plan: GridPlan,
    *,
    options: ExecOptions | None = None,
    cache: ResultCache | None = None,
    trace_dir: str | Path | None = None,
    inject: Mapping[tuple[str, str], InjectSpec] | None = None,
    progress: Progress | None = None,
    stats_path: str | Path | None = None,
    telemetry: ExecTelemetry | None = None,
    journal: RunJournal | None = None,
    carried: RunReplay | None = None,
    pool: WorkerPool | None = None,
) -> tuple[dict[tuple[str, str], SimResult], ExecTelemetry]:
    """Execute a grid plan; returns (results by cell, telemetry).

    Quarantined and degraded cells are *absent* from the result mapping
    and listed in ``telemetry.quarantined`` / ``telemetry.degraded`` —
    the caller decides whether that is fatal.

    Args:
        cache: result cache; probed before scheduling, filled after.
        trace_dir: where built traces are persisted.  When omitted,
            in-process runs keep traces in memory only and pool runs
            share them through a private temporary directory.
        inject: test-only fault injection per (workload, prefetcher).
        stats_path: where to persist the telemetry JSON snapshot.
        journal: write-ahead run journal; every outcome is appended.
        carried: a prior run's replayed state (``--resume``): completed
            cells count as resumed when the cache still holds them, and
            quarantine/degradation decisions carry forward.
        pool: an externally owned :class:`WorkerPool` to submit into
            instead of creating (and tearing down) a private one — the
            serve broker batches many small grids through one long-lived
            pool this way.  The caller keeps ownership: the pool is left
            running on return, and its worker count overrides
            ``options.jobs``.
    """
    options = options or ExecOptions()
    jobs = pool.jobs if pool is not None else options.effective_jobs()
    if telemetry is None:
        telemetry = ExecTelemetry()
    telemetry.jobs = jobs
    grid_started = time.perf_counter()

    state = _GridState(plan, options, telemetry, journal, carried)
    carried_completed = carried.completed if carried is not None else {}
    carried_quarantined = (carried.quarantined_cells if carried is not None
                           else set())

    results: dict[tuple[str, str], SimResult] = {}
    misses: list[SimNode] = []
    for node in plan.sim_nodes:
        if node.workload in state.degraded:
            state.quarantine(
                node.name, "sim",
                f"workload {node.workload} was DEGRADED in the resumed run: "
                f"{state.degraded[node.workload]}",
                0, "degraded", cell=node.cell,
            )
            continue
        if node.cell in carried_quarantined:
            state.breaker[node.workload] = (
                state.breaker.get(node.workload, 0) + 1
            )
            state.quarantine(
                node.name, "sim",
                "quarantined in the resumed run; not re-attempted",
                0, "carried", cell=node.cell,
            )
            continue
        if cache is not None:
            hit = cache.get(state.key(node))
            if hit is not None:
                telemetry.cache_hits += 1
                if node.cell in carried_completed:
                    telemetry.resumed_cells += 1
                results[node.cell] = hit
                state.journal_done(node, source="cache")
                if progress is not None:
                    progress(*node.cell)
                continue
            telemetry.cache_misses += 1
            if node.cell in carried_completed:
                # The journal says this cell finished, but its cached
                # artifact is gone or failed verification — demote to a
                # rebuild instead of trusting a phantom result.
                telemetry_module.logger.warning(
                    "journal records %s complete but the cache cannot "
                    "replay it; re-executing", node.name,
                )
        misses.append(node)

    try:
        if misses:
            _run_tasks(plan, misses, results, cache, state, trace_dir,
                       dict(inject or {}), options, progress,
                       pool if pool is not None else WorkerPool(jobs),
                       owned=pool is None)
    finally:
        telemetry.finish()
        telemetry_module.LAST_RUN = telemetry
        if stats_path is not None:
            telemetry.persist(stats_path)
        if obs.enabled():
            obs.record_seconds("exec.grid",
                               time.perf_counter() - grid_started)
            obs.add("exec.cells", len(plan.sim_nodes))
            obs.add("exec.cache_hits", telemetry.cache_hits)
            obs.add("exec.cache_misses", telemetry.cache_misses)
            obs.add("exec.sims_run", telemetry.sims_run)
            obs.add("exec.traces_built", telemetry.traces_built)
    return results, telemetry


@dataclass(eq=False)
class _TaskState:
    """Scheduler-side bookkeeping for one DAG task (identity-hashed)."""

    kind: str  # "trace" | "sim" | "batch"
    name: str
    workload: str
    cell: tuple[str, str] | None
    payload: object
    fn: Callable
    #: The grid cells a "sim" (one) or "batch" (several) task produces.
    nodes: list[SimNode]
    attempts: int = 0
    future: Future | None = None
    submitted_at: float = 0.0


#: Injection modes an in-process task can honour: ``crash`` and ``hang``
#: would take the scheduler down with them (see :class:`InjectSpec`).
_IN_PROCESS_INJECT_MODES = ("raise", "raise-permanent")


def _run_tasks(
    plan: GridPlan,
    misses: list[SimNode],
    results: dict[tuple[str, str], SimResult],
    cache: ResultCache | None,
    state: _GridState,
    trace_dir: str | Path | None,
    inject: dict[tuple[str, str], InjectSpec],
    options: ExecOptions,
    progress: Progress | None,
    pool: WorkerPool,
    owned: bool,
) -> None:
    """The grid executor: every task of every grid runs through here."""
    telemetry = state.telemetry
    temporary = (tempfile.TemporaryDirectory(prefix="repro-exec-")
                 if trace_dir is None else None)
    root = Path(temporary.name if temporary else trace_dir)
    root.mkdir(parents=True, exist_ok=True)
    # Pool workers share traces through files; in-process tasks share
    # the trace LRU, so without a trace_dir they touch no disk.
    traces_on_disk = trace_dir is not None or not pool.in_process

    waiting: dict[str, list[SimNode]] = {}  # sims not released yet
    for node in misses:
        waiting.setdefault(node.workload, []).append(node)
    traces: deque[_TaskState] = deque()  # trace builds not started
    sims: deque[_TaskState] = deque()  # released sims and batches
    # After a pool break the culprit is ambiguous (every in-flight future
    # dies), so suspects are re-run one at a time: a repeat crash then
    # charges exactly the task in flight, and healthy tasks are never
    # quarantined for a neighbour's crash.
    suspects: deque[_TaskState] = deque()
    active: list[_TaskState] = []
    probe: _TaskState | None = None  # a suspect in flight runs alone

    def queue_of(task: _TaskState) -> deque[_TaskState]:
        return traces if task.kind == "trace" else sims

    def make_sim(node: SimNode, trace: TraceTaskPayload) -> _TaskState:
        spec = inject.get(node.cell)
        if (spec is not None and pool.in_process
                and spec.mode not in _IN_PROCESS_INJECT_MODES):
            spec = None
        counter = (str(root / f"inject-{short_digest(*node.cell)}.count")
                   if spec is not None else None)
        payload = SimTaskPayload(node.prefetcher, plan.config, trace, spec,
                                 counter)
        return _TaskState("sim", node.name, node.workload, node.cell,
                          payload, execute_sim_task, [node])

    def release(task: _TaskState) -> None:
        """Queue the sims of a workload whose trace just landed."""
        nodes = waiting.pop(task.workload, [])
        batchable = [node for node in nodes if node.cell not in inject]
        if _should_batch(options, len(batchable)):
            payload = BatchTaskPayload(
                tuple(node.prefetcher for node in batchable), plan.config,
                task.payload,
            )
            sims.append(_TaskState("batch", f"batch:{task.workload}",
                                   task.workload, None, payload,
                                   execute_batch_task, batchable))
            nodes = [node for node in nodes if node.cell in inject]
        sims.extend(make_sim(node, task.payload) for node in nodes)

    def demote(task: _TaskState) -> None:
        """Fan a failed batch back out as individual sim tasks.

        One-way: the demoted cells are fresh sim tasks with their own
        retry budgets, so a misbehaving batch can never loop — and a
        cell-level fault (e.g. one poisoned prefetcher) is then charged
        to exactly that cell by the ordinary per-cell policy.
        """
        telemetry_module.logger.warning(
            "batch task %s failed; demoting %d cell(s) to per-cell "
            "execution", task.name, len(task.nodes),
        )
        # The batch consumed one queued slot for its N cells; restore it
        # so the N per-cell tasks balance the ledger.
        telemetry.tasks_queued += 1
        sims.extendleft(reversed([make_sim(node, task.payload.trace)
                                  for node in task.nodes]))

    def quarantine(task: _TaskState, reason: str,
                   classification: str) -> None:
        state.quarantine(task.name, task.kind, reason, task.attempts,
                         classification, cell=task.cell)
        if task.kind == "sim":
            state.record_sim_failure(task.workload)
            return
        state.degrade(task.workload, f"trace build failed: {reason}",
                      task.attempts)
        for node in waiting.pop(task.workload, []):
            telemetry.tasks_queued = max(0, telemetry.tasks_queued - 1)
            state.quarantine(
                node.name, "sim",
                f"trace build for {task.workload} was quarantined", 0,
                "degraded", cell=node.cell,
            )

    def charge(task: _TaskState, reason: str, classification: str,
               suspect: bool = False) -> None:
        """One failed attempt: demote a batch, else quarantine or retry."""
        telemetry.task_failed_attempt()
        task.attempts += 1
        if task.kind == "batch":
            demote(task)
        elif (classification == ErrorKind.PERMANENT.value
              or task.attempts > options.max_retries):
            quarantine(task, reason, classification)
        elif task.kind == "sim" and task.workload in state.degraded:
            state.skip_degraded(task.name, task.workload, task.cell,
                                task.attempts)
        else:
            telemetry.retries += 1
            time.sleep(options.retry_backoff * (2 ** (task.attempts - 1)))
            telemetry.tasks_queued += 1
            (suspects if suspect else queue_of(task)).appendleft(task)

    def complete(task: _TaskState, outcome) -> None:
        if task.kind == "trace":
            if outcome.source in ("memory", "disk"):
                telemetry.trace_disk_hits += 1
            else:
                telemetry.traces_built += 1
            if outcome.source == "rebuilt":
                telemetry.corrupt_traces += 1
            telemetry.task_finished(task.name, "trace", outcome.seconds,
                                    task.attempts + 1)
            state.journal_trace_done(task.name)
            release(task)
            return
        produced = (outcome.results if task.kind == "batch"
                    else [outcome.result])
        share = outcome.seconds / len(task.nodes)
        for index, (node, result) in enumerate(zip(task.nodes, produced)):
            if index > 0:
                # A batch consumed one queued slot; its remaining cells
                # move queued -> done here.
                telemetry.task_started()
            telemetry.sims_run += 1
            if task.kind == "batch":
                telemetry.batched_cells += 1
            telemetry.task_finished(node.name, "sim", share,
                                    task.attempts + 1)
            results[node.cell] = result
            if cache is not None:
                cache.put(state.key(node), result)
            state.journal_done(node, source="run")
            if progress is not None:
                progress(*node.cell)
            faults.check("task-done")

    def settle(task: _TaskState) -> None:
        nonlocal probe
        active.remove(task)
        if task is probe:
            probe = None

    def pump() -> None:
        """Fill free slots: suspects alone, then sims, then trace builds.

        The only place tasks are submitted, so an in-process pool (which
        runs a task inside ``submit``) never recurses.
        """
        nonlocal probe
        while probe is None:
            suspect = bool(suspects)
            if suspect and active:
                return
            if suspect:
                task = suspects.popleft()
            elif len(active) >= pool.jobs:
                return
            elif sims:
                task = sims.popleft()
            elif traces:
                task = traces.popleft()
            else:
                return
            if task.kind != "trace" and task.workload in state.degraded:
                for node in task.nodes:
                    state.skip_degraded(node.name, node.workload, node.cell,
                                        task.attempts)
                continue
            if suspect:
                probe = task
            telemetry.task_started()
            try:
                task.future = pool.submit(task.fn, task.payload)
            except Exception:
                # The executor broke between our crash detection and
                # this submission; rebuild it once and retry.
                pool.restart()
                task.future = pool.submit(task.fn, task.payload)
            task.submitted_at = time.monotonic()
            active.append(task)

    for workload in waiting:
        node = plan.trace_nodes[workload]
        payload = TraceTaskPayload(
            workload, node.scale, node.budget_fraction, node.seed, node.key,
            str(root / node.filename) if traces_on_disk else None,
        )
        traces.append(_TaskState("trace", node.name, workload, None,
                                 payload, execute_trace_task, []))
    telemetry.task_queued(len(traces) + len(misses))

    try:
        pump()
        while active:
            futures = {task.future: task for task in active}
            done, _ = wait(list(futures), timeout=0.25,
                           return_when=FIRST_COMPLETED)
            pool_broke = False
            for future in done:
                task = futures[future]
                try:
                    error = future.exception()
                except CancelledError:
                    pool_broke = True
                    continue
                if error is not None and WorkerPool.is_pool_failure(error):
                    pool_broke = True
                    continue
                settle(task)
                if error is None:
                    complete(task, future.result())
                else:
                    charge(task, str(error), classify_error(error).value)

            if pool_broke:
                # A worker died and every outstanding future died with
                # the executor.
                telemetry.worker_crashes += 1
                pool.restart()
                if len(active) == 1:
                    # Exactly one task was in flight (e.g. a suspect):
                    # attribution is exact, so charge it.
                    task = active[0]
                    settle(task)
                    charge(task, "worker process died", "poisoned",
                           suspect=True)
                else:
                    # Several tasks were in flight, so the culprit is
                    # unknown; move them all — uncharged — to the
                    # suspects, to be re-run one at a time.
                    for task in active:
                        telemetry.task_failed_attempt()
                        telemetry.tasks_queued += 1
                    suspects.extendleft(reversed(active))
                    active.clear()
            elif options.timeout is not None and active:
                now = time.monotonic()
                expired = [task for task in active
                           if now - task.submitted_at > options.timeout]
                if expired:
                    # A hung task only dies with its worker, and the
                    # executor cannot survive that — kill the pool and
                    # requeue everything, charging only the laggards.
                    telemetry.timeouts += len(expired)
                    pool.restart()
                    pending = list(active)
                    active.clear()
                    probe = None
                    for task in reversed(pending):
                        if task in expired:
                            charge(task,
                                   f"timed out after {options.timeout:.1f}s",
                                   "poisoned")
                        else:
                            telemetry.task_failed_attempt()
                            telemetry.tasks_queued += 1
                            queue_of(task).appendleft(task)
            pump()
    finally:
        if owned:
            pool.shutdown()
        if temporary is not None:
            temporary.cleanup()


def quarantine_report(telemetry: ExecTelemetry) -> str:
    """One-line-per-task description of everything quarantined."""
    lines = [
        f"  {entry['task']} ({entry['kind']}, {entry['attempts']} "
        f"attempt(s)): {entry['reason']}"
        for entry in telemetry.quarantined
    ]
    for entry in telemetry.degraded:
        lines.append(
            f"  workload {entry['workload']} DEGRADED: {entry['reason']}"
        )
    return "\n".join(lines)
