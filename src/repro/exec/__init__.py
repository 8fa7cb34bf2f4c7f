"""Parallel grid execution engine.

``repro.exec`` turns a (workload x prefetcher) evaluation grid into an
explicit task DAG — one trace-build task per workload fanning out into
per-prefetcher simulation tasks — and executes it with a
content-addressed on-disk result cache, per-task timeout/retry, and
worker-crash recovery: in-process for ``jobs=1``, on a multiprocessing
worker pool otherwise.

Layering: the engine sits *below* :class:`repro.harness.runner.GridRunner`
(which runs every grid through it) and *above* ``repro.sim`` /
``repro.trace`` / ``repro.workloads`` (whose artifacts it schedules).  It
never imports the harness at module scope, so the harness can import it
freely; tasks reach traces through ``repro.harness.runner.load_trace``
at call time.

============== ==========================================================
``keys``       stable content-addressed hashing of task inputs
``plan``       the task DAG (trace nodes fanning into sim nodes)
``cache``      on-disk result cache keyed by ``keys.sim_key``
``pool``       task execution + pool lifecycle
``scheduler``  DAG orchestration, retries, quarantine, degradation
``telemetry``  counters, per-task wall times, ETA, persistence
``journal``    write-ahead run journal + resume replay
``faults``     deterministic fault injection for the test suite
``singleflight`` key -> in-flight-work dedup registry (serve broker)
============== ==========================================================
"""

from repro.exec.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.exec.faults import FaultInjector, FaultSpec, parse_fault_plan
from repro.exec.journal import (
    JOURNAL_SCHEMA_VERSION,
    RunJournal,
    RunReplay,
    RunSummary,
    list_runs,
    load_run,
    new_run_id,
    replay,
    run_fingerprint,
)
from repro.exec.keys import (
    CODE_VERSION,
    sim_key,
    stable_hash,
    trace_filename,
    trace_key,
)
from repro.exec.plan import GridPlan, SimNode, TraceNode
from repro.exec.pool import InjectSpec, WorkerPool
from repro.exec.scheduler import ExecOptions, execute_grid
from repro.exec.singleflight import SingleFlight
from repro.exec.telemetry import ExecTelemetry

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CODE_VERSION",
    "ExecOptions",
    "ExecTelemetry",
    "FaultInjector",
    "FaultSpec",
    "GridPlan",
    "InjectSpec",
    "JOURNAL_SCHEMA_VERSION",
    "ResultCache",
    "RunJournal",
    "RunReplay",
    "RunSummary",
    "SimNode",
    "SingleFlight",
    "TraceNode",
    "WorkerPool",
    "execute_grid",
    "list_runs",
    "load_run",
    "new_run_id",
    "parse_fault_plan",
    "replay",
    "run_fingerprint",
    "sim_key",
    "stable_hash",
    "trace_filename",
    "trace_key",
]
