"""Simulation-as-a-service: the grid behind an asyncio HTTP API.

Layout::

    protocol    versioned wire types (SimulateRequest, JobView, errors)
    broker      admission control, single-flight dedup, micro-batching
    recovery    CRC-framed write-ahead job journal + restart replay
    http        the one HTTP layer: listener, routes, SSE, upstream client
    client      blocking stdlib client with failover retry policy
    loadgen     closed-loop load generator (BENCH_serve/BENCH_cluster)

The broker is the core: it turns individual ``POST /v1/simulate``
requests into batched :class:`~repro.exec.scheduler.GridPlan`
executions on one persistent worker pool, deduplicating identical
in-flight requests by content-addressed key and serving result-cache
hits without touching the pool at all.  Accepted jobs are journaled
so a crashed broker re-admits unfinished work on restart; see
:mod:`repro.cluster` for the multi-shard supervisor built on top.
"""

from repro.serve.broker import AdmissionFull, Broker, Draining, UnknownJob
from repro.serve.client import (
    ConnectionFailed,
    DeadlineExceeded,
    JobNotFound,
    RetryPolicy,
    ServeClient,
    ServeClientError,
    ServerBusy,
    ServerDraining,
)
from repro.serve.http import HttpServer, ThreadedServer, run_server
from repro.serve.loadgen import (
    CLUSTER_BENCH_SCHEMA,
    CLUSTER_BENCH_SCHEMA_VERSION,
    SERVE_BENCH_SCHEMA,
    SERVE_BENCH_SCHEMA_VERSION,
    LoadgenConfig,
    run_cluster_loadgen,
    run_loadgen,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    JobStatus,
    JobView,
    ProtocolError,
    SimulateRequest,
)
from repro.serve.recovery import ServeJournal, journal_path, replay_unfinished

__all__ = [
    "CLUSTER_BENCH_SCHEMA",
    "CLUSTER_BENCH_SCHEMA_VERSION",
    "PROTOCOL_VERSION",
    "SERVE_BENCH_SCHEMA",
    "SERVE_BENCH_SCHEMA_VERSION",
    "AdmissionFull",
    "Broker",
    "ConnectionFailed",
    "DeadlineExceeded",
    "Draining",
    "HttpServer",
    "JobNotFound",
    "JobStatus",
    "JobView",
    "LoadgenConfig",
    "ProtocolError",
    "RetryPolicy",
    "ServeClient",
    "ServeClientError",
    "ServeJournal",
    "ServerBusy",
    "ServerDraining",
    "SimulateRequest",
    "ThreadedServer",
    "UnknownJob",
    "journal_path",
    "replay_unfinished",
    "run_cluster_loadgen",
    "run_loadgen",
    "run_server",
]
