"""Closed-loop load generator for ``repro serve``.

``repro loadgen`` drives a running server with a seeded workload mix
from ``concurrency`` closed-loop worker threads (each waits for its
job to finish before issuing the next), and emits a schema-versioned
``BENCH_serve.json`` with throughput, latency percentiles, and the
dedup / cache hit rates observed both client-side (response flags) and
server-side (a ``/metrics`` delta).

Single-flight is exercised deterministically, not probabilistically: a
fraction ``duplicate_ratio`` of plan items are *paired duplicates* —
the worker submits the identical request twice back-to-back before
waiting, so the second submission reliably lands while the first is in
flight and must attach to it.  Repeated non-paired duplicates across
the run exercise the result cache instead (same key, no longer in
flight, replayed without simulating).
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.exec.keys import stable_hash
from repro.obs.prometheus import parse_prometheus
from repro.serve.client import (
    RetryPolicy,
    ServeClient,
    ServeClientError,
    ServerBusy,
)
from repro.serve.protocol import JobStatus, JobView, SimulateRequest

#: Schema identity of the emitted JSON document.
SERVE_BENCH_SCHEMA = "repro.bench.serve"
SERVE_BENCH_SCHEMA_VERSION = 1
#: Schema identity of the cluster-mode document (availability-focused).
CLUSTER_BENCH_SCHEMA = "repro.bench.cluster"
CLUSTER_BENCH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation run (all knobs pinned for reproducibility)."""

    host: str = "127.0.0.1"
    port: int = 8321
    requests: int = 40
    concurrency: int = 4
    duplicate_ratio: float = 0.25
    seed: int = 0
    workloads: tuple[str, ...] = ("nw", "stencil-default")
    prefetchers: tuple[str, ...] = ("no-prefetch", "stride", "cbws")
    budget_fraction: float = 0.05
    scale: float = 1.0
    timeout: float = 600.0
    #: Attempts per item when the server answers 429.
    max_busy_retries: int = 5
    #: Guarantee every (workload, prefetcher) cell appears in the plan
    #: before random draws fill the rest.  Cluster chaos drills rely on
    #: this: with the full grid present, the pigeonhole principle puts
    #: at least two jobs on some shard of a 3-shard ring, so a
    #: second-job fault (``serve.job-finished:exit@2``) *must* fire.
    cover_grid: bool = False

    @classmethod
    def quick(cls, host: str = "127.0.0.1", port: int = 8321,
              seed: int = 0) -> "LoadgenConfig":
        """The CI smoke shape: small, duplicate-heavy, two prefetchers."""
        return cls(
            host=host,
            port=port,
            requests=12,
            concurrency=3,
            duplicate_ratio=0.5,
            seed=seed,
            workloads=("nw",),
            prefetchers=("no-prefetch", "stride"),
            budget_fraction=0.02,
        )

    @classmethod
    def quick_cluster(cls, host: str = "127.0.0.1", port: int = 8400,
                      seed: int = 0) -> "LoadgenConfig":
        """The CI cluster smoke shape: 6 unique cells over one workload.

        Six distinct sim keys spread over a 3-shard ring guarantee some
        shard owns at least two jobs (pigeonhole), which is what arms
        the kill-shard chaos drill deterministically.
        """
        return cls(
            host=host,
            port=port,
            requests=12,
            concurrency=3,
            duplicate_ratio=0.25,
            seed=seed,
            workloads=("nw",),
            prefetchers=("no-prefetch", "stride", "ghb-pc/dc",
                         "ghb-g/dc", "sms", "cbws"),
            budget_fraction=0.02,
            cover_grid=True,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view, embedded in the bench document."""
        return {
            "requests": self.requests,
            "concurrency": self.concurrency,
            "duplicate_ratio": self.duplicate_ratio,
            "seed": self.seed,
            "workloads": list(self.workloads),
            "prefetchers": list(self.prefetchers),
            "budget_fraction": self.budget_fraction,
            "scale": self.scale,
            "cover_grid": self.cover_grid,
        }


@dataclass
class _Tally:
    """Thread-shared accounting (guarded by ``lock``)."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    submissions: int = 0
    ok: int = 0
    failed: int = 0
    rejected: int = 0
    dedup_hits: int = 0
    cache_hits: int = 0
    latencies: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: Result digest per sim key (cluster mode's bit-identity check).
    digests: dict[str, str] = field(default_factory=dict)


def build_plan(config: LoadgenConfig) -> list[tuple[SimulateRequest, bool]]:
    """The seeded request mix: ``(request, paired_duplicate)`` items.

    With ``cover_grid`` the plan opens with every cell exactly once;
    seeded random draws fill the rest.
    """
    rng = random.Random(config.seed)
    grid = ([(workload, prefetcher) for workload in config.workloads
             for prefetcher in config.prefetchers]
            if config.cover_grid else [])
    plan: list[tuple[SimulateRequest, bool]] = []
    while len(plan) < config.requests:
        if len(plan) < len(grid):
            workload, prefetcher = grid[len(plan)]
        else:
            workload = rng.choice(config.workloads)
            prefetcher = rng.choice(config.prefetchers)
        request = SimulateRequest(
            workload=workload,
            prefetcher=prefetcher,
            scale=config.scale,
            budget_fraction=config.budget_fraction,
            seed=0,
        )
        plan.append((request, rng.random() < config.duplicate_ratio))
    return plan


def _submit_with_retry(client: ServeClient, config: LoadgenConfig,
                       request: SimulateRequest, tally: _Tally):
    """One admission attempt, honouring Retry-After on 429."""
    for _ in range(config.max_busy_retries):
        try:
            with tally.lock:
                tally.submissions += 1
            return client.submit(request)
        except ServerBusy as busy:
            with tally.lock:
                tally.rejected += 1
            time.sleep(min(busy.retry_after, 2.0))
    return None


def _account(tally: _Tally, started: float, view: JobView | None = None,
             error: str | None = None) -> None:
    """Record one finished submission: its terminal view, or an error."""
    latency = time.perf_counter() - started
    with tally.lock:
        tally.latencies.append(latency)
        if view is not None and view.status is JobStatus.DONE:
            tally.ok += 1
            if view.cache_hit:
                tally.cache_hits += 1
        else:
            tally.failed += 1
            error = error or view.error
            if error:
                tally.errors.append(error)


def _serve_item(client: ServeClient, config: LoadgenConfig,
                request: SimulateRequest, paired: bool,
                tally: _Tally) -> None:
    """Submit (twice back-to-back if ``paired``), then wait for each.

    The second identical submission goes in *before* waiting: the first
    is still in flight, so it must single-flight.
    """
    submitted = []
    for _ in range(2 if paired else 1):
        started = time.perf_counter()
        view = _submit_with_retry(client, config, request, tally)
        if view is None:
            break
        if view.deduplicated:
            with tally.lock:
                tally.dedup_hits += 1
        submitted.append((view, started))
    for view, started in submitted:
        if not view.status.terminal:
            view = client.wait(view.job_id, timeout=config.timeout)
        _account(tally, started, view)


def _cluster_item(client: ServeClient, config: LoadgenConfig,
                  request: SimulateRequest, paired: bool,
                  tally: _Tally) -> None:
    """Failover-tolerant one-shots (twice in a row if ``paired``).

    :meth:`ServeClient.run` retries under the client's policy, so a
    shard death shows up as latency, or as a failed request once the
    retries run out.  Result digests are recorded per sim key so a chaos
    run can be proven bit-identical to a fault-free one.
    """
    for _ in range(2 if paired else 1):
        started = time.perf_counter()
        with tally.lock:
            tally.submissions += 1
        try:
            view = client.run(request, timeout=config.timeout)
        except ServeClientError as error:
            _account(tally, started, error=str(error))
            continue
        _account(tally, started, view)
        if view.status is JobStatus.DONE and view.result is not None:
            digest = stable_hash(dict(view.result))
            with tally.lock:
                previous = tally.digests.get(view.key)
                if previous is not None and previous != digest:
                    tally.errors.append(
                        f"digest conflict for {view.key[:12]}…: "
                        f"{previous[:12]} != {digest[:12]}")
                tally.digests[view.key] = digest


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(fraction * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def _drive(config: LoadgenConfig, worker: Callable[..., None],
           clients: list[ServeClient], *, ready_timeout: float,
           metric_prefixes: tuple[str, ...]
           ) -> tuple[_Tally, dict[str, Any], ServeClient]:
    """Run the seeded plan with one thread per client.

    Returns the tally, the document fields both modes share, and the
    probe client for follow-up reads.
    """
    probe = ServeClient(config.host, config.port, timeout=30.0)
    probe.wait_until_ready(timeout=ready_timeout)
    version = probe.health().get("version")
    metrics_before = parse_prometheus(probe.metrics_text())

    items: "queue.Queue[tuple[SimulateRequest, bool]]" = queue.Queue()
    for item in build_plan(config):
        items.put(item)
    tally = _Tally()

    def run(client: ServeClient) -> None:
        while True:
            try:
                request, paired = items.get_nowait()
            except queue.Empty:
                return
            worker(client, config, request, paired, tally)

    threads = [threading.Thread(target=run, args=(client,),
                                name=f"loadgen-{index}")
               for index, client in enumerate(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_seconds = time.perf_counter() - started

    metrics_after = parse_prometheus(probe.metrics_text())
    latencies = sorted(tally.latencies)
    completed = tally.ok + tally.failed
    return tally, {
        "loadgen": config.to_dict(),
        "server": {
            "version": version,
            "metrics_delta": {
                name: value - metrics_before.get(name, 0.0)
                for name, value in metrics_after.items()
                if name.startswith(metric_prefixes)
                and name.endswith("_total")},
        },
        "totals": {
            "submissions": tally.submissions,
            "completed": completed,
            "ok": tally.ok,
            "failed": tally.failed,
            "wall_seconds": wall_seconds,
            "throughput_rps": (completed / wall_seconds
                               if wall_seconds > 0 else 0.0),
            "cache_hits": tally.cache_hits,
        },
        "latency_seconds": {
            "mean": (sum(latencies) / len(latencies) if latencies else 0.0),
            "p50": _percentile(latencies, 0.50),
            "p95": _percentile(latencies, 0.95),
            "p99": _percentile(latencies, 0.99),
            "max": latencies[-1] if latencies else 0.0,
        },
        "errors": tally.errors[:10],
    }, probe


def run_loadgen(config: LoadgenConfig, announce=None) -> dict[str, Any]:
    """Drive the server and return the ``BENCH_serve.json`` document."""
    client = ServeClient(config.host, config.port,
                         timeout=max(30.0, config.timeout))
    tally, document, _ = _drive(
        config, _serve_item, [client] * max(1, config.concurrency),
        ready_timeout=30.0, metric_prefixes=("repro_serve_",))
    totals = document["totals"]
    totals.update(
        rejected_429=tally.rejected,
        dedup_hits=tally.dedup_hits,
        dedup_hit_rate=(tally.dedup_hits / tally.submissions
                        if tally.submissions else 0.0),
        cache_hit_rate=(tally.cache_hits / totals["completed"]
                        if totals["completed"] else 0.0),
    )
    document = {"schema": SERVE_BENCH_SCHEMA,
                "schema_version": SERVE_BENCH_SCHEMA_VERSION, **document}
    if announce is not None:
        announce(render_loadgen(document))
    return document


def run_cluster_loadgen(config: LoadgenConfig,
                        announce=None) -> dict[str, Any]:
    """Drive a cluster and return the ``BENCH_cluster.json`` document.

    The headline numbers are *availability* (requests that completed OK
    after retries, over all submissions) and the latency percentiles —
    under chaos, p99 measures how well bounded-jitter retry rides out a
    shard kill+restart.  ``digests`` maps each sim key to a stable hash
    of its result payload for cross-run bit-identity checks.
    """
    policy = RetryPolicy(max_attempts=10, base_delay=0.2, max_delay=5.0,
                         max_deadline=max(120.0, config.timeout))
    clients = [ServeClient(config.host, config.port,
                           timeout=max(30.0, config.timeout), retry=policy)
               for _ in range(max(1, config.concurrency))]
    tally, document, probe = _drive(
        config, _cluster_item, clients, ready_timeout=90.0,
        metric_prefixes=("repro_serve_", "repro_cluster_"))
    health = probe.health()
    document["totals"].update(
        retries=sum(client.retries for client in clients),
        availability=(tally.ok / tally.submissions
                      if tally.submissions else 0.0),
    )
    server = document.pop("server")
    document = {"schema": CLUSTER_BENCH_SCHEMA,
                "schema_version": CLUSTER_BENCH_SCHEMA_VERSION,
                **document,
                "cluster": {**server,
                            "shards": health.get("shards"),
                            "shards_healthy": health.get("shards_healthy")},
                "digests": dict(sorted(tally.digests.items()))}
    if announce is not None:
        announce(render_cluster_loadgen(document))
    return document


def _latency_line(latency: dict[str, float]) -> str:
    return (f"  latency:        p50 {latency['p50'] * 1000:.0f}ms  "
            f"p95 {latency['p95'] * 1000:.0f}ms  "
            f"p99 {latency['p99'] * 1000:.0f}ms  "
            f"max {latency['max'] * 1000:.0f}ms")


def render_cluster_loadgen(document: dict[str, Any]) -> str:
    """Terminal summary of one cluster loadgen document."""
    totals = document["totals"]
    lines = [
        f"repro loadgen --cluster ({totals['submissions']} submission(s), "
        f"{document['loadgen']['concurrency']} worker(s))",
        "-" * 64,
        f"  availability:   {totals['availability']:.1%} "
        f"({totals['ok']} ok / {totals['failed']} failed, "
        f"{totals['retries']} retry(ies))",
        f"  wall time:      {totals['wall_seconds']:.2f}s  "
        f"throughput {totals['throughput_rps']:.2f} req/s",
        _latency_line(document["latency_seconds"]),
        f"  shards healthy: {document['cluster'].get('shards_healthy')}",
        f"  unique cells:   {len(document['digests'])} digest(s)",
    ]
    return "\n".join(lines)


def render_loadgen(document: dict[str, Any]) -> str:
    """Terminal summary of one loadgen document."""
    totals = document["totals"]
    lines = [
        f"repro loadgen ({totals['submissions']} submission(s), "
        f"{document['loadgen']['concurrency']} worker(s), duplicate ratio "
        f"{document['loadgen']['duplicate_ratio']:.0%})",
        "-" * 64,
        f"  completed:      {totals['completed']} "
        f"({totals['ok']} ok, {totals['failed']} failed, "
        f"{totals['rejected_429']} x 429)",
        f"  wall time:      {totals['wall_seconds']:.2f}s",
        f"  throughput:     {totals['throughput_rps']:.2f} req/s",
        _latency_line(document["latency_seconds"]),
        f"  dedup hit rate: {totals['dedup_hit_rate']:.1%} "
        f"({totals['dedup_hits']} single-flight join(s))",
        f"  cache hit rate: {totals['cache_hit_rate']:.1%} "
        f"({totals['cache_hits']} replay(s))",
    ]
    return "\n".join(lines)
