"""The shard supervisor: spawn, probe, restart, drain.

Each shard is a full ``repro serve`` subprocess (its own broker, worker
pool, and write-ahead job journal) started with ``--port 0`` — the
kernel picks a free port, the shard announces it on its log, and the
supervisor reads it back.  All shards share one cache dir: the shared
result cache is what lets the router short-circuit completed work and
lets a restarted shard replay crashed jobs as cache hits.

Per-shard state machine::

    STARTING --(readyz ok)--> READY --(probe failures)--> UNHEALTHY
        |                       ^                             |
        |                       |                     (limit) SIGKILL
        +--(no port in time)----+---------+                   |
                                          |                   v
    FAILED <--(crash-loop breaker)-- BACKOFF <--(process exit)+
                                          |
                                          +--(jittered delay)--> spawn

Health probes hit ``/readyz`` with *exponential backoff* on failure —
a struggling shard is probed less often, not hammered.  A shard whose
probes keep failing (a hung event loop: the ``serve.admit:stall``
chaos) is SIGKILLed and restarted.  Restart delays are exponential in
the number of *consecutive fast failures* (death within ``min_uptime``)
with multiplicative jitter, and a per-shard crash-loop circuit breaker
stops restarting after ``crash_loop_limit`` consecutive fast failures —
one deterministically broken shard must not burn CPU forever while the
ring routes its keys into 503s the client can at least see.

Chaos: ``--chaos '<shard>:<faultspec>'`` (shard name or ``*``) sets
``REPRO_FAULTS`` in the matching shard's environment *on first spawn
only*, so an injected death is followed by a clean restart — exactly
the kill-shard drill the failover proof needs.
"""

from __future__ import annotations

import asyncio
import contextlib
import enum
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.common.errors import ConfigError
from repro.exec.faults import parse_fault_plan
from repro.serve.http import (
    ThreadedHarness,
    announced_port,
    fetch,
    run_main,
    serve_until_stopped,
)


class ShardState(enum.Enum):
    """Lifecycle of one supervised shard."""

    STARTING = "starting"
    READY = "ready"
    UNHEALTHY = "unhealthy"
    BACKOFF = "backoff"
    FAILED = "failed"
    STOPPED = "stopped"


class Shard:
    """One supervised broker subprocess and its probe/restart state."""

    def __init__(self, name: str, log_path: Path) -> None:
        self.name = name
        self.log_path = log_path
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self.state = ShardState.STARTING
        self.restarts = 0
        self.consecutive_fast_failures = 0
        self.probe_failures = 0
        self.started_at = 0.0
        self.backoff_until = 0.0
        self.next_probe_at = 0.0
        #: Bytes of the log already scanned for the announce line.
        self.log_offset = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def describe(self) -> dict[str, Any]:
        return {
            "state": self.state.value,
            "port": self.port,
            "restarts": self.restarts,
            "probe_failures": self.probe_failures,
        }


def parse_chaos(specs: Sequence[str],
                shard_names: Sequence[str]) -> dict[str, str]:
    """Expand ``<shard>:<faultspec>`` clauses into per-shard fault plans.

    The shard part is a name (``s0``) or ``*`` for every shard; the
    fault part is a full ``REPRO_FAULTS`` clause (it may itself contain
    colons, so only the *first* colon splits).  Multiple clauses for
    one shard join into a comma-separated plan.  Plans are validated at
    parse time so a typo fails the ``repro cluster`` invocation, not a
    shard three restarts later.
    """
    plans: dict[str, str] = {}
    for spec in specs:
        target, separator, plan = spec.partition(":")
        if not separator or not target or not plan:
            raise ConfigError(
                f"malformed chaos spec {spec!r}; want <shard>:<faultspec>")
        parse_fault_plan(plan)  # validate; raises ExecError on nonsense
        targets = list(shard_names) if target == "*" else [target]
        for name in targets:
            if name not in shard_names:
                raise ConfigError(
                    f"chaos spec {spec!r} names unknown shard {name!r}; "
                    f"shards: {', '.join(shard_names)}")
            plans[name] = f"{plans[name]},{plan}" if name in plans else plan
    return plans


class Supervisor:
    """Owns N shard subprocesses; probes, restarts, and drains them."""

    def __init__(
        self,
        *,
        shards: int,
        cache_dir: str | Path,
        host: str = "127.0.0.1",
        jobs: int = 1,
        max_pending: int = 64,
        chaos: Sequence[str] = (),
        probe_interval: float = 0.5,
        probe_timeout: float = 2.0,
        probe_failures_limit: int = 3,
        spawn_timeout: float = 30.0,
        min_uptime: float = 5.0,
        backoff_base: float = 0.5,
        backoff_cap: float = 10.0,
        crash_loop_limit: int = 5,
        announce=print,
    ) -> None:
        if shards < 1:
            raise ConfigError("a cluster needs at least one shard")
        if cache_dir is None:
            raise ConfigError(
                "a cluster needs a shared --cache-dir (the shared result "
                "cache is what makes any shard able to serve any cell)")
        self.host = host
        self.cache_dir = Path(cache_dir)
        self.jobs = jobs
        self.max_pending = max_pending
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.probe_failures_limit = probe_failures_limit
        self.spawn_timeout = spawn_timeout
        self.min_uptime = min_uptime
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.crash_loop_limit = crash_loop_limit
        self.announce = announce

        log_dir = self.cache_dir / "serve"
        log_dir.mkdir(parents=True, exist_ok=True)
        names = [f"s{index}" for index in range(shards)]
        self.shards = [Shard(name, log_dir / f"{name}.log")
                       for name in names]
        self.chaos = parse_chaos(chaos, names)
        self._stopping = False
        self.counters: dict[str, int] = {
            "cluster.spawns": 0,
            "cluster.restarts": 0,
            "cluster.kills": 0,
            "cluster.probe_failures": 0,
            "cluster.breaker_trips": 0,
        }

    # -- spawn / exit --------------------------------------------------------

    def spawn_all(self) -> None:
        """First spawn of every shard (chaos env applies here only)."""
        for shard in self.shards:
            self._spawn(shard, first=True)

    def _spawn(self, shard: Shard, first: bool) -> None:
        env = {name: value for name, value in os.environ.items()
               if name != "REPRO_FAULTS"}
        if first and shard.name in self.chaos:
            env["REPRO_FAULTS"] = self.chaos[shard.name]
        command = [
            sys.executable, "-u", "-m", "repro", "serve",
            "--host", self.host, "--port", "0",
            "--jobs", str(self.jobs),
            "--max-pending", str(self.max_pending),
            "--cache-dir", str(self.cache_dir),
            "--shard-name", shard.name,
        ]
        log = open(shard.log_path, "ab")
        shard.log_offset = shard.log_path.stat().st_size
        try:
            shard.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env)
        finally:
            log.close()
        shard.port = None
        shard.state = ShardState.STARTING
        shard.probe_failures = 0
        shard.started_at = time.monotonic()
        shard.next_probe_at = 0.0
        self.counters["cluster.spawns"] += 1

    def _scan_for_port(self, shard: Shard) -> None:
        """Look for the shard's announce line past the spawn offset."""
        try:
            with open(shard.log_path, "rb") as handle:
                handle.seek(shard.log_offset)
                text = handle.read().decode("utf-8", errors="replace")
        except OSError:
            return
        shard.port = announced_port(text)

    def _handle_exit(self, shard: Shard, now: float) -> None:
        code = shard.process.returncode if shard.process else None
        if self._stopping:
            shard.state = ShardState.STOPPED
            return
        uptime = now - shard.started_at
        fast = uptime < self.min_uptime
        shard.consecutive_fast_failures = (
            shard.consecutive_fast_failures + 1 if fast else 0)
        if shard.consecutive_fast_failures >= self.crash_loop_limit:
            shard.state = ShardState.FAILED
            self.counters["cluster.breaker_trips"] += 1
            self.announce(
                f"repro cluster: shard {shard.name} crash-looped "
                f"{shard.consecutive_fast_failures}x within "
                f"{self.min_uptime:.1f}s — circuit open, not restarting")
            return
        delay = min(self.backoff_cap,
                    self.backoff_base
                    * (2 ** min(shard.consecutive_fast_failures, 6)))
        delay *= random.uniform(0.75, 1.25)
        shard.state = ShardState.BACKOFF
        shard.backoff_until = now + delay
        shard.restarts += 1
        self.counters["cluster.restarts"] += 1
        self.announce(
            f"repro cluster: shard {shard.name} exited (code={code}, "
            f"uptime={uptime:.1f}s); restarting in {delay:.2f}s "
            f"(restart #{shard.restarts})")

    def _kill(self, shard: Shard, reason: str) -> None:
        self.counters["cluster.kills"] += 1
        self.announce(f"repro cluster: killing shard {shard.name}: {reason}")
        if shard.process is not None and shard.process.poll() is None:
            shard.process.kill()
            shard.process.wait()

    # -- probing -------------------------------------------------------------

    async def _probe(self, shard: Shard) -> bool:
        """One ``GET /readyz``; False on refusal, timeout, or non-200."""
        if shard.port is None:
            return False
        try:
            status, _, _ = await fetch((self.host, shard.port), "GET",
                                       "/readyz", timeout=self.probe_timeout)
        except (OSError, asyncio.TimeoutError):
            return False
        return status == 200

    # -- the monitor loop ----------------------------------------------------

    async def monitor(self, tick: float = 0.05) -> None:
        """Run ticks until cancelled (the supervisor's main task)."""
        while not self._stopping:
            await self.tick_all()
            await asyncio.sleep(tick)

    async def tick_all(self) -> None:
        """One pass of the state machine over every shard."""
        now = time.monotonic()
        for shard in self.shards:
            await self._tick(shard, now)

    async def _tick(self, shard: Shard, now: float) -> None:
        if shard.state in (ShardState.FAILED, ShardState.STOPPED):
            return
        if shard.state == ShardState.BACKOFF:
            if now >= shard.backoff_until:
                self._spawn(shard, first=False)
            return
        if shard.process is not None and shard.process.poll() is not None:
            self._handle_exit(shard, now)
            return
        if shard.state == ShardState.STARTING:
            if shard.port is None:
                self._scan_for_port(shard)
            if shard.port is None:
                if now - shard.started_at > self.spawn_timeout:
                    self._kill(shard, "no port announced in time")
                return
        if now < shard.next_probe_at:
            return
        healthy = await self._probe(shard)
        if healthy:
            if shard.state is not ShardState.READY:
                self.announce(f"repro cluster: shard {shard.name} ready "
                              f"on port {shard.port}")
            shard.state = ShardState.READY
            shard.probe_failures = 0
            shard.next_probe_at = now + self.probe_interval
            if now - shard.started_at >= self.min_uptime:
                shard.consecutive_fast_failures = 0
            return
        shard.probe_failures += 1
        self.counters["cluster.probe_failures"] += 1
        if shard.state is ShardState.READY:
            shard.state = ShardState.UNHEALTHY
        # Exponential backoff between probes of a failing shard.
        shard.next_probe_at = now + self.probe_interval * (
            2 ** min(shard.probe_failures, 5))
        if (shard.state is ShardState.UNHEALTHY
                and shard.probe_failures >= self.probe_failures_limit):
            self._kill(shard, f"{shard.probe_failures} consecutive "
                              f"failed health probes (hung?)")

    # -- the router's view ---------------------------------------------------

    def endpoint(self, name: str) -> tuple[str, int] | None:
        """``(host, port)`` of a READY shard, else None (don't route)."""
        for shard in self.shards:
            if shard.name == name:
                if shard.state is ShardState.READY and shard.port:
                    return (self.host, shard.port)
                return None
        return None

    def shard_names(self) -> list[str]:
        return [shard.name for shard in self.shards]

    def healthy_count(self) -> int:
        return sum(1 for shard in self.shards
                   if shard.state is ShardState.READY)

    def describe(self) -> dict[str, Any]:
        return {shard.name: shard.describe() for shard in self.shards}

    def gauges(self) -> dict[str, float]:
        """Per-shard up/restart gauges for the aggregated ``/metrics``."""
        gauges: dict[str, float] = {
            "cluster.shards": float(len(self.shards)),
            "cluster.shards_healthy": float(self.healthy_count()),
        }
        for shard in self.shards:
            up = 1.0 if shard.state is ShardState.READY else 0.0
            gauges[f"cluster.shard_up_{shard.name}"] = up
            gauges[f"cluster.shard_restarts_{shard.name}"] = float(
                shard.restarts)
        return gauges

    # -- drain ---------------------------------------------------------------

    async def drain(self, timeout: float = 60.0) -> None:
        """SIGTERM every shard, await clean exits, SIGKILL stragglers."""
        self._stopping = True
        for shard in self.shards:
            if shard.alive:
                shard.process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not any(shard.alive for shard in self.shards):
                break
            await asyncio.sleep(0.1)
        for shard in self.shards:
            if shard.alive:
                self.announce(f"repro cluster: shard {shard.name} did not "
                              f"drain in {timeout:.0f}s; killing")
                shard.process.kill()
                shard.process.wait()
            shard.state = ShardState.STOPPED

    def write_stats(self, router_counters: Mapping[str, int] | None = None
                    ) -> Path:
        """Persist supervisor + router counters next to the cache."""
        document = {
            "counters": {**self.counters, **(router_counters or {})},
            "shards": self.describe(),
        }
        path = self.cache_dir / "cluster-stats.json"
        path.write_text(json.dumps(document, indent=2, sort_keys=True)
                        + "\n")
        return path


async def run_cluster(
    *,
    host: str = "127.0.0.1",
    port: int = 8400,
    announce=print,
    ready_event: "threading.Event | None" = None,
    stop_event: "asyncio.Event | None" = None,
    **supervisor_kwargs: Any,
) -> int:
    """Run supervisor + router until SIGTERM/SIGINT, then drain.

    The drain flips ``/readyz`` to 503, stops the monitor, drains every
    shard and writes ``cluster-stats.json``.
    """
    from repro.cluster.router import Router

    supervisor = Supervisor(host=host, announce=announce,
                            **supervisor_kwargs)
    supervisor.spawn_all()
    router = Router(supervisor, host=host, port=port,
                    cache_dir=supervisor.cache_dir)
    monitor_task = asyncio.create_task(supervisor.monitor(),
                                       name="cluster-monitor")

    async def drain() -> None:
        router.begin_drain()
        monitor_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await monitor_task
        await supervisor.drain()
        supervisor.write_stats(router.counters)

    return await serve_until_stopped(
        router, program="repro cluster",
        summary=(f"shards={len(supervisor.shards)}, "
                 f"workers/shard={supervisor.jobs}"),
        drain_note="stopping shards", drain=drain,
        announce=announce, ready_event=ready_event, stop_event=stop_event)


class ThreadedCluster(ThreadedHarness):
    """The full cluster stack on a background thread (tests)."""

    entrypoint = staticmethod(run_cluster)
    start_timeout = 60.0
    stop_timeout = 120.0


def main_cluster(args: Any) -> int:
    """``repro cluster`` entry point (driven by :mod:`repro.cli`)."""
    return run_main(run_cluster(
        host=args.host,
        port=args.port,
        shards=args.shards,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        max_pending=args.max_pending,
        chaos=args.chaos or (),
        probe_interval=args.probe_interval,
        probe_timeout=args.probe_timeout,
        min_uptime=args.min_uptime,
        backoff_base=args.backoff_base,
        backoff_cap=args.backoff_cap,
        crash_loop_limit=args.crash_loop_limit,
    ), "repro cluster")
