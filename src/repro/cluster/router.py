"""The cluster's public HTTP front end: cache short-circuit + forwarding.

The router owns the one port clients talk to.  It is the second backend
of :class:`~repro.serve.http.HttpListener`: the listener parses and
routes, the router supplies the handlers.  Every ``POST
/v1/simulate`` body is parsed (so malformed requests die at the edge
with a 400 instead of burning a forward), keyed by its content-addressed
:meth:`~repro.serve.protocol.SimulateRequest.sim_key`, and then:

1. **Cache short-circuit** — the shared on-disk result cache is checked
   first; a hit answers 200 immediately with a synthesized terminal
   job (``job_id = "cache:<key>"``) without touching any shard.  This
   is the "any shard serves any cached cell" half of cluster-wide
   single-flight: once *some* shard computed a cell, the whole cluster
   serves it even while that shard is dead.
2. **Ring forward** — a miss goes to the shard owning the key on the
   consistent-hash ring (same key → same shard → the owning broker's
   single-flight registry dedupes concurrent leaders cluster-wide).
   An unavailable owner (crashed, restarting, unhealthy) is a 503 with
   ``Retry-After`` — the client's retry policy rides out the restart.

Job ids returned to clients are prefixed with the owning shard
(``s1:j000042``) so polls route back without any router-side state; a
poll for a shard that restarted (and thus forgot the id) surfaces the
broker's 404, which the client treats as "resubmit the request" —
idempotent by key, and typically a cache hit by then.  Forwarded SSE
frames are parsed and re-emitted with the same prefix, so the job id a
terminal frame names can be polled at the router.

``GET /metrics`` aggregates: each healthy shard's exposition is parsed
and summed metric-wise, then the router appends its own
``cluster.*`` counters and per-shard up/restart gauges.

The ``cluster.forward`` fault site fires on every forward, so the
``slow-network`` (stall) and dropped-forward chaos drills run entirely
inside this module.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Any, AsyncGenerator, Mapping

from repro import obs
from repro.common.errors import ReproError
from repro.exec import faults
from repro.exec.cache import ResultCache
from repro.obs.prometheus import (
    parse_prometheus,
    render_prometheus,
    render_samples,
    sum_metrics,
)
from repro.cluster.ring import HashRing
from repro.serve.http import (
    Frame,
    HttpListener,
    Reply,
    Response,
    fetch,
    open_upstream,
    read_events,
)
from repro.serve.protocol import (
    JobStatus,
    JobView,
    SimulateRequest,
    dumps,
    error_body,
    loads,
)

#: Seconds allowed for one non-streaming shard round trip.
FORWARD_TIMEOUT = 30.0
#: ``Retry-After`` hint when the owning shard is down or unreachable.
SHARD_RETRY_AFTER = 1.0
#: Job-id prefix of a synthesized router-level cache hit.
_CACHE_PREFIX = "cache:"


class Router(HttpListener):
    """The cluster backend: routes requests across supervised shards."""

    def __init__(self, supervisor: Any, host: str = "127.0.0.1",
                 port: int = 0, cache_dir: str | Path | None = None,
                 forward_timeout: float = FORWARD_TIMEOUT) -> None:
        super().__init__(host, port)
        self.supervisor = supervisor
        self.forward_timeout = forward_timeout
        self.ring = HashRing(supervisor.shard_names())
        cache_root = Path(cache_dir if cache_dir is not None
                          else supervisor.cache_dir)
        self.cache = ResultCache(cache_root / "results")
        self.draining = False
        self.counters: dict[str, int] = {
            "cluster.requests": 0,
            "cluster.cache_hits": 0,
            "cluster.forwards": 0,
            "cluster.forward_failures": 0,
        }

    def begin_drain(self) -> None:
        """Flip ``/readyz`` to 503 ahead of the shard drain."""
        self.draining = True

    def on_request(self) -> None:
        self.counters["cluster.requests"] += 1

    # -- forwarding plumbing -------------------------------------------------

    def _shard_unavailable(self, owner: str, detail: str) -> Response:
        self.counters["cluster.forward_failures"] += 1
        return Response.retry_later(
            503, "shard-unavailable",
            f"shard {owner} is unavailable ({detail}); retry shortly",
            SHARD_RETRY_AFTER)

    @staticmethod
    def _prefix_job_id(owner: str, document: Any) -> Any:
        """Route a shard document's ``job_id`` (and a terminal frame's
        ``job.job_id``) back to the shard: ``owner:id``."""
        if isinstance(document, dict):
            for holder in (document, document.get("job")):
                if (isinstance(holder, dict)
                        and isinstance(holder.get("job_id"), str)):
                    holder["job_id"] = f"{owner}:{holder['job_id']}"
        return document

    def _relay(self, owner: str, status: int, headers: Mapping[str, str],
               payload: bytes) -> Response:
        """A shard's JSON answer, re-addressed to routed job ids."""
        try:
            payload = dumps(self._prefix_job_id(
                owner, json.loads(payload.decode("utf-8"))))
        except (UnicodeDecodeError, json.JSONDecodeError):
            pass
        extra = ({"Retry-After": headers["retry-after"]}
                 if "retry-after" in headers else None)
        return Response(status, payload, headers=extra)

    def _cached_view(self, key: str) -> JobView | None:
        """A synthesized terminal job for a cached result, if any."""
        result = self.cache.get(key)
        if result is None:
            return None
        return JobView(
            job_id=f"{_CACHE_PREFIX}{key}",
            status=JobStatus.DONE,
            workload=result.workload,
            prefetcher=result.prefetcher,
            key=key,
            cache_hit=True,
            wall_seconds=0.0,
            result=result.to_dict(),
        )

    def _locate(self, job_id: str
                ) -> JobView | Response | tuple[str, str, tuple[str, int]]:
        """A cache-backed job's view, ``(owner, shard-local id,
        endpoint)`` for a shard's job, or the error to send."""
        if job_id.startswith(_CACHE_PREFIX):
            key = job_id[len(_CACHE_PREFIX):]
            return self._cached_view(key) or Response.json(404, error_body(
                "unknown-job",
                f"cached result {key[:12]}… was evicted; resubmit"))
        owner, separator, raw_id = job_id.partition(":")
        if not separator or owner not in self.ring:
            return Response.json(404, error_body(
                "unknown-job", f"no such job {job_id!r} (cluster job ids "
                f"look like <shard>:<id>)"))
        endpoint = self.supervisor.endpoint(owner)
        if endpoint is None:
            return self._shard_unavailable(owner, "down or starting")
        return owner, raw_id, endpoint

    # -- handlers ------------------------------------------------------------

    async def simulate(self, body: bytes) -> Response:
        try:
            request = SimulateRequest.from_dict(loads(body))
        except ReproError as error:
            return Response.json(400, error_body(
                type(error).__name__, str(error)))
        key = request.sim_key()
        view = self._cached_view(key)
        if view is not None:
            self.counters["cluster.cache_hits"] += 1
            return Response.json(200, view.to_dict())
        owner = self.ring.owner(key)
        endpoint = self.supervisor.endpoint(owner)
        if endpoint is None:
            return self._shard_unavailable(owner, "down or starting")
        self.counters["cluster.forwards"] += 1
        try:
            if faults.ACTIVE is not None:
                await faults.ACTIVE.async_check("cluster.forward")
            answer = await fetch(endpoint, "POST", "/v1/simulate", body,
                                 timeout=self.forward_timeout)
        except (OSError, asyncio.TimeoutError, ReproError) as error:
            return self._shard_unavailable(owner, str(error))
        return self._relay(owner, *answer)

    async def job(self, job_id: str) -> Response:
        located = self._locate(job_id)
        if isinstance(located, JobView):
            return Response.json(200, located.to_dict())
        if isinstance(located, Response):
            return located
        owner, raw_id, endpoint = located
        try:
            answer = await fetch(endpoint, "GET", f"/v1/jobs/{raw_id}",
                                 timeout=self.forward_timeout)
        except (OSError, asyncio.TimeoutError) as error:
            return self._shard_unavailable(owner, str(error))
        return self._relay(owner, *answer)

    async def events(self, job_id: str) -> Reply:
        located = self._locate(job_id)
        if isinstance(located, JobView):
            return self._cached_frames(located)
        if isinstance(located, Response):
            return located
        owner, raw_id, endpoint = located
        try:
            status, headers, reader, writer = await open_upstream(
                endpoint, "GET", f"/v1/jobs/{raw_id}/events",
                timeout=self.forward_timeout)
        except (OSError, asyncio.TimeoutError) as error:
            return self._shard_unavailable(owner, str(error))
        if status == 200:
            return self._forwarded_frames(owner, reader, writer)
        try:
            payload = await asyncio.wait_for(reader.read(),
                                             self.forward_timeout)
        except (OSError, asyncio.TimeoutError) as error:
            return self._shard_unavailable(owner, str(error))
        finally:
            writer.close()
        return self._relay(owner, status, headers, payload)

    @staticmethod
    async def _cached_frames(view: JobView) -> AsyncGenerator[Frame, None]:
        """A cache-backed job's whole history is one terminal frame."""
        yield "terminal", {"event": "terminal", "job": view.to_dict()}

    async def _forwarded_frames(self, owner: str,
                                reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter
                                ) -> AsyncGenerator[Frame, None]:
        """The shard's SSE stream, re-addressed to routed job ids."""
        try:
            async for name, payload in read_events(reader):
                yield name, self._prefix_job_id(owner, payload)
        finally:
            writer.close()

    async def healthz(self) -> Response:
        import repro

        return Response.json(200, {
            "status": "ok",
            "version": repro.__version__,
            "draining": self.draining,
            "shards": self.supervisor.describe(),
            "shards_healthy": self.supervisor.healthy_count(),
        })

    async def readyz(self) -> Response:
        if self.draining:
            return Response.json(503, error_body(
                "draining", "cluster is draining"))
        if self.supervisor.healthy_count() < 1:
            return Response.json(503, error_body(
                "shard-unavailable", "no healthy shards yet",
                retry_after=SHARD_RETRY_AFTER))
        return Response.json(200, {
            "status": "ready",
            "shards_healthy": self.supervisor.healthy_count(),
        })

    async def metrics(self) -> Response:
        scrapes: list[Mapping[str, float]] = []
        for name in self.supervisor.shard_names():
            endpoint = self.supervisor.endpoint(name)
            if endpoint is None:
                continue
            try:
                status, _, payload = await fetch(
                    endpoint, "GET", "/metrics",
                    timeout=self.forward_timeout)
            except (OSError, asyncio.TimeoutError):
                continue
            if status == 200:
                scrapes.append(
                    parse_prometheus(payload.decode("utf-8",
                                                    errors="replace")))
        counters = {**self.counters, **self.supervisor.counters}
        text = render_samples(sum_metrics(scrapes)) + render_prometheus(
            obs.snapshot(),
            counters=counters,
            gauges=self.supervisor.gauges(),
        )
        return Response.prometheus(text)
