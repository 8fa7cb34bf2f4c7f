"""Supervised, self-healing multi-shard serve cluster.

Layout::

    ring        consistent-hash ring over content-addressed sim keys
    supervisor  spawns/probes/restarts N broker shard subprocesses
    router      the HTTP backend: cache short-circuit + forwarding

One ``repro cluster`` process runs the supervisor and the router in a
single event loop.  The supervisor owns N ``repro serve`` subprocesses
(the *shards*, each a full broker with its own write-ahead job journal)
sharing one on-disk result cache; the router owns the public port and
forwards each request to the shard that owns its
:func:`~repro.exec.keys.sim_key` on the ring.  Same key → same shard,
so the per-broker single-flight registry deduplicates cluster-wide; the
router's shared-cache short-circuit means *any* shard's completed work
is served without touching any shard at all.

Failure handling is layered: the supervisor health-checks ``/readyz``
with exponential-backoff probes, SIGKILLs hung shards, restarts dead
ones with jittered backoff behind a per-shard crash-loop circuit
breaker; the shards recover journaled jobs on restart; and the client's
:class:`~repro.serve.client.RetryPolicy` rides out the window in
between.  All of it is exercised deterministically through the
``REPRO_FAULTS`` chaos sites (``serve.admit``, ``serve.job-finished``,
``journal.append``, ``cluster.forward``).
"""

from repro.cluster.ring import HashRing
from repro.cluster.router import Router
from repro.cluster.supervisor import (
    Shard,
    ShardState,
    Supervisor,
    ThreadedCluster,
    parse_chaos,
    run_cluster,
)

__all__ = [
    "HashRing",
    "Router",
    "Shard",
    "ShardState",
    "Supervisor",
    "ThreadedCluster",
    "parse_chaos",
    "run_cluster",
]
