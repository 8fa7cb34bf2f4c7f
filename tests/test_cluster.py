"""The cluster layer: ring, chaos parsing, retry policy, failover.

Unit tests cover the consistent-hash ring's determinism and stability,
chaos-spec parsing, the supervisor's crash-loop circuit breaker (with a
fake process — no subprocesses), and the client retry policy's jitter
bounds.  The end-to-end section runs a real 2-shard cluster once per
module, and the chaos drill — kill every shard on its second finished
job, then prove 100% availability and bit-identical digests against a
fault-free single-broker run — is the PR's acceptance criterion.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster import HashRing, ShardState, Supervisor, parse_chaos
from repro.cluster.ring import DEFAULT_REPLICAS
from repro.common.errors import ConfigError, ReproError
from repro.serve.client import (
    ConnectionFailed,
    DeadlineExceeded,
    RetryPolicy,
    ServeClient,
    ServeClientError,
)
from repro.serve.http import ThreadedServer
from repro.serve.loadgen import LoadgenConfig, build_plan
from repro.serve.protocol import JobStatus, SimulateRequest

BUDGET = 0.02


def request(prefetcher: str = "stride",
            workload: str = "nw") -> SimulateRequest:
    return SimulateRequest(workload=workload, prefetcher=prefetcher,
                           budget_fraction=BUDGET, seed=0)


class TestHashRing:
    def test_owner_is_deterministic_across_instances(self):
        keys = [f"key-{index}" for index in range(200)]
        first = HashRing(["s0", "s1", "s2"])
        second = HashRing(["s0", "s1", "s2"])
        assert [first.owner(key) for key in keys] == \
               [second.owner(key) for key in keys]

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing(["s0", "s1", "s2"])
        counts = ring.distribution(f"key-{index}" for index in range(3000))
        assert sum(counts.values()) == 3000
        for member, count in counts.items():
            assert 600 <= count <= 1400, (member, counts)

    def test_membership_growth_remaps_only_a_fraction(self):
        keys = [f"key-{index}" for index in range(1000)]
        small = HashRing(["s0", "s1", "s2"])
        large = HashRing(["s0", "s1", "s2", "s3"])
        moved = sum(1 for key in keys
                    if small.owner(key) != large.owner(key))
        # Consistent hashing moves ~1/4 of keys to the new member; a
        # modulo scheme would move ~3/4.  Allow generous slack.
        assert moved < 500, moved

    def test_owner_always_a_member(self):
        ring = HashRing(["a", "b"])
        assert ring.owner("anything") in ring.members
        assert "a" in ring and "c" not in ring
        assert len(ring) == 2

    def test_rejects_degenerate_rings(self):
        with pytest.raises(ConfigError):
            HashRing([])
        with pytest.raises(ConfigError):
            HashRing(["s0", "s0"])
        with pytest.raises(ConfigError):
            HashRing(["s0"], replicas=0)

    def test_replicas_default_smooths_load(self):
        assert DEFAULT_REPLICAS >= 32


class TestParseChaos:
    NAMES = ("s0", "s1", "s2")

    def test_star_targets_every_shard(self):
        plans = parse_chaos(["*:serve.admit:crash"], self.NAMES)
        assert set(plans) == set(self.NAMES)
        assert plans["s1"] == "serve.admit:crash"

    def test_single_shard_target(self):
        plans = parse_chaos(["s1:serve.job-finished:exit@2"], self.NAMES)
        assert plans == {"s1": "serve.job-finished:exit@2"}

    def test_multiple_clauses_join(self):
        plans = parse_chaos(
            ["s0:serve.admit:raise", "s0:journal.append:torn"], self.NAMES)
        assert plans["s0"] == "serve.admit:raise,journal.append:torn"

    def test_unknown_shard_rejected(self):
        with pytest.raises(ConfigError, match="unknown shard"):
            parse_chaos(["s9:serve.admit:crash"], self.NAMES)

    def test_malformed_spec_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_chaos(["no-colon-here"], self.NAMES)

    def test_invalid_fault_plan_rejected_at_parse_time(self):
        with pytest.raises(ReproError):
            parse_chaos(["s0:serve.admit:not-a-kind"], self.NAMES)


class _FakeProcess:
    """A dead subprocess, as far as the supervisor can tell."""

    returncode = 1

    def poll(self):
        return self.returncode


class TestCrashLoopBreaker:
    def make_supervisor(self, tmp_path, **kwargs):
        kwargs.setdefault("announce", lambda *_: None)
        return Supervisor(shards=1, cache_dir=tmp_path, **kwargs)

    def test_breaker_opens_after_consecutive_fast_crashes(self, tmp_path):
        supervisor = self.make_supervisor(tmp_path, crash_loop_limit=3,
                                          min_uptime=5.0)
        shard = supervisor.shards[0]
        shard.process = _FakeProcess()
        now = time.monotonic()
        for crash in range(2):
            shard.started_at = now  # zero uptime: a fast failure
            supervisor._handle_exit(shard, now)
            assert shard.state is ShardState.BACKOFF, crash
        shard.started_at = now
        supervisor._handle_exit(shard, now)
        assert shard.state is ShardState.FAILED
        assert supervisor.counters["cluster.breaker_trips"] == 1
        assert supervisor.endpoint("s0") is None

    def test_long_uptime_resets_the_fast_failure_count(self, tmp_path):
        supervisor = self.make_supervisor(tmp_path, crash_loop_limit=2,
                                          min_uptime=5.0)
        shard = supervisor.shards[0]
        shard.process = _FakeProcess()
        now = time.monotonic()
        shard.started_at = now
        supervisor._handle_exit(shard, now)
        assert shard.consecutive_fast_failures == 1
        # A healthy stretch longer than min_uptime wipes the slate.
        shard.started_at = now - 60.0
        supervisor._handle_exit(shard, now)
        assert shard.consecutive_fast_failures == 0
        assert shard.state is ShardState.BACKOFF

    def test_restart_backoff_grows_with_consecutive_crashes(self, tmp_path):
        supervisor = self.make_supervisor(tmp_path, backoff_base=1.0,
                                          backoff_cap=100.0,
                                          crash_loop_limit=10)
        shard = supervisor.shards[0]
        shard.process = _FakeProcess()
        now = time.monotonic()
        delays = []
        for _ in range(4):
            shard.started_at = now
            supervisor._handle_exit(shard, now)
            delays.append(shard.backoff_until - now)
        # Exponential-with-jitter: each delay at least ~1.5x the last.
        for earlier, later in zip(delays, delays[1:]):
            assert later > earlier * 1.2, delays

    def test_drain_marks_exits_stopped_not_crashed(self, tmp_path):
        supervisor = self.make_supervisor(tmp_path)
        shard = supervisor.shards[0]
        shard.process = _FakeProcess()
        supervisor._stopping = True
        supervisor._handle_exit(shard, time.monotonic())
        assert shard.state is ShardState.STOPPED
        assert supervisor.counters["cluster.restarts"] == 0

    def test_cluster_requires_shared_cache_dir(self):
        with pytest.raises(ConfigError, match="cache-dir"):
            Supervisor(shards=2, cache_dir=None)


class TestRetryPolicy:
    def test_full_jitter_stays_under_the_exponential_cap(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=2.0)
        for attempt in range(1, 10):
            cap = min(2.0, 0.1 * 2 ** (attempt - 1))
            for _ in range(20):
                assert 0.0 <= policy.delay(attempt) <= cap

    def test_retry_after_overrides_the_jittered_draw(self):
        policy = RetryPolicy(base_delay=0.1)
        for _ in range(20):
            delay = policy.delay(1, retry_after=3.0)
            assert 3.0 <= delay <= 3.1

    def test_unreachable_server_gives_up_after_max_attempts(self):
        client = ServeClient("127.0.0.1", 1,  # nothing listens on port 1
                             retry=RetryPolicy(max_attempts=3,
                                               base_delay=0.001,
                                               max_delay=0.002,
                                               max_deadline=30.0))
        with pytest.raises(ServeClientError, match="gave up after 3"):
            client.run(request())
        assert client.retries == 2  # attempts - 1 sleeps happened

    def test_deadline_beats_attempts_when_tighter(self):
        client = ServeClient("127.0.0.1", 1,
                             retry=RetryPolicy(max_attempts=50,
                                               base_delay=5.0,
                                               max_delay=5.0,
                                               max_deadline=0.05))
        with pytest.raises(DeadlineExceeded):
            client.run(request())

    def test_no_policy_preserves_raise_on_first_failure(self):
        client = ServeClient("127.0.0.1", 1)
        with pytest.raises(ConnectionFailed):
            client.run(request())


class TestCoverGridPlan:
    def test_cover_grid_prefix_hits_every_cell(self):
        config = LoadgenConfig.quick_cluster()
        plan = build_plan(config)
        cells = {(req.workload, req.prefetcher) for req, _ in plan}
        assert cells == {("nw", prefetcher)
                         for prefetcher in config.prefetchers}
        assert len(plan) == config.requests

    def test_default_plan_is_unchanged_without_cover_grid(self):
        config = LoadgenConfig.quick()
        assert not config.cover_grid
        plan = build_plan(config)
        assert len(plan) == config.requests


@pytest.fixture(scope="module")
def cluster_client(cluster):
    client = ServeClient(port=cluster.port,
                         retry=RetryPolicy(max_attempts=8,
                                           base_delay=0.05,
                                           max_delay=1.0,
                                           max_deadline=180.0))
    client.wait_until_ready(timeout=90.0)
    return client


class TestClusterEndToEnd:
    def test_simulate_routes_to_a_shard_and_completes(self, cluster_client):
        view = cluster_client.run(request("stride"), timeout=180.0)
        assert view.status is JobStatus.DONE
        shard, _, local = view.job_id.partition(":")
        assert shard in ("s0", "s1") or view.job_id.startswith("cache:")
        assert view.result is not None

    def test_repeat_request_short_circuits_via_shared_cache(
            self, cluster_client):
        first = cluster_client.run(request("no-prefetch"), timeout=180.0)
        assert first.status is JobStatus.DONE
        again = cluster_client.submit(request("no-prefetch"))
        assert again.status is JobStatus.DONE
        assert again.cache_hit is True
        assert again.job_id.startswith("cache:")
        # Cache-backed jobs poll and stream like any other job.
        polled = cluster_client.job(again.job_id)
        assert polled.status is JobStatus.DONE
        events = list(cluster_client.stream_events(again.job_id,
                                                   timeout=30.0))
        assert events[-1]["_event"] == "terminal"

    def test_healthz_reports_per_shard_state(self, cluster_client):
        health = cluster_client.health()
        assert health["shards_healthy"] == 2
        assert set(health["shards"]) == {"s0", "s1"}
        for state in health["shards"].values():
            assert state["state"] == "ready"

    def test_metrics_aggregates_shards_plus_cluster_counters(
            self, cluster_client):
        text = cluster_client.metrics_text()
        assert "repro_cluster_forwards_total" in text
        assert "repro_cluster_shards_healthy 2" in text
        assert "repro_cluster_shard_up_s0 1" in text
        # Shard-side serve counters roll up under the same names.
        assert "repro_serve_requests_total" in text

    def test_unknown_job_id_is_a_404_shape_the_client_understands(
            self, cluster_client):
        from repro.serve.client import JobNotFound

        bare = ServeClient(port=cluster_client.port)
        with pytest.raises(JobNotFound):
            bare.job("not-a-cluster-id")
        with pytest.raises(JobNotFound):
            bare.job("s0:j999999")

    def test_forwarded_sse_frames_carry_routable_job_ids(
            self, cluster_client):
        deadline = time.monotonic() + 90.0
        while (cluster_client.health()["shards_healthy"] < 2
               and time.monotonic() < deadline):
            time.sleep(0.1)
        view = cluster_client.submit(request("ghb-pc/dc"))
        assert not view.job_id.startswith("cache:")
        events = list(cluster_client.stream_events(view.job_id,
                                                   timeout=180.0))
        terminal = events[-1]
        assert terminal["_event"] == "terminal"
        assert terminal["job"]["job_id"] == view.job_id
        assert all(event["job_id"] == view.job_id
                   for event in events if "job_id" in event)
        polled = cluster_client.job(terminal["job"]["job_id"])
        assert polled.status is JobStatus.DONE


class TestChaosFailover:
    """The acceptance drill: kill shards mid-run, lose nothing."""

    def test_kill_shard_chaos_is_invisible_after_retries(
            self, tmp_path_factory):
        from repro.cluster import ThreadedCluster
        from repro.serve.loadgen import run_cluster_loadgen

        chaos_dir = tmp_path_factory.mktemp("chaos-cache")
        with ThreadedCluster(shards=3, cache_dir=chaos_dir, jobs=1,
                             chaos=["*:serve.job-finished:exit@2"],
                             min_uptime=1.0, backoff_base=0.2,
                             probe_interval=0.2) as cluster:
            config = LoadgenConfig.quick_cluster(port=cluster.port)
            document = run_cluster_loadgen(config)

        totals = document["totals"]
        assert totals["failed"] == 0, document["errors"]
        assert set(document) == {"schema", "schema_version", "loadgen",
                                 "cluster", "totals", "latency_seconds",
                                 "digests", "errors"}
        assert set(totals) == {
            "submissions", "completed", "ok", "failed", "retries",
            "wall_seconds", "throughput_rps", "availability", "cache_hits"}
        assert totals["availability"] == 1.0
        # The full grid over 3 shards guarantees some shard finished
        # two jobs, so the exit@2 fault must have killed at least one.
        delta = document["cluster"]["metrics_delta"]
        assert delta.get("repro_cluster_restarts_total", 0) >= 1
        assert totals["retries"] >= 1

        # Bit-identity: the same plan against a fault-free single
        # broker (fresh cache) produces identical digests per cell.
        clean_dir = tmp_path_factory.mktemp("clean-cache")
        with ThreadedServer(workers=1, cache_dir=clean_dir,
                            batch_window=0.01) as server:
            reference = run_cluster_loadgen(
                LoadgenConfig.quick_cluster(port=server.port))
        assert reference["totals"]["failed"] == 0
        assert document["digests"] == reference["digests"]
        assert len(document["digests"]) == 6
