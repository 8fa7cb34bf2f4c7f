"""The ``serve-open-loop`` workload.

A ``repro serve`` subprocess (fresh cache directory, a pool of
``WORKERS`` processes) is driven open-loop by one generator with two
threads: a sender that POSTs each request at its due time, and a poller
that reads job states through :class:`repro.serve.client.ServeClient`
until each is terminal.  Each thread has at most one request open at a
time (the client opens a connection per request).  Latency counts from
the due time, so a stall in the server or the sender shows up in every
request due during it.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from perfbench import common

#: Worker processes behind the broker; the load is sized for 2 cores.
WORKERS = 2
#: Offered load, requests per second: about half the capacity that
#: perfbench/capacity.py measures with this mix (see metrics.json).
RATE = 16.0
#: Seeded jitter of each arrival, as a share of the arrival period.
JITTER = 0.25
#: Budget fraction of every request (traces clamp near 1000 accesses).
BUDGET_FRACTION = 0.02
#: Requests slower than this, refused or failed miss the limit.
LATENCY_LIMIT_MS = 1000.0
#: Shares of the mix: the rest (7/12) are cold, distinct keys.
JOIN_SHARE = 1 / 6
REPLAY_SHARE = 1 / 4
#: A replay repeats a key due at least this long before it.
REPLAY_AGE_S = 2.0
#: The poller sends at most one GET per ``POLL_S``, taking the
#: outstanding jobs in turn, so polling adds at most ``1 / POLL_S``
#: requests per second and a job with ``k`` others outstanding is seen
#: done within ``(k + 1) x POLL_S`` of finishing.
POLL_S = 0.01
#: Outstanding jobs still unfinished this long after the window are lost.
DRAIN_S = 60.0
#: Server boots before and after the window (set-up time is their
#: median); the last boot before the window serves the run.
SETUP_BEFORE, SETUP_AFTER = 4, 3


@dataclass(frozen=True)
class Planned:
    """One request of the plan: what to send, and when (seconds)."""

    due: float
    workload: str
    prefetcher: str
    seed: int
    kind: str  # "cold", "join" or "replay"

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.workload, self.prefetcher, self.seed)


def plan_requests(seed: int, seconds: float, rate: float,
                  workloads: Sequence[str],
                  prefetchers: Sequence[str]) -> list[Planned]:
    """The seeded request mix: ``rate x seconds`` requests.

    The kinds come in fixed shares:

    * cold: a (workload, prefetcher) cell with a request seed no other
      request uses.  The cold cells are the whole grid as many times as
      it fits, plus a fixed sample of it for the remainder, in seeded
      order: every seed simulates the same cells;
    * join: a second request for a cold key at the same instant, so it
      lands while that job is in flight (single-flight).  The joined
      cells are a fixed sample of the grid, the same for every seed;
    * replay: a key due at least ``REPLAY_AGE_S`` earlier, normally
      finished and in the result cache.

    Cold requests and replays take turns in seeded order on a fixed
    schedule: arrival ``i`` of ``n`` is due at ``(i + 1/2 + JITTER x (u -
    1/2)) x seconds / n`` for a seeded uniform ``u``, so every seed
    offers the same load and no two arrivals are closer than
    ``1 - JITTER`` periods.
    """
    rng = random.Random(f"serve-open-loop:{seed}")
    count = max(1, round(rate * seconds))
    joins = round(count * JOIN_SHARE)
    replays = round(count * REPLAY_SHARE)
    slots = count - joins
    kinds = ["replay"] * replays + ["cold"] * (slots - replays)
    rng.shuffle(kinds)
    cells = [(w, p) for w in workloads for p in prefetchers]
    joined = set(random.Random("serve-open-loop:joins").sample(
        cells, min(joins, len(cells))))
    rounds, extra = divmod(slots - replays, len(cells))
    cold_cells = cells * rounds + random.Random(
        "serve-open-loop:cells").sample(cells, extra)
    rng.shuffle(cold_cells)
    period = seconds / slots
    plan: list[Planned] = []
    cold: list[Planned] = []
    for index, kind in enumerate(kinds):
        due = (index + 0.5 + JITTER * (rng.random() - 0.5)) * period
        old = [item for item in cold if item.due <= due - REPLAY_AGE_S]
        if kind == "replay" and old:
            source = rng.choice(old)
            plan.append(Planned(due, source.workload, source.prefetcher,
                                source.seed, "replay"))
            continue
        if kind == "replay" and "cold" in kinds[index:]:
            # Nothing old enough yet: swap in a later cold request.
            later = kinds.index("cold", index)
            kinds[index], kinds[later] = kinds[later], kinds[index]
        cell = cold_cells[len(cold) % len(cold_cells)]
        item = Planned(due, cell[0], cell[1], seed * 100_000 + index + 1,
                       "cold")
        cold.append(item)
        plan.append(item)
        if cell in joined and joins > 0:
            joins -= 1
            plan.append(Planned(due, cell[0], cell[1], item.seed, "join"))
    return plan


@dataclass
class Outcome:
    """What happened to one planned request (times are monotonic)."""

    planned: Planned
    due: float
    sent: float = math.nan
    acked: float = math.nan
    done: float = math.nan
    status: str = "lost"  # done, failed, refused, error, lost
    job_id: str | None = None
    deduplicated: bool = False
    cache_hit: bool | None = None
    wall_seconds: float | None = None
    result: dict | None = None

    @property
    def latency_ms(self) -> float:
        """Due-to-done latency; infinite unless the request succeeded."""
        if self.status != "done":
            return math.inf
        return (self.done - self.due) * 1000.0


@dataclass
class OpenLoop:
    """Sends a plan open-loop and collects every request's outcome.

    ``client`` needs ``submit(request) -> view`` and ``job(id) -> view``
    (a :class:`~repro.serve.client.ServeClient`); ``make_request`` turns
    a :class:`Planned` into the request object ``submit`` takes.
    """

    client: Any
    make_request: Callable[[Planned], Any]
    busy_errors: tuple[type[BaseException], ...] = ()
    client_errors: tuple[type[BaseException], ...] = (Exception,)
    poll_s: float = POLL_S
    outcomes: list[Outcome] = field(default_factory=list)
    #: GETs the poller sent, and the seconds from the start of the plan
    #: to the poller's exit.
    polls: int = 0
    span_s: float = 0.0

    def run(self, plan: Sequence[Planned]) -> list[Outcome]:
        start = time.monotonic() + 0.05
        self.outcomes = [Outcome(item, start + item.due) for item in plan]
        outstanding: dict[str, list[Outcome]] = {}
        lock = threading.Lock()
        sending_done = threading.Event()
        sender = threading.Thread(
            target=self._send, args=(outstanding, lock, sending_done),
            name="perfbench-sender")
        poller = threading.Thread(
            target=self._poll, args=(outstanding, lock, sending_done),
            name="perfbench-poller")
        sender.start()
        poller.start()
        sender.join()
        poller.join()
        self.span_s = time.monotonic() - start
        return self.outcomes

    def _send(self, outstanding: dict[str, list[Outcome]],
              lock: threading.Lock, sending_done: threading.Event) -> None:
        try:
            for outcome in self.outcomes:
                delay = outcome.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                outcome.sent = time.monotonic()
                try:
                    view = self.client.submit(
                        self.make_request(outcome.planned))
                except self.busy_errors:
                    outcome.acked = time.monotonic()
                    outcome.status = "refused"
                    continue
                except self.client_errors as error:
                    outcome.acked = time.monotonic()
                    outcome.status = "error"
                    common.log(f"request failed at submit: {error}")
                    continue
                outcome.acked = time.monotonic()
                outcome.job_id = view.job_id
                outcome.deduplicated = bool(view.deduplicated)
                if _terminal(view):
                    self._finish(outcome, view, outcome.acked)
                    continue
                with lock:
                    outstanding.setdefault(view.job_id, []).append(outcome)
        finally:
            sending_done.set()

    def _poll(self, outstanding: dict[str, list[Outcome]],
              lock: threading.Lock, sending_done: threading.Event) -> None:
        deadline = math.inf
        turn = 0
        while True:
            with lock:
                job_ids = list(outstanding)
            if not job_ids and sending_done.is_set():
                return
            if sending_done.is_set() and deadline == math.inf:
                deadline = time.monotonic() + DRAIN_S
            if time.monotonic() > deadline:
                return  # the rest stay "lost"
            if job_ids:
                job_id = job_ids[turn % len(job_ids)]
                turn += 1
                self.polls += 1
                try:
                    view = self.client.job(job_id)
                except self.client_errors as error:
                    common.log(f"poll of job {job_id} failed: {error}")
                    view = None
                if view is not None and _terminal(view):
                    now = time.monotonic()
                    with lock:
                        waiting = outstanding.pop(job_id, [])
                    for outcome in waiting:
                        self._finish(outcome, view, now)
            time.sleep(self.poll_s)

    @staticmethod
    def _finish(outcome: Outcome, view: Any, now: float) -> None:
        outcome.done = now
        outcome.status = "done" if _status(view) == "done" else "failed"
        outcome.cache_hit = view.cache_hit
        outcome.wall_seconds = view.wall_seconds
        outcome.result = view.result


def _status(view: Any) -> str:
    status = view.status
    return getattr(status, "value", status)


def _terminal(view: Any) -> bool:
    return _status(view) in ("done", "failed")


# -- the server ----------------------------------------------------------------

class Server:
    """One ``repro serve`` subprocess on a free port."""

    def __init__(self, work: Path) -> None:
        self.cache_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=work))
        self.log_path = self.cache_dir.with_suffix(".log")
        self.process: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self, timeout: float = 60.0) -> float:
        """Boot and wait for ``/readyz``; returns the seconds it took."""
        from repro.serve.client import ServeClient

        started = time.perf_counter()
        with self.log_path.open("w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--jobs", str(WORKERS), "--cache-dir", str(self.cache_dir),
                 "--no-recover"],
                cwd=common.ROOT, env=common.program_env(), stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                start_new_session=True)
        deadline = time.monotonic() + timeout
        marker = "listening on http://"
        while self.port is None:
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "repro serve did not start:\n"
                    + self.log_path.read_text()[-2000:])
            text = self.log_path.read_text()
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
            else:
                time.sleep(0.002)
        client = ServeClient(port=self.port, timeout=30.0)
        client.wait_until_ready(timeout=timeout, poll=0.002)
        return time.perf_counter() - started

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(port=self.port, timeout=30.0)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill whatever is left.

        The server runs in its own session, so its pool workers share
        its process group; none of them outlives this call.
        """
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        # A clean drain joins the workers; after a crash, kill leftovers.
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            time.sleep(0.01)


def _server_counters(client: Any) -> dict[str, float]:
    from repro.obs.prometheus import parse_prometheus

    return parse_prometheus(client.metrics_text())


def _counter_delta(before: dict[str, float], after: dict[str, float],
                   name: str) -> float:
    metric = f"repro_serve_{name}_total"
    return after.get(metric, 0.0) - before.get(metric, 0.0)


# -- verification --------------------------------------------------------------

def simulate_in_process(item: Planned) -> tuple[Any, int]:
    """The result ``repro serve`` must return for ``item``, computed
    in-process, and the length of its trace."""
    from repro.harness.registry import make_prefetcher
    from repro.sim.config import REDUCED_CONFIG
    from repro.sim.engine import simulate
    from repro.workloads.base import build_trace, get_workload

    spec = get_workload(item.workload)
    trace = build_trace(
        spec, scale=1.0,
        max_accesses=max(1000, int(spec.default_accesses * BUDGET_FRACTION)),
        seed=item.seed)
    result = simulate(REDUCED_CONFIG, make_prefetcher(item.prefetcher), trace)
    result.prefetcher = item.prefetcher
    return result, len(trace.events)


def _verify(outcomes: Sequence[Outcome], seed: int) -> tuple[int, dict]:
    """Check every served result outside the timed window.

    Returns ``(failed requests, events per distinct key)``.  A request
    fails when it was refused, failed or lost; when its result breaks a
    cell invariant; or when its result differs from an in-process
    simulation of the same request (and, at the default seed, from the
    pinned digest).
    """
    from repro.harness.bench import result_digest
    from repro.sim.results import SimResult

    pinned = (common.load_reference("serve-open-loop")
              if seed == common.DEFAULT_SEED else {})
    expected: dict[tuple[str, str, int], str] = {}
    events: dict[tuple[str, str, int], int] = {}
    failed = 0
    for outcome in outcomes:
        planned = outcome.planned
        if outcome.status != "done" or outcome.result is None:
            failed += 1
            common.log(f"FAIL request {planned}: {outcome.status}")
            continue
        served = SimResult.from_dict(outcome.result)
        problems = common.cell_problems(served)
        key = planned.key
        if key not in expected:
            local, events[key] = simulate_in_process(planned)
            expected[key] = result_digest(local)
        digest = result_digest(served)
        if digest != expected[key]:
            problems.append(f"digest {digest} != in-process "
                            f"{expected[key]}")
        pin = pinned.get("|".join(map(str, key)))
        if pin is not None and pin != digest:
            problems.append(f"digest {digest} != pinned {pin}")
        if problems:
            failed += 1
            common.log(f"FAIL request {planned}: {'; '.join(problems)}")
    return failed, events


# -- the workload --------------------------------------------------------------

def serve_plan(seed: int, seconds: float, rate: float) -> list[Planned]:
    """The workload's plan: the mix over the paper's grid at ``rate``."""
    from repro.harness.registry import PAPER_PREFETCHER_ORDER
    from repro.workloads import ALL_WORKLOADS

    return plan_requests(seed, seconds, rate, ALL_WORKLOADS,
                         PAPER_PREFETCHER_ORDER)


def open_loop(client: Any) -> OpenLoop:
    """An :class:`OpenLoop` that sends :class:`Planned` requests as
    single-cell ``POST /v1/simulate`` through ``client``."""
    from repro.common.errors import ReproError
    from repro.serve.client import ServerBusy
    from repro.serve.protocol import SimulateRequest

    def make_request(item: Planned) -> SimulateRequest:
        return SimulateRequest(workload=item.workload,
                               prefetcher=item.prefetcher,
                               budget_fraction=BUDGET_FRACTION,
                               seed=item.seed)

    return OpenLoop(client, make_request, busy_errors=(ServerBusy,),
                    client_errors=(ReproError, OSError))


def run(seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    """One benchmark run of ``serve-open-loop``."""
    common.WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="serve-open-loop-", dir=common.WORK))
    servers: list[Server] = []
    try:
        def boot() -> float:
            if servers:
                servers[-1].stop()
            servers.append(Server(work))
            return servers[-1].start()

        boots = [boot() for _ in range(1 if traced else SETUP_BEFORE)]
        server = servers[-1]
        client = server.client()
        before = _server_counters(client)
        loop = open_loop(client)
        outcomes = loop.run(serve_plan(seed, seconds, RATE))
        # Memory of the window only: read before the checks below
        # simulate in this process.
        peak_rss = (common.self_peak_rss_mb()
                    + common.tree_peak_rss_mb(server.process.pid))
        after = _server_counters(client)
        server.stop()
        common.log(f"serve-open-loop: the poller sent {loop.polls} GETs in "
                   f"{loop.span_s:.1f} s ({loop.polls / loop.span_s:.1f}/s)")

        if not traced:
            boots += [boot() for _ in range(SETUP_AFTER)]
        failed, events = _verify(outcomes, seed)
        if traced:
            metrics = {name: 0.0
                       for name in common.metric_units("per_layer")}
            metrics.update(_layer_metrics(outcomes, before, after))
            metrics["serve.polls_per_s"] = loop.polls / loop.span_s
        else:
            metrics = _metrics(outcomes, events)
            metrics["setup_s"] = common.median(boots)
            metrics["peak_rss_mb"] = peak_rss
        return {"correct": failed == 0, "attempted": len(outcomes),
                "failed": failed, "metrics": metrics}
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)


def _metrics(outcomes: Sequence[Outcome], events: dict) -> dict[str, float]:
    latencies = [outcome.latency_ms for outcome in outcomes]
    simulated = [o for o in outcomes if o.status == "done"
                 and not o.deduplicated and o.cache_hit is False]
    replayed = [o for o in outcomes if o.status == "done"
                and not o.deduplicated and o.cache_hit is True]
    if not simulated or not replayed:
        raise RuntimeError(
            f"the mix needs cold and replayed requests; got "
            f"{len(simulated)} cold, {len(replayed)} replayed")
    tail = common.tail_percentile(len(latencies))
    common.log(f"serve-open-loop: {len(outcomes)} requests at {RATE}/s, "
               f"{len(simulated)} simulated, {len(replayed)} replayed, "
               f"latency tail p{tail:g}")
    job_seconds = sum(o.wall_seconds or 0.0 for o in simulated)
    # Offered window: first due time to the last completion.
    span_s = (max(o.done for o in outcomes if o.status == "done")
              - min(o.due for o in outcomes))
    return {
        "cold_s": common.percentile(
            [o.latency_ms for o in simulated], 50.0) / 1000.0,
        "warm_s": common.percentile(
            [o.latency_ms for o in replayed], 50.0) / 1000.0,
        "events_per_s": sum(events[o.planned.key] for o in simulated)
        / job_seconds,
        "p50_ms": common.percentile(latencies, 50.0),
        "tail_ms": common.percentile(latencies, tail),
        "goodput_rps": sum(1 for value in latencies
                           if value <= LATENCY_LIMIT_MS) / span_s,
    }


def _layer_metrics(outcomes: Sequence[Outcome], before: dict,
                   after: dict) -> dict[str, float]:
    done = [o for o in outcomes if o.status == "done"]
    submitted = [o for o in outcomes if o.job_id is not None]
    jobs = (_counter_delta(before, after, "completed")
            + _counter_delta(before, after, "failed"))
    batches = _counter_delta(before, after, "batches")
    return {
        "serve.submit_ms": common.percentile(
            [(o.acked - o.sent) * 1000.0 for o in submitted], 50.0),
        "serve.job_ms": common.percentile(
            [(o.wall_seconds or 0.0) * 1000.0 for o in done], 50.0),
        "serve.queue_ms": common.percentile(
            [o.latency_ms - (o.wall_seconds or 0.0) * 1000.0 for o in done],
            50.0),
        "serve.dedup_ratio": common.ratio(
            sum(1 for o in submitted if o.deduplicated), len(outcomes)),
        "serve.cache_hit_ratio": common.ratio(
            sum(1 for o in done if o.cache_hit), len(done)),
        "serve.refused": float(sum(1 for o in outcomes
                                   if o.status == "refused")),
        "serve.batch_cells_mean": common.ratio(jobs, batches),
        "serve.gen_late_ms": common.percentile(
            [(o.sent - o.due) * 1000.0 for o in outcomes], 99.0),
    }
