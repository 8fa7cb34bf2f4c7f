"""Measure the serving capacity that sets ``serve-open-loop``'s rate.

    python3 perfbench/capacity.py --rates 8,16,24,32,40 --seconds 20

For each offered rate, boots a fresh ``repro serve`` exactly as the
workload does and offers the workload's mix open-loop at that rate for
``--seconds``.  Prints one line per rate: requests completed per second
(from the first due time to the last completion, so a backlog drains
into the figure), goodput within the latency limit, the median and
the highest latency, refusals and the poller's GETs per second.  The
capacity is the completion rate at which it stops rising with the
offered rate; ``serving.RATE`` is set to about half of it.  Results are
not checked here: the workload checks them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, serving  # noqa: E402


def measure(rate: float, seconds: float, seed: int) -> dict[str, float]:
    """One open-loop window at ``rate`` against a fresh server."""
    common.WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="capacity-", dir=common.WORK))
    server = serving.Server(work)
    try:
        server.start()
        loop = serving.open_loop(server.client())
        outcomes = loop.run(serving.serve_plan(seed, seconds, rate))
    finally:
        server.stop()
        shutil.rmtree(work, ignore_errors=True)
    done = [o for o in outcomes if o.status == "done"]
    latencies = [o.latency_ms for o in outcomes]
    span_s = (max(o.done for o in done) - min(o.due for o in outcomes)
              if done else seconds)
    return {
        "offered_rps": rate,
        "requests": len(outcomes),
        "completed_rps": len(done) / span_s,
        "goodput_rps": sum(1 for value in latencies
                           if value <= serving.LATENCY_LIMIT_MS) / span_s,
        "p50_ms": common.percentile(latencies, 50.0),
        "max_ms": max(latencies),
        "refused": sum(1 for o in outcomes if o.status == "refused"),
        "polls_per_s": loop.polls / loop.span_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rates", default="8,16,24,32,40",
                        help="comma-separated offered rates, requests/s")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    args = parser.parse_args(argv)

    common.use_program_source()
    for rate in (float(text) for text in args.rates.split(",")):
        row = measure(rate, args.seconds, args.seed)
        print(json.dumps({key: round(value, 3)
                          for key, value in row.items()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
