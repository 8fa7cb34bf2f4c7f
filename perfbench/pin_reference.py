"""Regenerate the digests the benchmark pins for the default seed.

    python3 perfbench/pin_reference.py

Writes ``perfbench/reference/related-grid.json`` (every cell of the
grid) and ``perfbench/reference/serve-open-loop.json`` (every distinct
request of the default seed's plan at BENCHMARK.json's run length),
each simulated in-process.  ``fig14-grid`` needs no file here: it is
checked against the committed BENCH_sim_hotpath.json.  Re-pin only when
a change is meant to alter simulated results, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402


def _write(name: str, digests: dict[str, str]) -> None:
    common.REFERENCE.mkdir(parents=True, exist_ok=True)
    path = common.REFERENCE / f"{name}.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(digests)} digests to {path}")


def pin_related_grid() -> None:
    from perfbench import grids
    from repro.harness.bench import result_digest

    spec = grids.grid_spec("related-grid")
    with tempfile.TemporaryDirectory() as cache_dir:
        grid = grids._runner(common.DEFAULT_SEED, Path(cache_dir)).run_grid(
            spec.workloads, spec.prefetchers)
    _write(spec.name, {
        f"{w}|{p}": result_digest(grid.get(w, p))
        for w in spec.workloads for p in spec.prefetchers})


def pin_serve() -> None:
    from perfbench import serving
    from repro.harness.bench import result_digest

    seconds = common.load_benchmark()["run_seconds"]
    plan = serving.serve_plan(common.DEFAULT_SEED, seconds, serving.RATE)
    digests = {}
    for item in plan:
        label = "|".join(map(str, item.key))
        if label in digests:
            continue
        result, _ = serving.simulate_in_process(item)
        digests[label] = result_digest(result)
    _write("serve-open-loop", digests)


if __name__ == "__main__":
    common.use_program_source()
    pin_related_grid()
    pin_serve()
