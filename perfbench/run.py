"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload fig14-grid --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The program under test is imported
from ``src/`` of that checkout.  The metrics printed are the
``end_to_end`` ones of BENCHMARK.json with ``--trace 0`` and the
``per_layer`` ones with ``--trace 1``; perfbench/metrics.json defines
each of them per workload.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    benchmark = common.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.use_program_source()
    traced = bool(args.trace)
    if args.workload == "serve-open-loop":
        from perfbench import serving

        result = serving.run(args.seed, args.seconds, traced)
    else:
        from perfbench import grids

        result = grids.run(args.workload, args.seed, args.seconds, traced)

    units = common.metric_units("per_layer" if traced else "end_to_end")
    metrics = {}
    for name, unit in units.items():
        value = float(result["metrics"][name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<32} {value:>16.6g} {unit}")
    print(f"{args.workload}: {result['attempted']} operations attempted, "
          f"{result['failed']} failed")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
