"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload dashboards --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Lines before it
describe the run (rounds, per-dashboard breakdown, named faults).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("dashboards", "dashboard_refresh", "serve_shared")

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("open_s", "s"),
    ("interact_p50_ms", "ms"),
    ("interact_p95_ms", "ms"),
    ("capacity_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
]


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def closed_loop_layers(outcome) -> dict[str, float]:
    from perfbench.common import median
    from perfbench.layers import layer_metrics

    loop, tracer = outcome.loop, outcome.tracer
    extra = {
        "trace.overhead_ratio": median(loop.interact_s) / median(outcome.reference.interact_s),
        "trace.coverage_ratio": loop.covered_s / loop.raw_interact_s,
    }
    return layer_metrics(tracer.totals(), tracer.counters, loop.engine, loop.rounds, extra)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench.common import rss_peak_mib
    from perfbench.tracing import Tracer

    tracer = Tracer() if args.trace else None
    if args.workload in ("dashboards", "dashboard_refresh"):
        from perfbench.dashboards import run_dashboards, run_refresh

        runner = run_dashboards if args.workload == "dashboards" else run_refresh
        outcome = runner(args.seed, args.seconds, tracer)
        result = outcome.result
        worker_rss = 0.0
        layers = closed_loop_layers(outcome) if tracer is not None else None
    else:
        from perfbench.serving import run_serving

        outcome = run_serving(args.seed, args.seconds, tracer)
        result = outcome.result
        worker_rss = outcome.worker_rss_mb
        layers = outcome.layers

    for note in result.notes:
        print(note)
    if tracer is None:
        result.metric("peak_rss_mb", rss_peak_mib() + worker_rss, "MiB")
        result.metrics = {name: result.metrics[name] for name, _unit in END_TO_END}
    else:
        from perfbench.layers import PER_LAYER, SERVING_LAYERS

        names = PER_LAYER + (SERVING_LAYERS if args.workload == "serve_shared" else [])
        result.metrics = {name: (layers[name], unit) for name, unit in names}
    print(json.dumps(result.as_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
