"""The per-layer metrics of a traced run, from spans and stats() counters.

Closed-loop workloads normalise span times and counts per round (one
pass over the workload's dashboards and interactions); serving workloads
normalise per request.  Registration, statistics, IVM view builds and
data generation are reported per call.
"""

from __future__ import annotations

#: (name, unit) of the per-layer metrics of the gated workloads (the
#: ``per_layer`` list of BENCHMARK.json), in report order.
PER_LAYER = [
    ("core.enumerate_s", "s"),
    ("core.plans", "count"),
    ("core.encode_s", "s"),
    ("core.consolidate_s", "s"),
    ("core.compare_calls", "count"),
    ("expr.parse_s", "s"),
    ("expr.parse_calls", "count"),
    ("dataflow.eval_s", "s"),
    ("rewrite.vdt_s", "s"),
    ("net.serve_s", "s"),
    ("net.client_hit_ratio", "ratio"),
    ("net.server_hit_ratio", "ratio"),
    ("sql.execute_s", "s"),
    ("sql.queries_executed", "count"),
    ("sql.plan_cache_hit_ratio", "ratio"),
    ("sql.template_hit_ratio", "ratio"),
    ("sql.ivm_hit_ratio", "ratio"),
    ("sql.rows_scanned_per_row_returned", "ratio"),
    ("sql.ivm_invalidations", "count"),
    ("sql.ivm_rebuild_s", "s"),
    ("storage.register_s", "s"),
    ("storage.statistics_s", "s"),
    ("storage.resultset_bytes", "B"),
    ("datasets.generate_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
]

#: Layers only the serving tier reaches; reported by ``serve_shared``.
SERVING_LAYERS = [
    ("net.frame_encode_s", "s"),
    ("net.frame_decode_s", "s"),
    ("net.frame_bytes", "B"),
    ("server.admission_wait_ms", "ms"),
    ("server.scheduler_wait_ms", "ms"),
    ("server.coalesced_ratio", "ratio"),
    ("server.shed", "count"),
    ("loadgen.lag_ms", "ms"),
]

#: Metrics reported as the span's self time (its time minus its children).
_SELF_TIME = {
    "dataflow.eval_s": "dataflow.eval",
    "rewrite.vdt_s": "rewrite.vdt",
    "net.serve_s": "net.serve",
    "sql.execute_s": "sql.execute",
}
#: Metrics reported as the span's whole time.
_TOTAL_TIME = {
    "core.enumerate_s": "core.enumerate",
    "core.encode_s": "core.encode",
    "core.consolidate_s": "core.consolidate",
    "expr.parse_s": "expr.parse",
    "net.frame_encode_s": "net.frame_encode",
    "net.frame_decode_s": "net.frame_decode",
}
#: Metrics reported as seconds per call.
_PER_CALL = {
    "sql.ivm_rebuild_s": "sql.ivm_rebuild",
    "storage.register_s": "storage.register",
    "storage.statistics_s": "storage.statistics",
    "datasets.generate_s": "datasets.generate",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    totals: dict[str, dict[str, float]],
    counters: dict[str, float],
    engine: dict[str, float],
    per: float,
    extra: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric; ``per`` is the number of rounds or requests."""
    out: dict[str, float] = {}

    def span(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    for metric, name in _SELF_TIME.items():
        out[metric] = _ratio(span(name, "self_s"), per)
    for metric, name in _TOTAL_TIME.items():
        out[metric] = _ratio(span(name, "total_s"), per)
    for metric, name in _PER_CALL.items():
        out[metric] = _ratio(span(name, "total_s"), span(name, "calls"))
    for metric in ("core.plans", "core.compare_calls", "expr.parse_calls", "net.frame_bytes"):
        out[metric] = _ratio(counters.get(metric, 0.0), per)
    served = counters.get("net.served", 0.0)
    client_hits = counters.get("net.client_hits", 0.0)
    out["net.client_hit_ratio"] = _ratio(client_hits, served)
    out["net.server_hit_ratio"] = _ratio(counters.get("net.server_hits", 0.0), served - client_hits)
    out["storage.resultset_bytes"] = _ratio(
        counters.get("storage.resultset_bytes", 0.0), counters.get("storage.resultsets", 0.0)
    )
    executed = engine.get("queries_executed", 0.0)
    out["sql.queries_executed"] = _ratio(executed, per)
    out["sql.plan_cache_hit_ratio"] = _ratio(
        engine.get("plan_cache_hits", 0.0),
        engine.get("plan_cache_hits", 0.0) + engine.get("plan_cache_misses", 0.0),
    )
    out["sql.template_hit_ratio"] = _ratio(
        engine.get("plan_template_hits", 0.0),
        engine.get("plan_template_hits", 0.0) + engine.get("plan_template_misses", 0.0),
    )
    out["sql.ivm_hit_ratio"] = _ratio(engine.get("ivm_hits", 0.0), executed)
    out["sql.rows_scanned_per_row_returned"] = _ratio(
        counters.get("sql.rows_scanned", 0.0), counters.get("sql.rows_returned", 0.0)
    )
    out["sql.ivm_invalidations"] = _ratio(engine.get("ivm_invalidations", 0.0), per)
    for metric in (
        "server.admission_wait_ms",
        "server.scheduler_wait_ms",
        "server.coalesced_ratio",
        "server.shed",
        "loadgen.lag_ms",
        "trace.overhead_ratio",
        "trace.coverage_ratio",
    ):
        out[metric] = float(extra.get(metric, 0.0))
    return out
