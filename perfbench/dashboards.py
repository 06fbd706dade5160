"""Closed-loop dashboard workloads on the embedded backend, in-process.

``dashboards``: each of the seven templates is bound to ``flights``,
opened (``optimize()`` with one anticipated interaction from its session,
then ``initialize()``) and driven through a fixed list of sampled
interactions.  ``dashboard_refresh``: the crossfilter dashboard over the
largest table, with a write (``register_rows(..., replace=True)``) and a
``refresh()`` after every block of interactions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from perfbench.common import RunResult, SpeedNormalizer, median, same_dataset, tail_p95
from repro.backends import create_backend
from repro.bench.templates import template_names
from repro.bench.workload import WorkloadGenerator
from repro.core.enumerator import PlanEnumerator
from repro.core.system import VegaPlusSystem
from repro.datasets import generators

#: Rows of ``flights`` behind the seven dashboards.
DASHBOARD_ROWS = 20_000
#: Sampled interactions per interactive template per round (5 templates).
INTERACTIONS_PER_TEMPLATE = 48
#: Seed of the field bindings and interaction lists (the same for every seed).
BINDING_SEED = 0
#: Anticipated interactions handed to ``optimize()`` (from the session).
ANTICIPATED = 1

#: Rows of the base table of ``dashboard_refresh`` (the largest table).
REFRESH_ROWS = 40_000
#: Rows in each written batch.
REFRESH_BATCH_ROWS = 2_000
#: Interactions between two writes.
REFRESH_INTERACTIONS = 50
#: Fewest rounds of a run, so interact_p95_ms has ten samples beyond it.
REFRESH_MIN_ROUNDS = 4
#: Set-up repetitions; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The fault behind every failed ``dashboard_refresh`` read.
STALE_FAULT = (
    "stale read after write: MiddlewareServer's server cache and the client "
    "caches key on '<backend>::<sql>' and never subscribe to "
    "Catalog.add_invalidation_listener, so refresh() after "
    "register_rows(..., replace=True) serves pre-write rows"
)


@dataclass
class Dashboard:
    """One template bound to ``flights`` with its fixed interaction list."""

    name: str
    spec: dict
    interactions: list[dict[str, object]]


def bind_dashboards(names: list[str], n_interactions: int) -> list[Dashboard]:
    """Bind each template and sample its interactions.

    Field bindings and interaction lists are fixed (drawn from
    BINDING_SEED), so every seed opens the same seven dashboards and
    drives them through the same interactions; ``seed`` drives the
    generated rows in the callers.
    """
    generator = WorkloadGenerator(seed=BINDING_SEED)
    out = []
    for index, name in enumerate(names):
        instance = generator.instantiate(name, "flights")
        rng = np.random.default_rng([BINDING_SEED, index])
        interactions = (
            [instance.sample_interaction(rng) for _ in range(n_interactions)]
            if instance.bound.interactive else []
        )
        out.append(Dashboard(name, instance.spec, interactions))
    return out


def build_backend(rows: list[dict]):
    backend = create_backend("embedded", keep_query_log=False)
    backend.register_rows("flights", rows)
    return backend


def timed_setup(n_rows: int, seed: int) -> tuple[float, list[dict], object]:
    """Generate and register the table SETUP_REPEATS times; median seconds
    (rescaled to the reference host speed)."""
    samples: list[float] = []
    speed = SpeedNormalizer()
    rows = backend = None
    for _ in range(SETUP_REPEATS):
        if backend is not None:
            backend.close()
        speed.checkpoint()
        start = time.perf_counter()
        rows = generators.generate_dataset("flights", n_rows, seed=seed)
        backend = build_backend(rows)
        speed.add(samples.append, time.perf_counter() - start)
    speed.finish()
    return median(samples), rows, backend


def datasets(system: VegaPlusSystem) -> dict[str, list[dict]]:
    dataflow = system.rewritten.dataflow
    return {name: [dict(row) for row in dataflow.dataset(name)] for name in dataflow.dataset_names()}


def all_client_views(
    dashboard: Dashboard, backend, interactions: list[dict[str, object]] | None
) -> tuple[dict[str, list[dict]], dict[str, list[dict]] | None]:
    """Datasets of the all-client plan: first render, then after ``interactions``.

    No SQL beyond the base-table fetch and no cache: the reference the
    chosen plan's datasets must equal.
    """
    system = VegaPlusSystem(dashboard.spec, backend, enable_cache=False)
    system.use_plan(PlanEnumerator(system.spec).all_client_plan())
    system.initialize()
    first = datasets(system)
    if not interactions:
        return first, None
    merged: dict[str, object] = {}
    for interaction in interactions:
        merged.update(interaction)
    system.interact(merged)
    return first, datasets(system)


def check_views(result: RunResult, label: str, actual: dict, expected: dict) -> None:
    """Every dataset the chosen plan renders must equal the reference's.

    The all-client plan also materialises intermediate datasets (the raw
    source) that a plan with server-side operators never fetches; those
    are not rendered and not compared.
    """
    for name, rows in actual.items():
        if name not in expected:
            result.fail_check(f"{label}: dataset {name!r} missing from the reference")
        elif not same_dataset(rows, expected[name]):
            result.fail_check(f"{label}: dataset {name!r} differs from the all-client plan")


# --------------------------------------------------------------------------- #
@dataclass
class Loop:
    """Samples of one measured loop (several rounds), rescaled to the
    reference host speed by :class:`SpeedNormalizer`."""

    rounds: int = 0
    open_s: list[float] = field(default_factory=list)
    interact_s: list[float] = field(default_factory=list)
    per_dashboard: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    engine: dict[str, float] = field(default_factory=dict)
    #: Unscaled interaction time, and the part of it covered by top-level spans.
    raw_interact_s: float = 0.0
    covered_s: float = 0.0
    speed: SpeedNormalizer = field(default_factory=SpeedNormalizer)
    #: Unscaled samples by kind, for the run's description.
    raw: dict[str, list[float]] = field(default_factory=dict)

    def add_engine(self, stats: dict[str, float]) -> None:
        for key, value in stats.items():
            self.engine[key] = self.engine.get(key, 0.0) + value

    def record(self, dashboard: str, kind: str, seconds: float, *sinks) -> None:
        """Queue one measured time; rescaled, it joins the per-dashboard
        samples and is handed to each of ``sinks``."""

        def sink(value: float) -> None:
            self.per_dashboard.setdefault(dashboard, {}).setdefault(kind, []).append(value)
            for extra in sinks:
                extra(value)

        self.raw.setdefault(kind, []).append(seconds)

        self.speed.add(sink, seconds)


def timed_interact(system: VegaPlusSystem, dashboard: str, interaction: dict, loop: Loop, tracer) -> None:
    if tracer is not None:
        tracer.begin_request()
        since = len(tracer.spans)
    start = time.perf_counter()
    system.interact(interaction)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end_request()
        loop.covered_s += tracer.top_level_seconds(since)
    loop.raw_interact_s += elapsed
    loop.record(dashboard, "interact_s", elapsed, loop.interact_s.append)


def dashboard_round(dashboards: list[Dashboard], rows: list[dict], loop: Loop, tracer=None):
    """Open every dashboard on a fresh backend and drive its interactions.

    Returns each dashboard's datasets after its first render and after
    its last interaction.
    """
    backend = build_backend(rows)
    views: dict[str, tuple[dict, dict]] = {}
    try:
        loop.open_s.append(0.0)
        round_index = len(loop.open_s) - 1

        def add_open(value: float) -> None:
            loop.open_s[round_index] += value

        for dashboard in dashboards:
            system = VegaPlusSystem(dashboard.spec, backend)
            loop.speed.checkpoint()
            start = time.perf_counter()
            system.optimize(anticipated_interactions=dashboard.interactions[:ANTICIPATED] or None)
            system.initialize()
            loop.record(dashboard.name, "open_s", time.perf_counter() - start, add_open)
            loop.speed.checkpoint()
            first = datasets(system)
            for interaction in dashboard.interactions:
                timed_interact(system, dashboard.name, interaction, loop, tracer)
            loop.speed.checkpoint()
            views[dashboard.name] = (first, datasets(system))
        loop.rounds += 1
        loop.add_engine(backend.stats())
    finally:
        backend.close()
    return views


@dataclass
class Outcome:
    """A workload run: its result, the measured loop and, when traced, the
    untraced reference loop and the tracer."""

    result: RunResult
    loop: Loop
    reference: Loop | None = None
    tracer: object = None


def traced(tracer, fn, *args):
    """Run ``fn(*args)`` with ``tracer`` installed (when one is given)."""
    if tracer is None:
        return fn(*args)
    tracer.install()
    try:
        return fn(*args)
    finally:
        tracer.uninstall()


def run_rounds(seconds: float, min_rounds: int, round_fn) -> Loop:
    """Call ``round_fn(loop)`` for whole rounds until ``seconds`` are used.

    A further round starts only when the previous one's duration still
    fits, so a run ends close to ``seconds`` without cutting a round.
    """
    loop = Loop()
    began = time.perf_counter()
    last = 0.0
    while loop.rounds < min_rounds or time.perf_counter() - began + last <= seconds:
        start = time.perf_counter()
        round_fn(loop)
        last = time.perf_counter() - start
    loop.speed.finish()
    return loop


def run_dashboards(seed: int, seconds: float, tracer=None) -> Outcome:
    """The ``dashboards`` workload.

    With ``tracer``, half of ``seconds`` runs untraced (the reference for
    the tracing overhead) and half traced.
    """
    result = RunResult()
    setup_s, rows, backend = traced(tracer, timed_setup, DASHBOARD_ROWS, seed)
    backend.close()
    dashboards = bind_dashboards(template_names(), INTERACTIONS_PER_TEMPLATE)
    rounds: list[dict] = []

    def one_round(loop: Loop, active=None) -> None:
        rounds.append(dashboard_round(dashboards, rows, loop, active))

    reference = None
    if tracer is not None:
        reference = run_rounds(seconds / 2, 1, one_round)
        loop = traced(tracer, run_rounds, seconds / 2, 1, lambda lp: one_round(lp, tracer))
    else:
        loop = run_rounds(seconds, 1, one_round)
    result.attempted = len(rounds) * sum(1 + len(d.interactions) for d in dashboards)

    # Correctness, outside the timed sections: the chosen plans' datasets
    # equal the all-client plan's after the first render and after the
    # interactions; every later round repeats the first round's outputs.
    check_backend = build_backend(rows)
    try:
        for dashboard in dashboards:
            first, final = all_client_views(dashboard, check_backend, dashboard.interactions)
            got_first, got_final = rounds[0][dashboard.name]
            check_views(result, f"{dashboard.name} first render", got_first, first)
            if final is not None:
                check_views(result, f"{dashboard.name} after interactions", got_final, final)
    finally:
        check_backend.close()
    for index, later in enumerate(rounds[1:], start=1):
        for dashboard in dashboards:
            check_views(result, f"{dashboard.name} round {index}", later[dashboard.name][1], rounds[0][dashboard.name][1])

    closed_loop_metrics(result, setup_s, loop, tail=tracer is None)
    breakdown = {
        name: {kind: round(median(values) * 1e3, 2) for kind, values in samples.items()}
        for name, samples in loop.per_dashboard.items()
    }
    result.notes.append(f"rounds={loop.rounds} interactions={len(loop.interact_s)} median_ms_by_dashboard={breakdown}")
    result.notes.append(raw_note(loop))
    return Outcome(result, loop, reference, tracer)


def raw_note(loop: Loop) -> str:
    """Unscaled medians and the speed factors applied, for the run's description."""
    medians = {kind: round(median(values) * 1e3, 3) for kind, values in loop.raw.items()}
    return f"unscaled median ms {medians}; {loop.speed.describe()}"


def closed_loop_metrics(result: RunResult, setup_s: float, loop: Loop, tail: bool = True) -> None:
    result.metric("setup_s", setup_s, "s")
    result.metric("open_s", median(loop.open_s), "s")
    result.metric("interact_p50_ms", median(loop.interact_s) * 1e3, "ms")
    if tail:  # a traced half-run may hold too few samples for a p95
        result.metric("interact_p95_ms", tail_p95(loop.interact_s) * 1e3, "ms")
    # One analyst's closed loop: interactions completed per second of
    # interaction time.
    result.metric("capacity_rps", len(loop.interact_s) / sum(loop.interact_s), "1/s")


# --------------------------------------------------------------------------- #
def run_refresh(seed: int, seconds: float, tracer=None) -> Outcome:
    """The ``dashboard_refresh`` workload (traced like :func:`run_dashboards`)."""
    result = RunResult()
    setup_s, rows, backend = traced(tracer, timed_setup, REFRESH_ROWS, seed)
    dashboard = bind_dashboards(["crossfilter"], REFRESH_INTERACTIONS)[0]
    speed = SpeedNormalizer()
    opening: list[float] = []
    start = time.perf_counter()
    opened = VegaPlusSystem(dashboard.spec, backend)
    opened.optimize(anticipated_interactions=dashboard.interactions[:ANTICIPATED])
    opened.initialize()
    speed.add(opening.append, time.perf_counter() - start)
    for _ in range(5):  # checkpoints after the open, for the speed window
        speed.checkpoint()
    speed.finish()
    setup_s += opening[0]
    plan = opened.plan
    refreshes = 0
    stale_reads = 0

    def one_round(loop: Loop, active=None) -> None:
        nonlocal refreshes, stale_reads
        index = refreshes
        batch = generators.generate_dataset("flights", REFRESH_BATCH_ROWS, seed=seed * 1000 + index + 1)
        written = rows + batch
        # Each round re-attaches the dashboard (fresh client and server
        # caches) with the plan chosen at set-up, so its interactions
        # never read results cached before the previous write.
        system = VegaPlusSystem(dashboard.spec, backend)
        system.use_plan(plan)
        system.initialize()
        for interaction in dashboard.interactions:
            timed_interact(system, dashboard.name, interaction, loop, active)
        before = datasets(system)
        if index == 0:
            _, expected = all_client_views(dashboard, backend, dashboard.interactions)
            check_views(result, "before the first write", before, expected)
        loop.speed.checkpoint()
        start = time.perf_counter()
        backend.register_rows("flights", written, replace=True)
        system.refresh()
        loop.record(dashboard.name, "refresh_s", time.perf_counter() - start, loop.open_s.append)
        loop.speed.checkpoint()
        after = datasets(system)
        refreshes += 1
        if any(same_dataset(after[name], before[name]) for name in after):
            stale_reads += 1
        else:
            _, expected = all_client_views(dashboard, backend, dashboard.interactions)
            check_views(result, f"after write {index}", after, expected)
        loop.rounds += 1

    reference = None
    if tracer is not None:
        reference = run_rounds(seconds / 2, 1, one_round)
    engine_before = backend.stats()
    if tracer is not None:
        loop = traced(tracer, run_rounds, seconds / 2, 1, lambda lp: one_round(lp, tracer))
    else:
        loop = run_rounds(seconds, REFRESH_MIN_ROUNDS, one_round)
    loop.add_engine({key: value - engine_before.get(key, 0.0) for key, value in backend.stats().items()})
    backend.close()
    result.attempted = refreshes * (REFRESH_INTERACTIONS + 1)
    result.failed = stale_reads
    if stale_reads:
        result.notes.append(f"failed={stale_reads} of {refreshes} refreshes: {STALE_FAULT}")
    closed_loop_metrics(result, setup_s, loop, tail=tracer is None)
    result.notes.append(
        f"rounds={loop.rounds} interactions={len(loop.interact_s)} plan={plan.describe(opened.spec)}"
    )
    result.notes.append(raw_note(loop))
    return Outcome(result, loop, reference, tracer)
