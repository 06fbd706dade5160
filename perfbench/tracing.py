"""Span tracing installed from outside the program.

A :class:`Tracer` wraps the public entry points of each layer (class
methods and module-level functions, patched in place and restored after)
and records one span per call: name, start, end, parent span and request
id.  Spans nest per thread; a query the request scheduler runs on its
pool thread is parented to the span that submitted it.  A layer's self
time is its spans' time minus the time of their child spans.

Inside the shard workers the same wrappers are installed by
:func:`traced_backend`, the ``ShardSpec.backend_factory`` of a traced
serving run; each worker writes its span totals and engine counters to
a JSON file when the worker closes its backend.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable

#: Span name -> (owner, attribute) of every traced entry point.  Owners
#: are given as "module:Class" or "module" (for module-level functions).
SYNC_TARGETS: dict[str, list[tuple[str, str]]] = {
    "core.enumerate": [("repro.core.enumerator:PlanEnumerator", "enumerate")],
    "core.encode": [("repro.core.optimizer:VegaPlusOptimizer", "encode_candidates")],
    "core.consolidate": [("repro.core.consolidation", "consolidate_session")],
    "expr.parse": [("repro.expr.parser", "parse_expression")],
    "dataflow.eval": [
        ("repro.dataflow.graph:Dataflow", "run"),
        ("repro.dataflow.graph:Dataflow", "update_signals"),
    ],
    "rewrite.vdt": [("repro.rewrite.vdt:VegaDBMSTransform", "evaluate")],
    "net.serve": [("repro.net.middleware:MiddlewareServer", "serve")],
    "sql.execute": [("repro.backends.embedded:EmbeddedBackend", "execute")],
    "storage.register": [("repro.backends.embedded:EmbeddedBackend", "register_rows")],
    "storage.statistics": [("repro.storage.catalog", "compute_table_statistics")],
    "sql.ivm_rebuild": [("repro.sql.ivm:MaterializedView", "build")],
    "datasets.generate": [("repro.datasets.generators", "generate_dataset")],
    "net.frame_encode": [("repro.net.serialize", "encode_frame")],
    "net.frame_decode": [("repro.net.serialize", "decode_frame_sections")],
}

#: Async entry points on the gateway's event loop (no nesting tracked).
ASYNC_TARGETS: dict[str, list[tuple[str, str]]] = {
    "gateway.execute": [("repro.server.shard:AsyncGateway", "execute")],
    "server.admission": [("repro.server.shard:AdmissionController", "acquire")],
}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
    return getattr(module, class_name) if class_name else module


class Tracer:
    """In-memory span recorder with patch/unpatch of the traced layers."""

    def __init__(self) -> None:
        #: (span id, name, start, end, parent id, request id)
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._flight_parents: dict[str, tuple[int | None, int | None]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------ #
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.base = (None, None)
        return local

    def begin_request(self) -> None:
        """Start a new request id on this thread (closed-loop drivers)."""
        self._state().base = (None, next(self._requests))

    def end_request(self) -> None:
        self._state().base = (None, None)

    def current(self) -> tuple[int | None, int | None]:
        local = self._state()
        if local.stack:
            return local.stack[-1]
        return local.base

    def _enter(self) -> tuple[int, int | None, int | None]:
        local = self._state()
        parent, request = local.stack[-1] if local.stack else local.base
        if request is None:
            request = next(self._requests)
        span_id = next(self._ids)
        local.stack.append((span_id, request))
        return span_id, parent, request

    def _exit(self) -> None:
        self._state().stack.pop()

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, request = tracer._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._exit()
                tracer.spans.append((span_id, name, start, end, parent, request))
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.spans.append(
                    (next(tracer._ids), name, start, time.perf_counter(), None, None)
                )

        return traced

    # -- installation ----------------------------------------------------- #
    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> "Tracer":
        """Wrap every traced entry point; :meth:`uninstall` restores them."""
        hooks = _RESULT_HOOKS
        for name, targets in SYNC_TARGETS.items():
            for owner_name, attribute in targets:
                owner = _resolve(owner_name)
                raw = owner.__dict__[attribute]
                if isinstance(raw, classmethod):
                    self._patch(owner, attribute, classmethod(self.wrap(name, raw.__func__, hooks.get(name))))
                elif isinstance(owner, type):
                    self._patch(owner, attribute, self.wrap(name, raw, hooks.get(name)))
                else:
                    # A module-level function is also bound by name in every
                    # module that imported it; patch each of those bindings.
                    wrapped = self.wrap(name, raw, hooks.get(name))
                    for module_name, module in list(sys.modules.items()):
                        if module_name.startswith("repro") and module.__dict__.get(attribute) is raw:
                            self._patch(module, attribute, wrapped)
        for name, targets in ASYNC_TARGETS.items():
            for owner_name, attribute in targets:
                owner = _resolve(owner_name)
                self._patch(owner, attribute, self.wrap_async(name, owner.__dict__[attribute]))
        self._install_counters()
        return self

    def _install_counters(self) -> None:
        from repro.core.comparators import HeuristicComparator
        from repro.server.scheduler import RequestScheduler

        tracer = self
        compare = HeuristicComparator.__dict__["compare"]

        def counted_compare(comparator, first, second):
            tracer.counters["core.compare_calls"] += 1
            return compare(comparator, first, second)

        self._patch(HeuristicComparator, "compare", counted_compare)

        run = RequestScheduler.__dict__["run"]
        lead = RequestScheduler.__dict__["_lead"]

        def traced_run(scheduler, key, fn):
            tracer._flight_parents[key] = tracer.current()
            return run(scheduler, key, fn)

        def traced_lead(scheduler, key, fn, future):
            # The flight's leader runs on the pool thread: parent its spans
            # to the span that submitted the flight.
            local = tracer._state()
            saved = local.base
            local.base = tracer._flight_parents.pop(key, (None, None))
            try:
                return lead(scheduler, key, fn, future)
            finally:
                local.base = saved

        self._patch(RequestScheduler, "run", traced_run)
        self._patch(RequestScheduler, "_lead", traced_lead)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------- #
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for _span_id, _name, start, end, parent, _request in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "total_s": 0.0, "self_s": 0.0}
        )
        for span_id, name, start, end, _parent, _request in self.spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += max(end - start - child_time.get(span_id, 0.0), 0.0)
        return dict(totals)

    def top_level_seconds(self, since: int = 0) -> float:
        """Total time of parentless spans recorded after index ``since``."""
        return sum(
            end - start
            for _id, _name, start, end, parent, _request in self.spans[since:]
            if parent is None
        )


def _on_sql_result(tracer: Tracer, result) -> None:
    tracer.counters["sql.rows_scanned"] += result.stats.rows_scanned
    tracer.counters["sql.rows_returned"] += result.table.num_rows


def _on_serve_result(tracer: Tracer, response) -> None:
    tracer.counters["net.served"] += 1
    if response.cache_level == "client":
        tracer.counters["net.client_hits"] += 1
    elif response.cache_level == "server":
        tracer.counters["net.server_hits"] += 1
    nbytes = getattr(response.result, "nbytes", None)
    if nbytes is not None:
        tracer.counters["storage.resultset_bytes"] += nbytes
        tracer.counters["storage.resultsets"] += 1


def _on_plans(tracer: Tracer, plans) -> None:
    tracer.counters["core.plans"] += len(plans)


def _on_parse(tracer: Tracer, _node) -> None:
    tracer.counters["expr.parse_calls"] += 1


def _on_frame(tracer: Tracer, frame) -> None:
    tracer.counters["net.frame_bytes"] += len(frame)
    tracer.counters["net.frames"] += 1


_RESULT_HOOKS: dict[str, Callable] = {
    "sql.execute": _on_sql_result,
    "net.serve": _on_serve_result,
    "core.enumerate": _on_plans,
    "expr.parse": _on_parse,
    "net.frame_encode": _on_frame,
}


# --------------------------------------------------------------------------- #
# Shard-worker side
# --------------------------------------------------------------------------- #
def traced_backend(n_rows: int, seed: int, span_dir: str):
    """``ShardSpec.backend_factory`` of a traced run (use via functools.partial).

    Installs a tracer in the worker process, builds the same embedded
    backend over the same generated rows as an untraced worker, and
    writes the worker's span totals, counters and engine stats to
    ``span_dir`` when the worker closes the backend.
    """
    from repro.backends import create_backend
    from repro.datasets import generators

    tracer = Tracer().install()
    backend = create_backend("embedded", keep_query_log=False)
    backend.register_rows("flights", generators.generate_dataset("flights", n_rows, seed=seed))
    close = backend.close

    def close_and_flush() -> None:
        report = {
            "pid": os.getpid(),
            "totals": tracer.totals(),
            "counters": dict(tracer.counters),
            "engine": backend.stats(),
        }
        path = os.path.join(span_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
        tracer.uninstall()
        close()

    backend.close = close_and_flush
    return backend


def merge_worker_reports(span_dir: str) -> tuple[dict, dict, dict]:
    """Sum the worker files of ``span_dir``: (totals, counters, engine)."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "total_s": 0.0, "self_s": 0.0}
    )
    counters: dict[str, float] = defaultdict(float)
    engine: dict[str, float] = defaultdict(float)
    for name in sorted(os.listdir(span_dir)):
        if not name.startswith("worker-"):
            continue
        with open(os.path.join(span_dir, name), encoding="utf-8") as handle:
            report = json.load(handle)
        for span, entry in report["totals"].items():
            for key, value in entry.items():
                totals[span][key] += value
        for key, value in report["counters"].items():
            counters[key] += value
        for key, value in report["engine"].items():
            engine[key] += value
    return dict(totals), dict(counters), dict(engine)
