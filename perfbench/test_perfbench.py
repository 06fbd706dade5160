"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import os
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench.common import same_dataset  # noqa: E402
from perfbench.oracle import SqliteOracle  # noqa: E402
from perfbench.serving import open_loop  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from repro.backends import create_backend  # noqa: E402
from repro.datasets.generators import generate_dataset  # noqa: E402
from repro.errors import OverloadError  # noqa: E402

QUERY = (
    "SELECT carrier, COUNT(*) AS n, SUM(distance) AS total_distance, AVG(delay) AS avg_delay "
    "FROM flights WHERE dep_delay >= 10 AND dep_delay < 60 GROUP BY carrier ORDER BY carrier"
)


@pytest.fixture(scope="module")
def served_rows():
    rows = generate_dataset("flights", 3_000, seed=7)
    backend = create_backend("embedded", keep_query_log=False)
    backend.register_rows("flights", rows)
    answer = backend.execute(QUERY).to_rows()
    backend.close()
    oracle = SqliteOracle("flights", rows)
    yield oracle, answer
    oracle.close()


def test_oracle_accepts_the_engine_answer(served_rows):
    oracle, answer = served_rows
    assert oracle.matches(QUERY, answer)


@pytest.mark.parametrize(
    "column, change",
    [("n", lambda v: v + 1), ("total_distance", lambda v: v - 1), ("avg_delay", lambda v: v * (1 + 1e-6))],
)
def test_oracle_rejects_a_corrupted_row(served_rows, column, change):
    oracle, answer = served_rows
    corrupted = [dict(row) for row in answer]
    corrupted[len(corrupted) // 2][column] = change(corrupted[len(corrupted) // 2][column])
    assert not oracle.matches(QUERY, corrupted)


def test_oracle_rejects_reordered_or_missing_rows(served_rows):
    oracle, answer = served_rows
    assert not oracle.matches(QUERY, list(reversed(answer)))
    assert not oracle.matches(QUERY, answer[:-1])


def test_oracle_tolerates_float_rounding(served_rows):
    oracle, answer = served_rows
    nudged = [dict(row, avg_delay=row["avg_delay"] * (1 + 1e-12)) for row in answer]
    assert oracle.matches(QUERY, nudged)


def test_same_dataset_ignores_order_but_not_values():
    rows = [{"bin": 1, "count": 3.0}, {"bin": 2, "count": 5.0}]
    assert same_dataset(list(reversed(rows)), rows)
    assert not same_dataset([{"bin": 1, "count": 3.0}, {"bin": 2, "count": 6.0}], rows)


class _Reply:
    result = []


class _StallingGateway:
    """Answers after ``delay``; the first call blocks the event loop."""

    def __init__(self, stall: float, delay: float) -> None:
        self.stall = stall
        self.delay = delay
        self.calls = 0

    async def execute(self, session_id: str, sql: str):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall)  # a stall the generator cannot hide
        await asyncio.sleep(self.delay)
        return _Reply()


def test_open_loop_times_from_the_scheduled_arrival_and_reports_lag():
    gateway = _StallingGateway(stall=0.2, delay=0.01)
    requests = [("s", f"q{k}") for k in range(10)]
    phase = asyncio.run(open_loop(gateway, requests, rate=100.0))
    assert phase.completed == 10
    # Request k was due at k/100 s; the 0.2 s stall delayed every later
    # dispatch, and the generator reports that as lag ...
    assert phase.lag_s[0] < 0.05
    assert min(phase.lag_s[1:5]) > 0.1
    # ... and charges it to the sojourn, which starts at the due time.
    assert max(phase.sojourn_s) >= 0.2
    assert all(s >= 0.01 for s in phase.sojourn_s)


class _MixedGateway:
    async def execute(self, session_id: str, sql: str):
        index = int(sql[1:])
        if index % 5 == 0:
            raise OverloadError("shed")
        if index % 7 == 0:
            raise RuntimeError("boom")
        return _Reply()


def test_every_request_ends_exactly_once():
    requests = [("s", f"q{k}") for k in range(50)]
    phase = asyncio.run(open_loop(_MixedGateway(), requests, rate=1000.0))
    assert phase.attempted == 50
    assert phase.shed == 10 and phase.failed == 6
    assert phase.attempted == phase.completed + phase.shed + phase.failed
    assert len(phase.sojourn_s) == phase.completed == len(phase.answers)


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()

    def child():
        time.sleep(0.02)

    traced_child = tracer.wrap("child", child)

    def parent():
        time.sleep(0.01)
        traced_child()

    tracer.wrap("parent", parent)()
    totals = tracer.totals()
    assert totals["parent"]["total_s"] >= 0.03
    assert 0.009 <= totals["parent"]["self_s"] < 0.02
    assert totals["child"]["self_s"] >= 0.02
    assert tracer.top_level_seconds() == pytest.approx(totals["parent"]["total_s"])
