"""The ``serve_shared`` workload on the sharded serving tier (``AsyncGateway``).

Many sessions draw on a small shared pool of dashboard queries (a
cold-start burst, then a crossfilter storm), so the caches and
single-flight coalescing answer nearly every request and the gateway,
the shard wire and the scheduler do most of the work.

One asyncio generator offers requests at a fixed rate and times each
from its *scheduled* arrival (open loop).  A run measures the sojourn at
that rate, then how long a burst of new sessions takes to open the
dashboard, then the closed-loop throughput of CLIENTS concurrent
sessions.  Every answer is checked against
:class:`perfbench.oracle.SqliteOracle`.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from perfbench.common import RunResult, SpeedNormalizer, median, rss_peak_mib, tail_p95
from perfbench.layers import layer_metrics
from perfbench.oracle import SqliteOracle
from perfbench.tracing import merge_worker_reports, traced_backend
from repro.bench.concurrency import build_sessions
from repro.datasets import generators
from repro.errors import OverloadError
from repro.server.shard import AsyncGateway, ShardSpec, TableSpec

#: Rows of ``flights`` on every shard.
SERVING_ROWS = 40_000
#: Shard workers: one per core left over after the gateway's event loop
#: (one on a 2-core host).  Scheduler threads per shard.
N_SHARDS = max(1, (os.cpu_count() or 1) - 1)
SCHEDULER_THREADS = 2
#: Gateway admission: concurrent requests and queue depth.  The queue is
#: deep enough that neither the fixed rate nor a cold-start burst sheds
#: short of a multi-second stall.
MAX_INFLIGHT = 32
MAX_QUEUE = 1024
#: Gateway boots in set-up; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Concurrent closed-loop clients of the throughput phase (as many as
#: the gateway admits at once, so nothing queues or sheds).
CLIENTS = 32
#: Cold-start bursts timed for ``open_s`` (SESSIONS new sessions each).
OPEN_BURSTS = 8
#: Offered rate of the fixed-rate phase, requests per second (about a
#: fifth of the closed-loop throughput on the reference host; at lower
#: rates the tier idles between requests and wake-up delays make the
#: tail jump from run to run).
RATE = 800.0
#: Sessions per phase (each opens the dashboard, then crossfilters).
SESSIONS = 48


# --------------------------------------------------------------------------- #
# Request streams
# --------------------------------------------------------------------------- #
class SharedStream:
    """New sessions each phase: cold-start burst, then a crossfilter storm."""

    STORM_STEPS = 6

    def __init__(self, seed: int, sessions: int) -> None:
        self._seed = seed
        self._sessions = sessions
        self._phases = 0

    def batch(self, tag: str, n: int) -> list[tuple[str, str]]:
        self._phases += 1
        per_session = 4 + self.STORM_STEPS
        n_sessions = max(self._sessions, -(-n // per_session))
        burst = build_sessions("cold_start_burst", n_sessions, 4)
        storm = build_sessions("crossfilter_storm", n_sessions, self.STORM_STEPS, seed=self._seed + self._phases)
        requests = [
            (f"shared-{tag}-{index}", (burst[index] + storm[index])[step])
            for step in range(per_session)
            for index in range(n_sessions)
        ]
        return requests[:n]

    def opening(self, tag: str, index: int) -> list[tuple[str, str]]:
        return [(f"open-{tag}-{index}", sql) for sql in build_sessions("cold_start_burst", 1, 4)[0]]


# --------------------------------------------------------------------------- #
# The open-loop generator
# --------------------------------------------------------------------------- #
@dataclass
class Phase:
    """Outcome of one open-loop phase, one entry per request."""

    rate: float
    requests: list[tuple[str, str]]
    lag_s: list[float] = field(default_factory=list)
    sojourn_s: list[float] = field(default_factory=list)
    completed: int = 0
    shed: int = 0
    failed: int = 0
    #: Sojourns rescaled to the reference host speed (filled in by
    #: :meth:`SpeedNormalizer.finish`).
    scaled_s: list[float] = field(default_factory=list)
    #: (sql, result) of every completed request, checked after the run.
    answers: list[tuple[str, object]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.requests)


async def open_loop(gateway, requests: list[tuple[str, str]], rate: float) -> Phase:
    """Offer request *k* at ``start + k / rate`` whether or not earlier
    ones finished; time each from its scheduled arrival."""
    loop = asyncio.get_running_loop()
    phase = Phase(rate, requests)
    lags = [0.0] * len(requests)

    async def issue(index: int, session_id: str, sql: str, scheduled: float) -> None:
        lags[index] = loop.time() - scheduled
        try:
            response = await gateway.execute(session_id, sql)
        except OverloadError:
            phase.shed += 1
            return
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            phase.failed += 1
            phase.errors.append(f"{type(exc).__name__}: {exc}")
            return
        phase.sojourn_s.append(loop.time() - scheduled)
        phase.completed += 1
        phase.answers.append((sql, response.result))

    start = loop.time()
    tasks = []
    for index, (session_id, sql) in enumerate(requests):
        scheduled = start + index / rate
        delay = scheduled - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(issue(index, session_id, sql, scheduled)))
    await asyncio.gather(*tasks)
    phase.lag_s = lags
    return phase


class Measured:
    """Open-loop phases run with speed checkpoints between them."""

    #: Length of one fixed-rate chunk; the tier drains between chunks
    #: while the calibration kernel runs.
    CHUNK_S = 1.0

    def __init__(self, gateway, stream, verify) -> None:
        self.gateway = gateway
        self.stream = stream
        #: Checks a finished phase's answers (between phases, untimed).
        self.verify = verify
        self.speed = SpeedNormalizer()
        self.phases: list[Phase] = []

    async def run(self, tag: str, n_requests: int, rate: float) -> tuple[Phase, float, float]:
        """Offer ``n_requests`` at ``rate``; returns the phase and its span."""
        chunk = max(1, int(rate * self.CHUNK_S))
        merged = Phase(rate, [])
        began = time.perf_counter()
        for offset in range(0, n_requests, chunk):
            start = time.perf_counter()
            phase = await open_loop(self.gateway, self.stream.batch(tag, min(chunk, n_requests - offset)), rate)
            end = time.perf_counter()
            self.speed.checkpoint()
            self.verify(phase)
            self.phases.append(phase)
            for sojourn in phase.sojourn_s:
                self.speed.add(merged.scaled_s.append, sojourn, start, end)
            merged.sojourn_s += phase.sojourn_s
            merged.requests += phase.requests
            merged.lag_s += phase.lag_s
            merged.completed += phase.completed
            merged.shed += phase.shed
            merged.failed += phase.failed
        return merged, began, time.perf_counter()

    async def capacity(self, seconds: float) -> float:
        """Closed-loop throughput: CLIENTS sessions each send their next
        request as soon as the previous one returns, for ``seconds``;
        completed requests per second, rescaled to the reference speed."""
        def endless():
            while True:
                yield from self.stream.batch("capacity", 1_000)

        requests = endless()
        phase = Phase(0.0, [])
        deadline = time.perf_counter() + seconds

        async def client() -> None:
            while time.perf_counter() < deadline:
                session_id, sql = next(requests)
                phase.requests.append((session_id, sql))
                try:
                    response = await self.gateway.execute(session_id, sql)
                except OverloadError:
                    phase.shed += 1
                    continue
                except Exception as exc:  # noqa: BLE001 - every failure is counted
                    phase.failed += 1
                    phase.errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                phase.completed += 1
                phase.answers.append((sql, response.result))

        self.speed.checkpoint()
        start = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(CLIENTS)))
        end = time.perf_counter()
        self.speed.checkpoint()
        self.verify(phase)
        self.phases.append(phase)
        return phase.completed / (end - start) / self.speed.factor(start, end)

    async def openings(self) -> list[float]:
        """OPEN_BURSTS times, SESSIONS new sessions open the dashboard at
        once (all their opening queries together); seconds per burst."""
        samples: list[float] = []
        for burst in range(OPEN_BURSTS):
            requests = [
                request
                for index in range(SESSIONS)
                for request in self.stream.opening(f"burst{burst}", index)
            ]
            phase = Phase(0.0, requests)
            start = time.perf_counter()
            results = await asyncio.gather(
                *(self.gateway.execute(session_id, sql) for session_id, sql in requests),
                return_exceptions=True,
            )
            self.speed.add(samples.append, time.perf_counter() - start)
            for (_, sql), response in zip(requests, results):
                if isinstance(response, OverloadError):
                    phase.shed += 1
                elif isinstance(response, BaseException):
                    phase.failed += 1
                    phase.errors.append(repr(response))
                else:
                    phase.completed += 1
                    phase.answers.append((sql, response.result))
            self.verify(phase)
            self.phases.append(phase)
            await asyncio.sleep(0.1)
        self.speed.finish()
        return samples


# --------------------------------------------------------------------------- #
@dataclass
class ServingOutcome:
    result: RunResult
    worker_rss_mb: float = 0.0
    layers: dict[str, float] | None = None


def shard_spec(seed: int, factory=None) -> ShardSpec:
    return ShardSpec(
        backend="embedded",
        tables=(TableSpec("flights", SERVING_ROWS, seed=seed),),
        max_workers=SCHEDULER_THREADS,
        backend_factory=factory,
    )


async def boot(spec: ShardSpec, stream, warm: bool = True) -> AsyncGateway:
    """Start the gateway and warm every shard with a few requests."""
    gateway = AsyncGateway(spec, n_shards=N_SHARDS, max_inflight=MAX_INFLIGHT, max_queue_depth=MAX_QUEUE)
    await gateway.start()
    if warm:
        for session_id, sql in stream.opening("warm", 0) * 1 + stream.batch("warm", 4 * N_SHARDS):
            await gateway.execute(session_id, sql)
    return gateway


async def worker_rss(gateway: AsyncGateway) -> float:
    stats = await gateway.stats()
    return sum(rss_peak_mib(int(shard["pid"])) for shard in stats["shards"] if "pid" in shard)


def _digest(answer) -> bytes:
    """Content digest of a columnar answer (names and every column)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(answer.names).encode())
    for array in answer.arrays:
        digest.update(repr(array.tolist()).encode() if array.dtype == object else array.tobytes())
    return digest.digest()


def answer_checker(result: RunResult, oracle: SqliteOracle):
    """A ``verify(phase)`` that checks and then drops the phase's answers.

    Every answer is checked: one whose content digest equals an answer
    already found equal to the oracle's for the same query is that
    answer; any other is compared with the oracle row by row.
    """
    verified: set[tuple[str, bytes]] = set()

    def verify(phase: Phase) -> None:
        for sql, answer in phase.answers:
            key = (sql, _digest(answer))
            if key in verified:
                continue
            if oracle.matches(sql, answer.rows()):
                verified.add(key)
            else:
                result.fail_check(f"answer differs from the sqlite3 oracle: {sql}")
                break
        phase.answers.clear()

    return verify


async def measure(seed: int, seconds: float, result: RunResult, verify) -> tuple[list[Phase], float]:
    stream = SharedStream(seed, SESSIONS)
    spec = shard_spec(seed)
    speed = SpeedNormalizer()
    boots: list[float] = []
    gateway = None
    for _ in range(SETUP_REPEATS):
        if gateway is not None:
            await gateway.close()
        speed.checkpoint()
        start = time.perf_counter()
        gateway = await boot(spec, stream)
        speed.add(boots.append, time.perf_counter() - start)
    speed.finish()
    measured = Measured(gateway, stream, verify)
    try:
        fixed, _, _ = await measured.run("fixed", int(RATE * seconds * 0.5), RATE)
        await asyncio.sleep(0.5)
        openings = await measured.openings()
        rss = await worker_rss(gateway)
        capacity = await measured.capacity(seconds * 0.2)
    finally:
        await gateway.close()
    result.metric("setup_s", median(boots), "s")
    result.metric("open_s", median(openings), "s")
    result.metric("interact_p50_ms", median(fixed.scaled_s) * 1e3, "ms")
    result.metric("interact_p95_ms", tail_p95(fixed.scaled_s) * 1e3, "ms")
    result.metric("capacity_rps", capacity, "1/s")
    result.notes.append(
        f"fixed rate {RATE}/s: attempted={fixed.attempted} completed={fixed.completed} "
        f"shed={fixed.shed} failed={fixed.failed} mean_lag_ms={1e3 * sum(fixed.lag_s) / len(fixed.lag_s):.3f}; "
        f"{measured.speed.describe()}"
    )
    return measured.phases, rss


def run_serving(seed: int, seconds: float, tracer=None) -> ServingOutcome:
    result = RunResult()
    oracle = SqliteOracle("flights", generators.generate_dataset("flights", SERVING_ROWS, seed=seed))
    verify = answer_checker(result, oracle)
    try:
        if tracer is None:
            phases, rss = asyncio.run(measure(seed, seconds, result, verify))
            layers = None
        else:
            phases, rss, layers = asyncio.run(measure_traced(seed, seconds, tracer, verify))
    finally:
        oracle.close()
    for phase in phases:
        result.attempted += phase.attempted
        result.failed += phase.failed + phase.shed
        if phase.errors:
            result.notes.append(f"errors: {phase.errors[:3]}")
        if phase.attempted != phase.completed + phase.shed + phase.failed:
            result.fail_check("a request ended neither completed, shed nor failed")
    return ServingOutcome(result, rss, layers)


async def measure_traced(seed: int, seconds: float, tracer, verify):
    """Half the time untraced (the overhead reference), half traced.

    The traced gateway's workers install the same wrappers through
    ``ShardSpec.backend_factory`` and write their span totals, counters
    and engine stats when they close their backends.
    """
    stream = SharedStream(seed, SESSIONS)
    n_requests = int(RATE * seconds / 2)
    gateway = await boot(shard_spec(seed), stream)
    try:
        reference = await open_loop(gateway, stream.batch("reference", n_requests), RATE)
    finally:
        await gateway.close()
    span_dir = tempfile.mkdtemp(prefix=".perfbench-spans-", dir=os.getcwd())
    try:
        tracer.install()
        try:
            factory = functools.partial(traced_backend, SERVING_ROWS, seed, span_dir)
            gateway = await boot(shard_spec(seed, factory), stream, warm=False)
            try:
                phase = await open_loop(gateway, stream.batch("traced", n_requests), RATE)
                stats = await gateway.stats()
                rss = await worker_rss(gateway)
            finally:
                await gateway.close()
        finally:
            tracer.uninstall()
        totals, counters, engine = merge_worker_reports(span_dir)
    finally:
        shutil.rmtree(span_dir, ignore_errors=True)
    for name, entry in tracer.totals().items():
        merged = totals.setdefault(name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
        for key, value in entry.items():
            merged[key] += value
    for key, value in tracer.counters.items():
        counters[key] = counters.get(key, 0.0) + value

    schedulers = [shard.get("scheduler") or {} for shard in stats["shards"]]
    submitted = sum(float(s.get("submitted", 0.0)) for s in schedulers)
    admission = totals.get("server.admission", {"calls": 0.0, "total_s": 0.0})
    execute = totals.get("gateway.execute", {"total_s": 0.0})
    extra = {
        "server.admission_wait_ms": 1e3 * admission["total_s"] / max(admission["calls"], 1.0),
        "server.scheduler_wait_ms": 1e3
        * sum(float(s.get("mean_wait_seconds", 0.0)) * float(s.get("submitted", 0.0)) for s in schedulers)
        / max(submitted, 1.0),
        "server.coalesced_ratio": sum(float(s.get("coalesced", 0.0)) for s in schedulers) / max(submitted, 1.0),
        "server.shed": float(stats["serving"]["shed"]),
        "loadgen.lag_ms": 1e3 * sum(phase.lag_s) / len(phase.lag_s),
        "trace.overhead_ratio": median(phase.sojourn_s) / median(reference.sojourn_s),
        "trace.coverage_ratio": (sum(phase.lag_s) + execute["total_s"]) / sum(phase.sojourn_s),
    }
    layers = layer_metrics(totals, counters, engine, phase.attempted, extra)
    verify(reference)
    verify(phase)
    return [reference, phase], rss, layers
