"""Shared helpers: order statistics, memory, row comparison and results."""

from __future__ import annotations

import math
import resource
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

#: Relative tolerance for float comparisons against an oracle.  Integers
#: (and integer-valued floats such as COUNT results) compare exactly.
FLOAT_RTOL = 1e-9

#: Samples a tail percentile needs beyond it to be reported.
TAIL_SAMPLES = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation between ranks)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_p95(values: list[float]) -> float:
    """p95, refusing sample sets with fewer than ten samples beyond it."""
    if len(values) * 0.05 < TAIL_SAMPLES:
        raise ValueError(
            f"p95 needs at least {int(TAIL_SAMPLES / 0.05)} samples, got {len(values)}"
        )
    return percentile(values, 95.0)


def rss_peak_mib(pid: int | None = None) -> float:
    """Peak resident memory (VmHWM) of ``pid`` (default: this process), MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _same_value(left: object, right: object) -> bool:
    if left is None or right is None:
        return left is None and right is None
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        if isinstance(left, float) and math.isnan(left):
            return isinstance(right, float) and math.isnan(right)
        if float(left).is_integer() and float(right).is_integer():
            return left == right
        return math.isclose(float(left), float(right), rel_tol=FLOAT_RTOL, abs_tol=1e-12)
    return left == right


def same_rows(actual: list[tuple], expected: list[tuple]) -> bool:
    """Positional row comparison: integers exact, floats within FLOAT_RTOL."""
    if len(actual) != len(expected):
        return False
    for left_row, right_row in zip(actual, expected):
        if len(left_row) != len(right_row):
            return False
        if not all(_same_value(a, b) for a, b in zip(left_row, right_row)):
            return False
    return True


def _canonical(value: object) -> object:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return (1, str(value)) if value is not None else (2, "")
    if isinstance(value, float) and math.isnan(value):
        return (2, "nan")
    return (0, float(f"{float(value):.9g}"))


def _row_key(row: dict) -> tuple:
    names = tuple(sorted(row))
    return tuple(_canonical(row[name]) for name in names) + (names,)


def same_dataset(actual: list[dict], expected: list[dict]) -> bool:
    """Order-insensitive dataset comparison (renderers do not rely on order)."""
    if len(actual) != len(expected):
        return False
    for left, right in zip(sorted(actual, key=_row_key), sorted(expected, key=_row_key)):
        if sorted(left) != sorted(right):
            return False
        if not all(_same_value(left[name], right[name]) for name in left):
            return False
    return True


@dataclass
class RunResult:
    """What one run reports: correctness, operation counts and metrics."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail_check(self, message: str) -> None:
        self.correct = False
        self.notes.append(f"CHECK FAILED: {message}")

    def as_json(self) -> dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }



# --------------------------------------------------------------------------- #
# Host-speed normalisation
# --------------------------------------------------------------------------- #
def _calibration_kernel() -> int:
    """Fixed work mixing interpreter-bound and numpy-bound steps."""
    total = 0
    table: dict[int, int] = {}
    for i in range(20_000):
        total += i * i % 7
        table[i & 255] = total
    values = np.arange(20_000.0)
    for _ in range(10):
        values = np.sqrt(values * values + 1.0)
    return total + int(values[-1])


def calibration_seconds() -> float:
    """Median time of three runs of the calibration kernel."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        _calibration_kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class SpeedNormalizer:
    """Rescales measured times to a reference host speed.

    The shared hosts this benchmark runs on change speed by tens of
    percent over tens of seconds (CPU steal, busy neighbours), and every
    wall time moves with it.  A fixed calibration kernel is timed at
    checkpoints placed between the measured operations (at least every
    CHECK_EVERY_S of measured work).  A time measured over
    ``[start, end]`` is multiplied by ``REFERENCE_S`` over the median
    kernel time of the checkpoints within WINDOW_S of that interval; the
    median over a window ignores the kernel's own jitter and follows the
    slow drift.  A change to the program moves the measured times and not
    the kernel, so it still shows in full; a slower host moves both.
    """

    #: Kernel time taken as the reference speed (a usual value on the
    #: 2-core host the README's figures come from).
    REFERENCE_S = 0.004
    CHECK_EVERY_S = 0.5
    WINDOW_S = 5.0

    def __init__(self) -> None:
        self._checkpoints: list[tuple[float, float]] = []
        self._samples: list[tuple[float, float, float, Callable[[float], None]]] = []
        self.checkpoint()

    def checkpoint(self) -> None:
        """Time the calibration kernel now."""
        self._checkpoints.append((time.perf_counter(), calibration_seconds()))

    def add(
        self, sink: Callable[[float], None], seconds: float, start: float | None = None,
        end: float | None = None,
    ) -> None:
        """Queue a time measured over ``[start, end]`` (default: ending now);
        ``sink`` gets it rescaled by :meth:`finish`."""
        if end is None:
            end = time.perf_counter()
            start = end - seconds
            if end - self._checkpoints[-1][0] > self.CHECK_EVERY_S:
                self.checkpoint()
        self._samples.append((start, end, seconds, sink))

    def factor(self, start: float, end: float) -> float:
        near = [k for t, k in self._checkpoints if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        if len(near) < 3:
            near = [k for _, k in sorted(self._checkpoints, key=lambda c: abs(c[0] - end))[:3]]
        return self.REFERENCE_S / statistics.median(near)

    def describe(self) -> str:
        """The factors seen at the checkpoints, for a run's description."""
        factors = [self.REFERENCE_S / k for _, k in self._checkpoints]
        return f"speed factor median {median(factors):.3f} range {min(factors):.3f}-{max(factors):.3f}"

    def finish(self) -> None:
        """Rescale and deliver every queued time."""
        self.checkpoint()
        for start, end, seconds, sink in self._samples:
            sink(seconds * self.factor(start, end))
        self._samples.clear()
