"""Drift-corrected timing, order statistics and memory for the benchmark.

This machine class changes speed by up to +-20 % within seconds while
CPU time keeps tracking wall time, so the slowdown happens inside the
running process and a raw wall-clock sample mixes the program's cost
with the machine's current speed. Every timing here is therefore paired
with a small reference kernel timed just before and just after the
program call (never inside it):

    corrected = raw * NOMINAL_KERNEL_S / mean(kernel_before, kernel_after)

which reports the call's duration at the kernel's nominal speed. The
kernel shares no code with the program: it mixes interpreter work
(dict updates, integer arithmetic, list appends) with small numpy calls
on 64-element arrays, the same blend the filter's per-particle code has.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

#: Duration of one :func:`reference_kernel` call at nominal speed (the
#: median measured on the reference machine, see README.md).
NOMINAL_KERNEL_S = 0.00075

#: Kernel repetitions per probe; the minimum is kept, so one probe that
#: is preempted by the scheduler does not read as a slow machine.
PROBE_REPEATS = 3

T = TypeVar("T")


def reference_kernel() -> float:
    """A fixed blend of interpreter and small-array numpy work."""
    table: Dict[int, int] = {}
    acc = 0
    items: List[int] = []
    for i in range(2500):
        key = i & 127
        table[key] = table.get(key, 0) + i
        acc += (i * 7) % 13
        items.append(acc)
    values = np.linspace(0.0, 1.0, 64)
    total = 0.0
    for _ in range(60):
        values = np.sqrt(values * 1.0001 + 0.5)
        order = np.argsort(values)
        total += float(values[order[0]]) + float(np.cumsum(values)[-1])
    return total + acc + len(items) + len(table)


def probe_kernel() -> float:
    """Seconds one kernel call takes right now (min of a few repeats)."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class DriftClock:
    """Times program calls and corrects them by their bracketing probes.

    A probe is taken on creation and after every timed call or batch, so
    each sample is bracketed by probe ``before`` and probe ``after`` and
    is corrected by their mean. (Medians over wider windows of probes
    were tried; they followed the drift worse on every workload but the
    multi-second paper rounds.)
    """

    def __init__(self) -> None:
        self.probes: List[float] = [probe_kernel()]

    def call(self, fn: Callable[..., T], *args: object) -> Tuple[T, float, Tuple[int, int]]:
        """Run ``fn(*args)``; return ``(result, raw_s, probe_span)``."""
        before = len(self.probes) - 1
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        self.probes.append(probe_kernel())
        return result, raw, (before, len(self.probes) - 1)

    def batch(self) -> "Batch":
        """Time many short calls under one pair of bracketing probes."""
        return Batch(self)

    def factor(self, span: Tuple[int, int]) -> float:
        before, after = span
        return NOMINAL_KERNEL_S / ((self.probes[before] + self.probes[after]) / 2.0)


class Batch:
    """Short calls (sub-millisecond reads) timed raw, corrected as a group."""

    def __init__(self, clock: DriftClock) -> None:
        self._clock = clock
        self._before = len(clock.probes) - 1
        self.raw: List[float] = []
        self.span = (self._before, self._before)

    def call(self, fn: Callable[..., T], *args: object) -> T:
        start = time.perf_counter()
        result = fn(*args)
        self.raw.append(time.perf_counter() - start)
        return result

    def close(self) -> None:
        """Probe once more: the batch's samples share this probe span."""
        self._clock.probes.append(probe_kernel())
        self.span = (self._before, len(self._clock.probes) - 1)


class Samples:
    """One timing series: raw seconds plus each sample's probe span."""

    def __init__(self, clock: DriftClock) -> None:
        self.clock = clock
        self.raw: List[float] = []
        self.spans: List[Tuple[int, int]] = []

    def add(self, raw: float, span: Tuple[int, int]) -> None:
        self.raw.append(raw)
        self.spans.append(span)

    def add_batch(self, batch: Batch) -> None:
        self.raw.extend(batch.raw)
        self.spans.extend([batch.span] * len(batch.raw))

    @property
    def corrected(self) -> List[float]:
        """Drift-corrected seconds (final once the run's probes are in)."""
        return [
            raw * self.clock.factor(span) for raw, span in zip(self.raw, self.spans)
        ]

    def __len__(self) -> int:
        return len(self.raw)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(count: int) -> Optional[int]:
    """The highest of p99/p90/p80 with at least ten samples beyond it.

    Below forty samples no tail is reported (the median stands alone).
    """
    if count < 40:
        return None
    for q in (99, 90, 80):
        if count * (100 - q) / 100.0 >= 10:
            return q
    return None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return 0
    return 0


def children_peak_kib() -> int:
    """Summed peak RSS of this process's live child processes."""
    total = 0
    try:
        entries = os.listdir(f"/proc/{os.getpid()}/task")
    except OSError:
        return 0
    for tid in entries:
        try:
            with open(
                f"/proc/{os.getpid()}/task/{tid}/children", "r", encoding="ascii"
            ) as handle:
                pids = [int(p) for p in handle.read().split()]
        except OSError:
            continue
        total += sum(_vm_hwm_kib(pid) for pid in pids)
    return total


def self_peak_kib() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
