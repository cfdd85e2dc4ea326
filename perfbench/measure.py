"""Small helpers shared by the benchmark: percentiles, names, results.

Kept free of any ``repro`` import so the tests of these rules run
without a deployment.
"""

from __future__ import annotations

import gc
import json
import math
import re
import resource
import statistics
import sys
import time
from collections import defaultdict
from itertools import repeat
from typing import Dict, List, Sequence

#: what a metric name may be made of (BENCHMARK.json's rule)
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: a percentile needs at least this many samples strictly beyond it
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def min_samples(p: float) -> int:
    """Smallest sample count that leaves MIN_BEYOND samples beyond *p*."""
    if p <= 0.0 or p >= 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - p) - 1e-9)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank *p*-th percentile of *values*.

    Refuses (``TooFewSamples``) unless at least ten samples lie above
    the rank it returns: a tail percentile read off a handful of
    samples is noise, not a measurement.
    """
    n = len(values)
    rank = max(1, math.ceil(p * n / 100.0 - 1e-9))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} needs >= {min_samples(p)} samples, got {n}")
    return float(sorted(values)[rank - 1])


def check_name(name: str) -> str:
    """Return *name* if it is a valid metric name, else raise."""
    if not isinstance(name, str) or NAME_RE.fullmatch(name) is None:
        raise ValueError(f"bad metric name {name!r}")
    return name


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" \
        else peak / 1024.0


class Clock:
    """Host time, normalised to a reference host speed.

    The host this benchmark runs on is shared: a fixed loop of pure
    Python can take 1.7x longer for seconds at a time when neighbours
    are busy.  So the window's host time is cut into intervals (one per
    ``tick``), a short fixed *probe* runs about every ``PROBE_EVERY_S``
    host seconds, and each interval is scaled by
    ``REF_PROBE_S / probe time``, the probe time being the median of the
    five probes around it.  A normalised second is the time the host
    would take at the speed where one probe takes exactly
    ``REF_PROBE_S``.  Probe time itself is outside every interval.

    The probe is interpreter work over a small table that stays in
    cache, allocates nothing and runs with the collector off, so its
    time follows the host's speed and not the program's heap.
    """

    REF_PROBE_S = 0.004
    #: host seconds of intervals between two probes
    PROBE_EVERY_S = 0.1
    #: table walk steps per probe
    PROBE_STEPS = 200_000
    _RING = 1 << 10

    def __init__(self):
        multiplier = 4 * 1103515245 + 1  # full-period LCG: one cycle
        self._ring = [(i * multiplier + 12345) % self._RING
                      for i in range(self._RING)]
        self.key = 0
        self.probes: List[float] = []
        self._records = []  # (key, raw seconds, index of next probe)
        #: host seconds inside intervals so far
        self.raw_s = 0.0
        self._since = 0.0
        self._origin = time.perf_counter()

    def probe(self) -> float:
        """Run the fixed probe once; returns its host seconds."""
        ring = self._ring
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        i = 0
        for _ in repeat(None, self.PROBE_STEPS):
            i = ring[i]
        elapsed = time.perf_counter() - start
        if collecting:
            gc.enable()
        return elapsed

    def resume(self) -> None:
        """Start the next interval now (time since the last tick is
        not measured)."""
        self._origin = time.perf_counter()

    def tick(self) -> None:
        """Close the interval since the last tick, charged to ``key``."""
        now = time.perf_counter()
        raw = now - self._origin
        self._records.append((self.key, raw, len(self.probes)))
        self.raw_s += raw
        self._since += raw
        if self._since >= self.PROBE_EVERY_S:
            self.probes.append(self.probe())
            self._since = 0.0
            now = time.perf_counter()
        self._origin = now

    def finish(self) -> None:
        """Probe once more so the last intervals have a neighbour."""
        self.probes.append(self.probe())

    def normalized(self) -> Dict[int, float]:
        """Normalised seconds per key (call after ``finish``)."""
        probes = self.probes
        smoothed = [statistics.median(probes[max(0, k - 2):k + 3])
                    for k in range(len(probes))]
        out: Dict[int, float] = defaultdict(float)
        for key, raw, index in self._records:
            out[key] += raw * self.REF_PROBE_S / smoothed[index]
        return out


class Report:
    """Collects metrics, prints them readably, then as one JSON line."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: Dict[str, Dict] = {}
        self.lines: List[str] = []

    def add(self, name: str, value: float, unit: str, n: int = 1,
            emit: bool = True) -> None:
        """Record one metric; *emit* puts it in the JSON result too."""
        check_name(name)
        value = float(value)
        if emit:
            self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(
            f"{self.workload:13s} {name:28s} {value:16.6f} {unit:6s} n={n}")

    def note(self, text: str) -> None:
        self.lines.append(f"{self.workload:13s} # {text}")

    def finish(self, attempted: int, failed: int, problems: List[str]
               ) -> int:
        """Print everything; returns the exit code (0 only if correct)."""
        correct = failed == 0 and not problems
        for problem in problems:
            self.lines.append(f"{self.workload:13s} ! {problem}")
        print("\n".join(self.lines))
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": self.metrics}))
        sys.stdout.flush()
        return 0 if correct else 1
