"""In-memory time series with aggregation.

The middle layer of the Device-proxy ("It collects data from the device
in a local database") and the global measurements database both store
sampled sensor data.  :class:`TimeSeries` is their common primitive:
append-mostly storage of (time, value) pairs kept sorted by time, range
queries, bucketed resampling and trapezoidal integration (power -> energy).
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StorageError

#: aggregation name -> reducer over a non-empty value array
_AGGREGATORS: Dict[str, Callable[[np.ndarray], float]] = {
    "mean": lambda v: float(np.mean(v)),
    "sum": lambda v: float(np.sum(v)),
    "min": lambda v: float(np.min(v)),
    "max": lambda v: float(np.max(v)),
    "last": lambda v: float(v[-1]),
    "first": lambda v: float(v[0]),
    "count": lambda v: float(len(v)),
}

AGGREGATIONS = tuple(sorted(_AGGREGATORS))

#: aggregation name -> value of a one-sample bucket, equal to what the
#: reducer gives on a length-1 array (numpy sums from +0.0, so a lone
#: -0.0 comes back as 0.0)
_SINGLE: Dict[str, Callable[[float], float]] = {
    "mean": lambda v: v + 0.0,
    "sum": lambda v: v + 0.0,
    "min": lambda v: v,
    "max": lambda v: v,
    "last": lambda v: v,
    "first": lambda v: v,
    "count": lambda v: 1.0,
}


def resample(times: Sequence[float], values: Sequence[float],
             bucket: float, agg: str = "mean") -> List[Tuple[float, float]]:
    """Aggregate time-sorted samples into fixed buckets in one pass.

    A bucket starts at ``floor(t / bucket) * bucket``; empty buckets
    are omitted.  *values* must hold python floats.  Each result is
    bit-identical to the numpy reducer applied to that bucket's values:
    a one-sample bucket is answered directly, a larger one runs the
    reducer on its slice (keeping numpy's pairwise-sum rounding).
    """
    if bucket <= 0:
        raise StorageError("bucket width must be positive")
    try:
        reducer = _AGGREGATORS[agg]
        single = _SINGLE[agg]
    except KeyError:
        raise StorageError(f"unknown aggregation {agg!r}") from None
    if not len(times):
        return []
    starts = np.floor(np.asarray(times, dtype=float) / bucket) * bucket
    edges = (np.flatnonzero(np.diff(starts)) + 1).tolist()
    edges.append(len(times))
    starts = starts.tolist()
    out: List[Tuple[float, float]] = []
    lo = 0
    for hi in edges:
        if hi - lo == 1:
            out.append((starts[lo], single(values[lo])))
        else:
            out.append((starts[lo],
                        reducer(np.asarray(values[lo:hi], dtype=float))))
        lo = hi
    return out


class TimeSeries:
    """A sorted sequence of (timestamp, value) samples."""

    def __init__(self, samples: Optional[Sequence[Tuple[float, float]]] = None):
        self._times: List[float] = []
        self._values: List[float] = []
        if samples:
            for t, v in samples:
                self.append(t, v)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self._times, self._values))

    @property
    def times(self) -> np.ndarray:
        """Sample timestamps as a numpy array (copy)."""
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        """Sample values as a numpy array (copy)."""
        return np.asarray(self._values, dtype=float)

    def append(self, t: float, value: float) -> None:
        """Insert a sample, keeping time order (out-of-order allowed)."""
        if not self._times or t >= self._times[-1]:
            self._times.append(float(t))
            self._values.append(float(value))
            return
        index = bisect.bisect_right(self._times, t)
        self._times.insert(index, float(t))
        self._values.insert(index, float(value))

    def latest(self) -> Tuple[float, float]:
        """Most recent (timestamp, value); raises on an empty series."""
        if not self._times:
            raise StorageError("series is empty")
        return self._times[-1], self._values[-1]

    def first(self) -> Tuple[float, float]:
        """Oldest (timestamp, value); raises on an empty series."""
        if not self._times:
            raise StorageError("series is empty")
        return self._times[0], self._values[0]

    def slice(self, start: Optional[float] = None,
              end: Optional[float] = None
              ) -> Tuple[List[float], List[float]]:
        """Samples with ``start <= t < end`` as (times, values) lists.

        ``None`` leaves that side of the window open.
        """
        lo = 0 if start is None else bisect.bisect_left(self._times, start)
        hi = len(self._times) if end is None \
            else bisect.bisect_left(self._times, end)
        return self._times[lo:hi], self._values[lo:hi]

    def window(self, start: float, end: float) -> "TimeSeries":
        """Samples with ``start <= t < end`` as a new series."""
        if end < start:
            raise StorageError(f"reversed window [{start}, {end})")
        out = TimeSeries()
        out._times, out._values = self.slice(start, end)
        return out

    def value_at(self, t: float) -> float:
        """Last value at or before *t* (sample-and-hold semantics)."""
        index = bisect.bisect_right(self._times, t)
        if index == 0:
            raise StorageError(f"no sample at or before t={t}")
        return self._values[index - 1]

    def resample(self, bucket: float, agg: str = "mean"
                 ) -> List[Tuple[float, float]]:
        """Aggregate into fixed buckets; empty buckets are omitted.

        Returns (bucket_start, aggregate) pairs, bucket boundaries are
        multiples of *bucket* (see :func:`resample`).
        """
        return resample(self._times, self._values, bucket, agg)

    def integrate_hours(self) -> float:
        """Trapezoidal integral of value dt, with dt in hours.

        For a power series in watts this yields energy in watt-hours.
        """
        if len(self._times) < 2:
            return 0.0
        times = self.times / 3600.0
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return float(trapezoid(self.values, times))

    def mean(self) -> float:
        """Arithmetic mean of the values; raises on empty series.

        Clamped into ``[minimum, maximum]``: float accumulation can land
        the raw mean one ulp outside the value envelope.
        """
        if not self._values:
            raise StorageError("series is empty")
        values = self.values
        mean = float(np.mean(values))
        return float(min(max(mean, np.min(values)), np.max(values)))

    def minimum(self) -> float:
        """Smallest value in the series; raises on an empty series."""
        if not self._values:
            raise StorageError("series is empty")
        return float(np.min(self.values))

    def maximum(self) -> float:
        """Largest value in the series; raises on an empty series."""
        if not self._values:
            raise StorageError("series is empty")
        return float(np.max(self.values))

    def prune_before(self, cutoff: float) -> int:
        """Drop samples older than *cutoff*; returns how many were removed."""
        index = bisect.bisect_left(self._times, cutoff)
        if index == 0:
            return 0
        del self._times[:index]
        del self._values[:index]
        return index

    def to_pairs(self) -> List[Tuple[float, float]]:
        """All samples as a list of (t, value) pairs."""
        return list(zip(self._times, self._values))


def merge(series: Sequence[TimeSeries]) -> TimeSeries:
    """Merge several series into one time-ordered series."""
    out = TimeSeries()
    pairs: List[Tuple[float, float]] = []
    for s in series:
        pairs.extend(s.to_pairs())
    pairs.sort(key=lambda p: p[0])
    out._times = [p[0] for p in pairs]
    out._values = [p[1] for p in pairs]
    return out


def aligned_sum(series: Sequence[TimeSeries], bucket: float
                ) -> List[Tuple[float, float]]:
    """Bucketed sum across series — the district/building roll-up.

    Each series is first resampled with ``mean`` into *bucket*-wide
    slots (a power reading is a level, not an increment), then slots are
    summed across series.  Only slots covered by at least one series
    appear.
    """
    totals: Dict[float, float] = {}
    for s in series:
        for start, value in s.resample(bucket, "mean"):
            totals[start] = totals.get(start, 0.0) + value
    return sorted(totals.items())
