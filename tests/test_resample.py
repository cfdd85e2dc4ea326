"""Property tests: one-pass resampling against a per-bucket numpy reference.

The reference below is the straightforward implementation — split the
sample indices at every bucket change and run a numpy reducer on each
bucket — kept here only as the oracle.  ``TimeSeries.resample``,
``LocalDatabase.query`` and the block store's raw scan path must all
return results ``repr``-identical to it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.cdf import Measurement
from repro.storage.blocks import BlockStore, TsdbConfig
from repro.storage.localdb import LocalDatabase
from repro.storage.query import RangeQuery
from repro.storage.timeseries import AGGREGATIONS, TimeSeries

_REFERENCE_REDUCERS = {
    "mean": lambda v: float(np.mean(v)),
    "sum": lambda v: float(np.sum(v)),
    "min": lambda v: float(np.min(v)),
    "max": lambda v: float(np.max(v)),
    "last": lambda v: float(v[-1]),
    "first": lambda v: float(v[0]),
    "count": lambda v: float(len(v)),
}


def reference_resample(times, values, bucket, agg):
    """One numpy reduction per bucket (the oracle)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if not len(times):
        return []
    reducer = _REFERENCE_REDUCERS[agg]
    starts = np.floor(times / bucket) * bucket
    boundaries = np.flatnonzero(np.diff(starts)) + 1
    return [(float(starts[chunk[0]]), reducer(values[chunk]))
            for chunk in np.split(np.arange(len(times)), boundaries)]


widths = st.one_of(
    st.sampled_from([0.1, 1.0, 7.0, 60.0, 900.0, 3600.0]),
    st.floats(1e-3, 1e4, allow_nan=False, allow_infinity=False),
)
values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False),
)
#: position inside a bucket, in bucket widths; repeats give duplicate
#: timestamps
offsets = st.one_of(st.sampled_from([0.0, 0.25, 0.5]),
                    st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def bucketed_samples(draw):
    """A bucket width and samples in insertion order.

    Each non-empty bucket holds 1-50 samples; timestamps repeat and
    arrive out of order; ±0.0 appears in times and values.
    """
    width = draw(widths)
    pairs = []
    buckets = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=6,
                            unique=True))
    for k in buckets:
        n = draw(st.integers(1, 50))
        for offset in draw(st.lists(offsets, min_size=n, max_size=n)):
            pairs.append(((k + offset) * width, draw(values)))
    pairs += draw(st.lists(st.tuples(st.sampled_from([0.0, -0.0]), values),
                           max_size=3))
    return width, draw(st.permutations(pairs))


def series_of(pairs):
    series = TimeSeries()
    for t, value in pairs:
        series.append(t, value)
    return series


@settings(deadline=None)
@given(bucketed_samples())
def test_resample_matches_reference(case):
    width, pairs = case
    series = series_of(pairs)
    for agg in AGGREGATIONS:
        assert repr(series.resample(width, agg)) == repr(
            reference_resample(series.times, series.values, width, agg))


@settings(deadline=None, max_examples=40)
@given(bucketed_samples())
def test_localdb_query_matches_reference(case):
    width, pairs = case
    db = LocalDatabase()
    for t, value in pairs:
        db.insert(Measurement(device_id="dev-0001", entity_id="bld-0001",
                              quantity="power", value=value, timestamp=t))
    series = db.series("dev-0001", "power")
    for agg in AGGREGATIONS:
        got = db.query(RangeQuery("dev-0001", "power", bucket=width,
                                  agg=agg))
        assert repr(got) == repr(
            reference_resample(series.times, series.values, width, agg))


@settings(deadline=None, max_examples=40)
@given(bucketed_samples())
def test_block_store_raw_scan_matches_reference(case):
    width, pairs = case
    store = BlockStore(TsdbConfig(block_size=4, compaction_target=8,
                                  rollup_resolutions=(1e6,)))
    for t, value in pairs:
        store.insert(Measurement(device_id="dev-0001", entity_id="bld-0001",
                                 quantity="power", value=value,
                                 timestamp=t))
    series = series_of(pairs)
    for agg in AGGREGATIONS:
        got = store.query_range("dev-0001", "power", float("-inf"),
                                float("inf"), width, agg, prefer="raw")
        assert repr(got) == repr(
            reference_resample(series.times, series.values, width, agg))
