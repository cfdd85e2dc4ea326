"""Tests of the benchmark's own rules.

    python3 -m pytest perfbench/test_perfbench.py -q

The percentile rule, metric names, BENCHMARK.json agreeing with what
``run.py`` emits, and determinism: one seed repeats its simulated
counters and ``_sim_`` metrics exactly, another seed changes them.
The determinism tests start fresh interpreters and take about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from measure import (  # noqa: E402
    TooFewSamples,
    check_name,
    min_samples,
    percentile,
)


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- percentiles: at least ten samples beyond ------------------------------

@pytest.mark.parametrize("p,need", [(50, 20), (95, 200), (99, 1000)])
def test_min_samples_leave_ten_beyond(p, need):
    assert min_samples(p) == need
    values = list(range(need))
    rank_value = percentile(values, p)
    assert sum(v > rank_value for v in values) == 10
    with pytest.raises(TooFewSamples):
        percentile(values[:-1], p)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert percentile(list(reversed(values)), 50) == 50.0


def test_percentile_rejects_out_of_range_p():
    with pytest.raises(ValueError):
        min_samples(100)


# -- metric names ----------------------------------------------------------

@pytest.mark.parametrize("bad", ["", "a b", "_lead", "x" * 65, "ms/s",
                                 "naïve"])
def test_bad_names_rejected(bad):
    with pytest.raises(ValueError):
        check_name(bad)


def test_benchmark_json_names_are_valid_and_unique():
    spec = benchmark_json()
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        check_name(name)


def test_benchmark_json_matches_what_run_emits():
    from layers import Tracer, layer_metrics
    from workloads import WORKLOADS

    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER)
    zeros = dict.fromkeys(
        ["scheduler.events", "scheduler.compactions", "transport.messages",
         "transport.bytes", "transport.dropped", "codec.frames_rejected",
         "radio.frames_dropped", "proxy.batches", "proxy.batch_samples",
         "mdb.inserts", "mdb.duplicates", "mdb.rejected",
         "broker.published", "broker.deliveries", "broker.redeliveries",
         "master.resolves", "master.registrations"], 0)
    emitted = set(layer_metrics(zeros, zeros, {})) | set(Tracer().self_s)
    emitted.add("mdb.rollup_served_ratio")
    assert set(run.PER_LAYER) == emitted
    for name in emitted:
        check_name(name)


# -- determinism and seeds ---------------------------------------------------

def fingerprint(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--fingerprint"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])["fingerprint"]


@pytest.mark.parametrize("workload", ["district-soak", "area-query",
                                      "live-fanout"])
def test_seed_repeats_exactly_and_another_seed_differs(workload):
    first = fingerprint(workload, 11)
    assert fingerprint(workload, 11) == first
    other = fingerprint(workload, 12)
    assert other != first
    assert other["sim_p50_ms"] != first["sim_p50_ms"]


def test_missing_program_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "district-soak",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
