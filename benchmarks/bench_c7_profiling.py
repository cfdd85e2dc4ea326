"""Experiment C7 — multi-resolution consumption profiling (§IV claim i).

"Manage data to profile energy consumption, from the whole city-district
point-of-view down to the single building."

Runs a district for two simulated days, builds the integrated model
through the real client workflow, and validates every roll-up level
against ground truth (the deterministic load profiles the generator
planted):

* device-level profile == its profile function (within protocol
  quantisation);
* building-level profile == the feeder meter's profile;
* district-level profile == sum of buildings (exact identity);
* per-building energy intensity figures (the awareness report).
"""

import pytest

from repro.common.simtime import duration
from repro.core.monitoring import ConsumptionProfiler, awareness_report
from repro.ontology import AreaQuery
from repro.simulation import ScenarioConfig, deploy
from repro.storage.timeseries import TimeSeries

EXPERIMENT = "C7"
BUCKET = 3600.0


@pytest.fixture(scope="module")
def setup():
    district = deploy(ScenarioConfig(
        seed=77, n_buildings=5, devices_per_building=4, n_networks=1,
    ))
    start = duration(days=4)  # Monday
    district.run(start)
    district.run(duration(days=2))
    client = district.client("c7-user")
    model = client.build_area_model(
        AreaQuery(district_id=district.district_id),
        with_data=True, data_start=start,
    )
    return district, model, start


def test_profiling_accuracy(setup, timed, report):
    district, model, start = setup
    profiler = ConsumptionProfiler(model, bucket=BUCKET)

    def full_rollup():
        return profiler.district_profile()

    district_profile, timing = timed(full_rollup)
    assert district_profile
    report.record(EXPERIMENT, wall_seconds=timing.total,
                  sim_seconds=district.scheduler.now,
                  messages_total=district.network.stats.messages_delivered)

    report.header(EXPERIMENT,
                  "profiling: measured roll-ups vs ground truth "
                  "(2 simulated days, hourly buckets)")

    # building level vs ground truth
    worst = 0.0
    for spec in district.dataset.buildings:
        measured = profiler.building_profile(spec.entity_id)
        truth_series = TimeSeries([
            (t, max(spec.load_profile.value(t), 0.0))
            for t, _v in model.entity(spec.entity_id).samples(
                spec.devices[0].device_id, "power")
        ])
        truth = dict(truth_series.resample(BUCKET, "mean"))
        errors = [
            abs(v - truth[b]) / max(truth[b], 1.0)
            for b, v in measured if b in truth and truth[b] > 100.0
        ]
        rel = max(errors) if errors else 0.0
        worst = max(worst, rel)
        energy = profiler.building_energy_wh(spec.entity_id)
        report.add(EXPERIMENT,
                   f"{spec.entity_id} ({spec.use:<11s}) "
                   f"E={energy / 1e3:8.1f} kWh  worst hourly error vs "
                   f"truth: {rel * 100:5.2f}%")
        assert rel < 0.02, (
            f"{spec.entity_id} diverges {rel * 100:.1f}% from its ground-"
            f"truth profile"
        )

    # district == sum of buildings (identity of the roll-up)
    summed = {}
    for spec in district.dataset.buildings:
        for b, v in profiler.building_profile(spec.entity_id):
            summed[b] = summed.get(b, 0.0) + v
    for b, v in district_profile:
        assert v == pytest.approx(summed[b], rel=1e-9)

    peak_t, peak_w = profiler.peak()
    report.add(EXPERIMENT,
               f"district peak {peak_w / 1e3:7.1f} kW; "
               f"district==sum(buildings) identity holds on "
               f"{len(district_profile)} buckets; worst building error "
               f"{worst * 100:.2f}%")


def test_awareness_report(setup, benchmark, report):
    district, model, start = setup

    def build_report():
        return awareness_report(model, bucket=BUCKET)

    awareness = benchmark(build_report)
    assert len(awareness.ranked) == 5
    top = awareness.ranked[0]
    report.add(EXPERIMENT,
               f"awareness: district={awareness.district_energy_wh / 1e3:8.1f} kWh "
               f"over {awareness.window_hours:.1f} h; most intensive "
               f"building {top.entity_id} at "
               f"{top.intensity_wh_per_m2:.1f} Wh/m2 "
               f"({top.vs_district_average:.2f}x avg)")
    ratios = [b.vs_district_average for b in awareness.buildings]
    assert sum(ratios) / len(ratios) == pytest.approx(1.0)
