"""Experiment C5 — translation to the common data format (§II).

Measures the translation work each proxy performs:

* native store -> CDF model (BIM record trees, SIM tables, GIS
  features), per component, as store size grows;
* CDF -> wire encoding, JSON vs XML (the two open standards the paper
  names), encode and decode;
* protocol frame -> canonical reading, per protocol (the Device-proxy
  side of the same translation story).

Expected shape: translation is linear in model size (constant cost per
component/record) and JSON is several times cheaper than XML, which is
why JSON is the default wire format.
"""

import numpy as np
import pytest

from repro.common import serialization
from repro.datasources.bim import build_office_bim
from repro.datasources.generators import synthesize_district
from repro.proxies.translators import (
    translate_bim,
    translate_gis_feature,
    translate_sim,
)

EXPERIMENT = "C5"

BIM_SIZES = ((2, 3), (4, 6), (8, 12))  # (storeys, spaces per storey)


@pytest.mark.parametrize("storeys,spaces", BIM_SIZES,
                         ids=lambda v: str(v))
def test_bim_translation(storeys, spaces, timed, report):
    rng = np.random.RandomState(55)
    store = build_office_bim(rng, "Bench", storeys, spaces,
                             5000.0, "TO-05-0001", 2001)
    model, timing = timed(translate_bim, store, "bld-0001")
    components = len(model.components)
    per_component_us = timing.mean * 1e6 / components
    report.header(EXPERIMENT, "translation to the common data format")
    report.record(EXPERIMENT, wall_seconds=timing.total)
    report.add(EXPERIMENT,
               f"BIM translate  {len(store):4d} records -> "
               f"{components:4d} components: "
               f"{timing.mean * 1e3:7.3f} ms "
               f"({per_component_us:6.1f} us/component)")


def test_sim_translation(timed, report):
    district = synthesize_district(seed=55, n_buildings=16, n_networks=1)
    sim = district.networks[0].sim
    model, timing = timed(translate_sim, sim, "net-0001")
    report.add(EXPERIMENT,
               f"SIM translate  {len(sim):4d} rows    -> "
               f"{len(model.components):4d} components: "
               f"{timing.mean * 1e3:7.3f} ms")


def test_gis_translation(timed, report):
    district = synthesize_district(seed=55, n_buildings=4)
    feature = district.gis.feature(district.buildings[0].feature_id)
    model, timing = timed(translate_gis_feature, feature, "bld-0001")
    assert model.geometry is not None
    report.add(EXPERIMENT,
               f"GIS translate  1 feature     -> geometry+props:       "
               f"{timing.mean * 1e6:7.1f} us")


def _big_model():
    rng = np.random.RandomState(56)
    store = build_office_bim(rng, "Enc", 6, 8, 9000.0, "TO-05-0002", 1995)
    return translate_bim(store, "bld-0002")


@pytest.mark.parametrize("fmt", ["json", "xml"])
def test_encode(fmt, timed, report):
    model = _big_model()
    text, timing = timed(serialization.encode, model, fmt)
    report.add(EXPERIMENT,
               f"encode {fmt:<4s} ({len(text):6d} chars): "
               f"{timing.mean * 1e3:7.3f} ms")


@pytest.mark.parametrize("fmt", ["json", "xml"])
def test_decode(fmt, timed, report):
    model = _big_model()
    text = serialization.encode(model, fmt)
    decoded, timing = timed(serialization.decode, text, fmt)
    assert decoded == model
    report.add(EXPERIMENT,
               f"decode {fmt:<4s} ({len(text):6d} chars): "
               f"{timing.mean * 1e3:7.3f} ms")
