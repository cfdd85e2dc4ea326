"""Experiment C6 — ontology resolution at the master (§II).

"It receives data queries from the users, refers to the ontology to
get the interested data sources URIs."  Sweeps ontology size (total
nodes) and query selectivity, measuring the wall-clock cost of
:func:`repro.ontology.queries.resolve` — the master's hot path.

Expected shape: resolution is linear in the number of entities scanned,
and highly selective queries (explicit ids, tight bboxes) return far
smaller answers for the same scan cost.
"""

import pytest

from repro.datasources.geometry import BoundingBox
from repro.ontology.model import (
    DeviceNode,
    DistrictOntology,
    EntityNode,
)
from repro.ontology.queries import AreaQuery, resolve

EXPERIMENT = "C6"

ENTITY_COUNTS = (10, 100, 1000, 10_000)
DEVICES_PER_ENTITY = 8


def build_ontology(entities):
    onto = DistrictOntology()
    onto.add_district("dst-0001", "Bench District")
    grid = int(entities ** 0.5) + 1
    for i in range(entities):
        row, col = divmod(i, grid)
        node = EntityNode(
            entity_id=f"bld-{i + 1:04d}",
            entity_type="building",
            name=f"B{i}",
            proxy_uris={"bim": f"svc://proxy-bim-{i}/"},
            bounds=BoundingBox(col * 100.0, row * 100.0,
                               col * 100.0 + 40.0, row * 100.0 + 40.0),
        )
        for d in range(DEVICES_PER_ENTITY):
            quantities = ("power", "energy") if d == 0 else ("temperature",)
            node.add_device(DeviceNode(
                device_id=f"dev-{i * DEVICES_PER_ENTITY + d + 1:06d}",
                proxy_uri=f"svc://proxy-dev-{i}/",
                protocol="zigbee",
                quantities=quantities,
            ))
        onto.add_entity("dst-0001", node)
    return onto


@pytest.mark.parametrize("entities", ENTITY_COUNTS)
def test_whole_district_resolution(entities, timed, report):
    onto = build_ontology(entities)
    query = AreaQuery(district_id="dst-0001")
    resolved, timing = timed(resolve, onto, query)
    assert len(resolved.entities) == entities
    nodes = onto.node_count()
    mean_ms = timing.mean * 1e3
    report.header(EXPERIMENT, "ontology resolution vs size/selectivity")
    report.record(EXPERIMENT, wall_seconds=timing.total)
    report.add(EXPERIMENT,
               f"whole district   nodes={nodes:<7d} "
               f"entities={entities:<6d} resolve={mean_ms:9.3f} ms "
               f"({mean_ms * 1e3 / entities:6.2f} us/entity)")


@pytest.mark.parametrize("selectivity,label", [
    (0.01, "bbox-1%"),
    (0.25, "bbox-25%"),
])
def test_bbox_selectivity(selectivity, label, timed, report):
    entities = 10_000
    onto = build_ontology(entities)
    grid = int(entities ** 0.5) + 1
    span = grid * 100.0 * (selectivity ** 0.5)
    query = AreaQuery(district_id="dst-0001",
                      bbox=BoundingBox(0.0, 0.0, span, span))
    resolved, timing = timed(resolve, onto, query)
    fraction = len(resolved.entities) / entities
    report.add(EXPERIMENT,
               f"{label:<16s} nodes={onto.node_count():<7d} "
               f"matched={len(resolved.entities):<6d} "
               f"({fraction * 100:5.1f}%) "
               f"resolve={timing.mean * 1e3:9.3f} ms")


def test_quantity_filter(timed, report):
    onto = build_ontology(1000)
    query = AreaQuery(district_id="dst-0001", quantity="energy")
    resolved, timing = timed(resolve, onto, query)
    # only the first device of each entity senses energy
    assert resolved.device_count == 1000
    report.add(EXPERIMENT,
               f"quantity filter  nodes={onto.node_count():<7d} "
               f"devices matched={resolved.device_count:<6d} "
               f"resolve={timing.mean * 1e3:9.3f} ms")


def test_single_entity_lookup(timed, report):
    onto = build_ontology(10_000)
    query = AreaQuery(district_id="dst-0001",
                      entity_ids=("bld-5000",))
    resolved, timing = timed(resolve, onto, query)
    assert len(resolved.entities) == 1
    report.add(EXPERIMENT,
               f"single entity    nodes={onto.node_count():<7d} "
               f"matched=1      "
               f"resolve={timing.mean * 1e3:9.3f} ms")
