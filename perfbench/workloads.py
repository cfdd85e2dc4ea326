"""The three benchmark workloads, driven through ``repro``'s public API.

Every workload follows one shape, so ``run.py`` can time them alike:

* ``setup()`` deploys the district and warms it up (timed as
  ``setup_s``, never part of a rate);
* ``step()`` does one measured step — one simulated minute of the
  district for the open-loop workloads, one dashboard view for the
  closed-loop one;
* ``prefix_done`` turns true once the deterministic prefix of the
  window has run.  The ``_sim_`` metrics and the fingerprint of
  simulated counters are taken over that prefix only, so they repeat
  exactly for a seed however long the host-timed window lasts;
* ``check()`` drains the district and verifies the outputs, returning
  ``(attempted, failed, problems)``.

Inputs come from ``--seed`` alone: it is ``ScenarioConfig.seed`` and
seeds every choice the benchmark makes (poll offsets, subscriber
buildings, view order).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.middleware.peer import connect
from repro.middleware.topics import topic_matches
from repro.ontology import AreaQuery
from repro.proxies.device_proxy import BatchConfig
from repro.simulation.scenario import DeployedDistrict, ScenarioConfig, \
    deploy
from repro.simulation.soak import CHURN_POOL
from repro.storage.blocks import TsdbConfig
from repro.storage.query import RangeQuery, RollupQuery

import layers
from measure import percentile

#: simulated seconds one open-loop step advances the district: one
#: whole sampling cycle (every device period is a multiple of it)
STEP_S = 60.0
#: simulated seconds between the clock ticks inside one step
CHUNK_S = 5.0
#: simulated seconds of warm-up after deploy (registrations land,
#: first samples flow) — part of set-up
WARMUP_S = 120.0
#: simulated seconds run after the window to let in-flight work land
DRAIN_S = 15.0


def _untimed() -> None:
    pass


def _soak_config(seed: int, batching: Optional[BatchConfig]
                 ) -> ScenarioConfig:
    """The O3 soak's deployment knobs at 60 buildings x 20 devices."""
    return ScenarioConfig(
        seed=seed, n_buildings=60, devices_per_building=20, n_networks=1,
        heartbeat_period=60.0, publish_buffer=256, peer_keepalive=120.0,
        proxy_batching=batching,
    )


def counters(d: DeployedDistrict) -> Dict[str, int]:
    """Simulated counters that must repeat exactly for one seed."""
    stats = d.network.stats
    return {
        "events": d.scheduler.events_processed,
        "messages": stats.messages_delivered,
        "bytes": stats.bytes_sent,
        "samples": d.measurement_db.ingested,
        "deliveries": d.broker.stats.fanout_deliveries,
        "published": d.broker.stats.published,
    }


class Workload:
    """State every workload shares: deployment, counters, checks."""

    name = ""
    #: what one unit of ``ops`` is, and what one step does
    op = ""
    step_unit = ""
    #: the workload's own names for generic metrics, printed as one note
    aliases: Dict[str, str] = {}

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.RandomState(seed)
        self.d: Optional[DeployedDistrict] = None
        self.ops = 0
        self.steps = 0
        self.fingerprint: Optional[Dict] = None
        self.failed = 0
        self.problems: List[str] = []
        #: called between slices of a step; the window's clock sets it
        self.tick = _untimed

    def setup(self) -> None:
        raise NotImplementedError

    def advance(self, seconds: float) -> None:
        """Run the district *seconds* simulated s, ticking every chunk."""
        scheduler = self.d.scheduler
        end = scheduler.now + seconds
        while scheduler.now < end:
            scheduler.run_until(min(scheduler.now + CHUNK_S, end))
            self.tick()

    def step(self) -> None:
        raise NotImplementedError

    @property
    def prefix_done(self) -> bool:
        return self.fingerprint is not None

    @property
    def sim_samples(self) -> List[float]:
        """The simulated latencies (ms) behind the ``sim_`` metrics."""
        raise NotImplementedError

    @property
    def sim_count(self) -> int:
        return len(self.sim_samples)

    def sim_values(self) -> Tuple[float, float]:
        """(p50, p99) of the workload's simulated latency, in ms."""
        samples = self.sim_samples
        return percentile(samples, 50), percentile(samples, 99)

    def _fingerprint(self) -> Dict:
        fingerprint = dict(counters(self.d))
        fingerprint["sim_p50_ms"], fingerprint["sim_p99_ms"] = \
            self.sim_values()
        return fingerprint

    def named_metrics(self, window) -> List[Tuple[str, float, str, int]]:
        """Readable metrics beyond the generic ones and their aliases."""
        raise NotImplementedError

    def rollup_served_ratio(self) -> float:
        """Share of rollup queries the TSDB answered from rollups."""
        return 0.0

    def miss(self, count: int, problem: str) -> None:
        if count:
            self.failed += count
            self.problems.append(problem)

    def check(self) -> Tuple[int, int, List[str]]:
        """Drain and verify; returns (attempted, failed, problems)."""
        raise NotImplementedError


class DistrictWorkload(Workload):
    """Open loop: the district runs in one-minute steps, polled."""

    #: simulated seconds of window whose results must repeat exactly
    prefix_s = 600.0
    step_unit = f"{STEP_S:g} simulated s"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.staleness: List[float] = []  # prefix polls, simulated s

    def _start_window(self) -> None:
        self.t0 = self.d.scheduler.now
        self.prefix_end = self.t0 + self.prefix_s
        self.poll_at = self.t0 + self.rng.uniform(0.0, 60.0)
        self.devices = sorted(self.d.devices)

    def step(self) -> None:
        """Advance the district one step, polling staleness on the way.

        The step runs in CHUNK_S slices with a ``tick`` after each, so
        the clock can probe host speed inside long steps.
        """
        run_until = self.d.scheduler.run_until
        t = self.t0 + self.steps * STEP_S
        end = t + STEP_S
        while t < end:
            t = min(t + CHUNK_S, end)
            while self.poll_at <= t:
                run_until(self.poll_at)
                self._poll()
                minute = math.floor((self.poll_at - self.t0) / 60.0) + 1
                self.poll_at = self.t0 + minute * 60.0 + \
                    self.rng.uniform(0.0, 60.0)
            run_until(t)
            self.tick()
        self.steps += 1
        if self.fingerprint is None and end >= self.prefix_end:
            self.fingerprint = self._fingerprint()

    def _poll(self) -> None:
        """Staleness of every reporting device: now - newest sample."""
        if self.fingerprint is not None:
            return  # like the _sim_ metrics, staleness covers the prefix
        now = self.d.scheduler.now
        freshness = self.d.measurement_db.freshness
        for device_id in self.devices:
            last = freshness(device_id)
            if last is not None:
                self.staleness.append(now - last)

    def named_metrics(self, window) -> List[Tuple[str, float, str, int]]:
        return [
            ("staleness_p50_sim_s", percentile(self.staleness, 50), "s",
             len(self.staleness)),
            ("staleness_p99_sim_s", percentile(self.staleness, 99), "s",
             len(self.staleness)),
        ]


class DistrictSoak(DistrictWorkload):
    """O3 mix at 60 x 20 devices: leases, batched ingest, resolves, churn."""

    name = "district-soak"
    op = "sample stored"
    aliases = {"ops_per_s": "ingest_samples_per_s",
               "sim_p50_ms": "ingest_lag_p50_sim_ms",
               "sim_p99_ms": "ingest_lag_p99_sim_ms"}

    def setup(self) -> None:
        d = self.d = deploy(_soak_config(
            self.seed, BatchConfig(max_samples=25, max_age=10.0)))
        self.client = d.client("soak-user", with_broker=False)
        self.query = AreaQuery(district_id=d.district_id)
        self.expected_entities = len(d.dataset.buildings) + \
            len(d.dataset.networks)
        self.churners = []
        self.churn_seq = 0
        self.churn_received = 0
        self.resolves = 0
        self.lags: List[float] = []
        self.advance(WARMUP_S)
        self._start_window()
        self._observe_ingest()

    def _observe_ingest(self) -> None:
        """Record, per sample, how long after its reading it was stored.

        Wraps the measurement DB's store insert on this one instance:
        the sample is queryable from that moment.  Only samples stored
        in the prefix are kept, so the list stays small and exact.
        """
        d = self.d
        store = d.measurement_db.store
        insert = layers.original(store, "insert")
        clock = d.scheduler.clock
        lags = self.lags

        def observed_insert(measurement) -> None:
            insert(measurement)
            now = clock.now
            if now < self.prefix_end:
                lags.append(now - measurement.timestamp)
        store.insert = observed_insert

    @property
    def sim_samples(self) -> List[float]:
        return [lag * 1e3 for lag in self.lags]

    def _churn(self) -> None:
        d = self.d
        self.churn_seq += 1
        peer = connect(d.network.add_host(f"soak-sub-{self.churn_seq}"),
                       d.broker_hosts)
        self.churners.append(peer.subscribe("district/#", self._received))
        if len(self.churners) > CHURN_POOL:
            self.churners.pop(0).unsubscribe()

    def _received(self, event) -> None:
        self.churn_received += 1

    def step(self) -> None:
        elapsed = self.steps * STEP_S
        if elapsed % 60.0 == 0.0:
            area = self.client.resolve(self.query)
            self.resolves += 1
            self.miss(int(len(area.entities) != self.expected_entities),
                      "a resolve missed district entities")
        if elapsed % 120.0 == 0.0:
            self._churn()
        samples = self.d.measurement_db.ingested
        super().step()
        self.ops += self.d.measurement_db.ingested - samples

    def check(self) -> Tuple[int, int, List[str]]:
        d = self.d
        d.stop_devices()
        for proxy in d.device_proxies.values():
            proxy.flush_batch()
        d.run(DRAIN_S)
        published = sum(p.measurements_published
                        for p in d.device_proxies.values())
        mdb = d.measurement_db
        self.miss(abs(published - mdb.ingested),
                  f"{published} samples published, {mdb.ingested} stored")
        self.miss(mdb.ingest_duplicates, "measurement DB saw duplicates")
        store = mdb.store
        stored = 0
        duplicates = 0
        for device_id in store.devices():
            for quantity in store.quantities(device_id):
                times = store.series(device_id, quantity).times
                stored += len(times)
                duplicates += len(times) - len(np.unique(times))
        self.miss(duplicates, f"{duplicates} samples stored twice")
        self.miss(abs(stored - mdb.ingested),
                  f"store holds {stored} samples, {mdb.ingested} ingested")
        return published + self.resolves, self.failed, self.problems


class LiveFanout(DistrictWorkload):
    """60 x 20 unbatched devices fanned out to 64 dashboard subscribers."""

    name = "live-fanout"
    prefix_s = 300.0
    op = "delivery"
    aliases = {"ops_per_s": "deliveries_per_s",
               "sim_p50_ms": "delivery_p50_sim_ms",
               "sim_p99_ms": "delivery_p99_sim_ms"}
    n_subscribers = 64

    def setup(self) -> None:
        d = self.d = deploy(_soak_config(self.seed, None))
        self.advance(WARMUP_S)
        self.t0 = self.prefix_end = math.inf
        district = d.district_id
        buildings = [b.entity_id for b in d.dataset.buildings]
        order = list(self.rng.permutation(len(buildings)))
        self.patterns: List[str] = []
        self.delivered = [0] * self.n_subscribers
        self.latencies: List[float] = []
        for i in range(self.n_subscribers):
            if i % 8 == 0:
                pattern = f"district/{district}/#"
            else:
                pattern = f"district/{district}/+/{buildings[order.pop()]}/#"
            peer = connect(d.network.add_host(f"dash-{i:02d}"),
                           d.broker_hosts)
            peer.subscribe(pattern, self._subscriber(i))
            self.patterns.append(pattern)
        self.advance(2.0)  # sub-acks and retained replays land
        # the publish log: every topic published from here on, counted
        # at the publishers, before the broker sees it
        self.published: Counter = Counter()
        for proxy in d.device_proxies.values():
            proxy.peer.publish = self._logged(proxy.peer.publish)
        self._start_window()

    def _logged(self, publish):
        published = self.published

        def logged_publish(topic, *args, **kwargs):
            published[topic] += 1
            return publish(topic, *args, **kwargs)
        return logged_publish

    def _subscriber(self, index: int):
        delivered = self.delivered
        latencies = self.latencies

        def on_event(event) -> None:
            if event.retained or event.published_at < self.t0:
                return
            delivered[index] += 1
            self.ops += 1
            if event.delivered_at < self.prefix_end:
                latencies.append(event.delivered_at - event.published_at)
        return on_event

    @property
    def sim_samples(self) -> List[float]:
        return [s * 1e3 for s in self.latencies]

    def named_metrics(self, window) -> List[Tuple[str, float, str, int]]:
        return super().named_metrics(window) + [
            ("ingest_samples_per_s", window.delta("samples") / window.wall,
             "1/s", window.delta("samples")),
        ]

    def check(self) -> Tuple[int, int, List[str]]:
        d = self.d
        d.stop_devices()
        d.run(DRAIN_S)
        expected_total = 0
        for index, pattern in enumerate(self.patterns):
            expected = sum(count for topic, count in self.published.items()
                           if topic_matches(pattern, topic))
            expected_total += expected
            self.miss(abs(self.delivered[index] - expected),
                      f"subscriber {index} ({pattern}) got "
                      f"{self.delivered[index]} of {expected} events")
        published = sum(p.measurements_published
                        for p in d.device_proxies.values())
        self.miss(abs(published - d.measurement_db.ingested),
                  f"{published} samples published, "
                  f"{d.measurement_db.ingested} stored")
        return expected_total + published, self.failed, self.problems


class AreaQueryWorkload(Workload):
    """A closed-loop dashboard opening building views over stored history."""

    name = "area-query"
    op = "view"
    step_unit = "one view"
    aliases = {"ops_per_s": "views_per_s",
               "step_p50_ms": "area_view_p50_ms",
               "sim_p50_ms": "area_view_sim_p50_ms"}
    #: views whose results must repeat exactly (p99 needs 1,000)
    prefix_views = 1000
    #: one view in this many has its series and rollup re-checked
    check_every = 8
    fill_s = 7200.0
    rollup_quantity = "power"

    def setup(self) -> None:
        d = self.d = deploy(ScenarioConfig(
            seed=self.seed, n_buildings=30, devices_per_building=10,
            n_networks=1, mdb_tsdb=TsdbConfig(),
            proxy_batching=BatchConfig(max_samples=25, max_age=10.0),
        ))
        self.advance(self.fill_s)
        d.stop_devices()
        self.advance(DRAIN_S)
        self.client = d.client("dashboard", with_broker=False)
        self.buildings = [b.entity_id for b in d.dataset.buildings]
        self.devices_of: Dict[str, set] = {}
        for spec in d.dataset.devices:
            self.devices_of.setdefault(spec.entity_id, set()).add(
                spec.device_id)
        self.local_db = {}
        for proxy in d.device_proxies.values():
            for device in proxy.devices():
                self.local_db[device.device_id] = proxy.database
        self.order: List[str] = []
        self.check_rng = np.random.RandomState([self.seed, 1])
        self.view_sim_ms: List[float] = []
        self.rollup_sources: Counter = Counter()
        self.unaligned_probes = 0
        self.unaligned_differ = 0

    def step(self) -> None:
        if not self.order:
            self.order = [self.buildings[i] for i in
                          self.rng.permutation(len(self.buildings))]
        building = self.order.pop()
        d = self.d
        now = d.scheduler.now
        model = self.client.build_area_model(
            AreaQuery(district_id=d.district_id, entity_ids=(building,)),
            with_data=True, data_start=now - 3600.0, data_end=now,
            data_bucket=60.0,
        )
        # the last two hours, start aligned to the step as a dashboard
        # asks for whole buckets (see README: unaligned starts)
        start = math.floor((now - 7200.0) / 900.0) * 900.0
        rollup = RollupQuery(building, self.rollup_quantity, start, now,
                             900.0)
        response = self.client.http.get(
            d.measurement_db.uri + "query_range",
            params=rollup.to_params())
        self.view_sim_ms.append((d.scheduler.now - now) * 1e3)
        self.ops += 1
        self.steps += 1
        self.pending_check = (building, now, model, rollup, response.body)
        if self.fingerprint is None and self.steps >= self.prefix_views:
            self.fingerprint = self._fingerprint()

    def verify_last(self) -> None:
        """Check the view just made; run outside the timed window."""
        building, now, model, rollup, body = self.pending_check
        entity = model.entity(building)
        self.miss(int(set(entity.source_kinds) != {"bim", "gis"}),
                  f"view of {building} lacks a source model")
        devices = {device.device_id for device in entity.devices}
        self.miss(int(devices != self.devices_of[building]),
                  f"view of {building} lacks devices")
        self.rollup_sources[str(body.get("source")).split(":")[0]] += 1
        if self.check_rng.randint(self.check_every):
            return
        bad = 0
        for device in entity.devices:
            query_fn = layers.original(self.local_db[device.device_id],
                                       "query")
            for quantity in device.quantities:
                query = RangeQuery(device.device_id, quantity,
                                   start=now - 3600.0, end=now,
                                   bucket=60.0, agg="mean")
                bad += entity.samples(device.device_id, quantity) != \
                    query_fn(query)
        self.miss(bad, f"view of {building}: {bad} series differ from "
                       "the proxy's local database")
        query_range = layers.original(self.d.measurement_db, "query_range")
        raw = query_range(RollupQuery(
            rollup.target, rollup.quantity, rollup.start, rollup.end,
            rollup.step, rollup.agg, prefer="raw"))
        served = [tuple(pair) for pair in body["samples"]]
        self.miss(int(not _same_buckets(raw, served)),
                  f"rollup of {building} differs from raw")
        # known defect, reported and not counted as a failure: with a
        # start inside a rollup bucket the rollup path drops the partial
        # first bucket that the raw path keeps
        unaligned = {prefer: query_range(RollupQuery(
            rollup.target, rollup.quantity, now - 7200.0, now,
            rollup.step, rollup.agg, prefer=prefer))
            for prefer in ("raw", "rollup")}
        self.unaligned_probes += 1
        self.unaligned_differ += not _same_buckets(unaligned["raw"],
                                                   unaligned["rollup"])

    @property
    def sim_samples(self) -> List[float]:
        return self.view_sim_ms[:self.prefix_views]

    def named_metrics(self, window) -> List[Tuple[str, float, str, int]]:
        steps = window.steps_ms
        return [
            ("area_view_p95_ms", percentile(steps, 95), "ms", len(steps)),
            ("unaligned_rollup_mismatches", self.unaligned_differ,
             "count", self.unaligned_probes),
        ]

    def rollup_served_ratio(self) -> float:
        served = sum(self.rollup_sources.values())
        return self.rollup_sources["rollup"] / served if served else 0.0

    def check(self) -> Tuple[int, int, List[str]]:
        return self.steps, self.failed, self.problems


def _same_buckets(a, b) -> bool:
    """Two bucket lists agree: same slots, values within float noise."""
    return len(a) == len(b) and all(
        t1 == t2 and math.isclose(v1, v2, rel_tol=1e-9, abs_tol=1e-9)
        for (t1, v1), (t2, v2) in zip(a, b))


WORKLOADS = {w.name: w for w in (DistrictSoak, AreaQueryWorkload,
                                 LiveFanout)}
