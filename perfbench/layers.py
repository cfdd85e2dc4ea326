"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps the public entry points of every layer of
``repro`` — on the class, or on the module global where a caller looks
the function up — with a span that records calls and *self time*: the
span's duration minus the part its child spans cover.  Nothing under
``src/`` changes; the wrappers only time and count, so a traced run does
exactly the simulated work of an untraced one (``run.py`` checks that).

Install before deploying: handlers bound at construction time (web
service ports, peer ports, device sampling tasks) capture the class
attribute when the component is built.

Counts of work come from the program's public counters read at the
edges of the deterministic prefix (``snapshot``), except where no
counter exists (calls, timeouts, retries, heap peaks), which the
wrappers count.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict

from repro.core import client as client_mod
from repro.core import master as master_mod
from repro.core.master import MasterNode
from repro.devices.base import SensorChannel
from repro.devices.firmware import DeviceFirmware, RadioLink
from repro.middleware import broker as broker_mod
from repro.middleware.peer import MiddlewarePeer
from repro.network import transport
from repro.network.scheduler import Scheduler
from repro.network.webservice import HttpClient, Router, WebService
from repro.protocols.base import available_protocols, make_adapter
from repro.proxies import base as proxy_base
from repro.proxies import database_proxy, device_proxy
from repro.storage import localdb, measurementdb

#: the self-time buckets, in report order
BUCKETS = (
    "scheduler.self_s", "transport.self_s", "http.self_s",
    "device.self_s", "codec.self_s", "proxy.self_s",
    "proxy.translate_self_s", "lineproto.self_s", "mdb.insert_self_s",
    "mdb.range_self_s", "localdb.self_s", "broker.self_s",
    "broker.match_self_s", "peer.self_s", "master.self_s",
    "master.resolve_self_s", "client.self_s", "client.integrate_self_s",
)


def original(obj, name: str) -> Callable:
    """*obj*'s method *name* with any tracing wrapper removed.

    Output checks call the program through this, so checking a result
    adds nothing to the traced counts and times.
    """
    fn = getattr(type(obj), name)
    return getattr(fn, "__wrapped__", fn).__get__(obj)


class Tracer:
    """Span stack, self-time buckets and call counters."""

    def __init__(self):
        self.self_s: Dict[str, float] = dict.fromkeys(BUCKETS, 0.0)
        self.calls: Dict[str, int] = defaultdict(int)
        self.peaks: Dict[str, int] = defaultdict(int)
        #: child time of each open span; the bottom entry collects the
        #: duration of every root span
        self._stack = [0.0]
        self.broker = None

    def reset(self) -> None:
        """Zero every bucket and counter (the window starts)."""
        for key in self.self_s:
            self.self_s[key] = 0.0
        self.calls.clear()
        self.peaks.clear()
        self._stack[:] = [0.0]

    def counts(self) -> Dict[str, int]:
        """A copy of the call counters and peaks, read now."""
        out = dict(self.calls)
        out.update(self.peaks)
        return out

    @property
    def traced_s(self) -> float:
        """Host seconds inside any root span since the last reset."""
        return self._stack[0]

    # -- wrappers ---------------------------------------------------------

    def span(self, fn: Callable, bucket: str, count: str = "",
             before: Callable = None, after: Callable = None) -> Callable:
        """Wrap *fn* in a span charged to *bucket*.

        *count* names a call counter; *before(args, kwargs)* and
        *after(result)* observe the call where a count needs it.
        """
        stack = self._stack
        selfs = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if count:
                calls[count] += 1
            if before is not None:
                before(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                selfs[bucket] += elapsed - stack.pop()
                stack[-1] += elapsed
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def patch(self, owner, name: str, bucket: str, **kw) -> None:
        """Replace ``owner.name`` (a class or module) by its span."""
        fn = vars(owner)[name]
        setattr(owner, name, self.span(fn, bucket, **kw))

    def patch_routes(self, cls, bucket: str) -> None:
        """Span every web-service route handler a class defines."""
        for name in [n for n in vars(cls) if n.endswith("_route")]:
            self.patch(cls, name, bucket)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry points (call before deploying)."""
        calls = self.calls
        peaks = self.peaks

        def count(key: str, n: int = 1) -> None:
            calls[key] += n

        # network.scheduler: the root spans
        self.patch(Scheduler, "run_until", "scheduler.self_s")
        self.patch(Scheduler, "step", "scheduler.self_s")

        # network.transport
        def heap_peak(args, _kwargs) -> None:
            pending = args[0].scheduler.pending
            if pending > peaks["scheduler.heap_peak"]:
                peaks["scheduler.heap_peak"] = pending

        self.patch(transport.Network, "send", "transport.self_s",
                   before=heap_peak)
        self.patch(transport.Network, "_deliver", "transport.self_s")
        size = self.span(transport.estimate_size, "transport.self_s",
                         count="transport.size_estimates")
        for module in (transport, broker_mod, proxy_base, master_mod):
            module.estimate_size = size

        # network.webservice
        def status(response) -> None:
            calls["http.requests"] += 1
            if not 200 <= response.status < 300:
                calls["http.non2xx"] += 1

        def timeout(args, _kwargs) -> None:
            client, request_id = args[0], args[1]
            future = client._pending.get(request_id)
            if future is not None and not future.done:
                calls["http.timeouts"] += 1

        self.patch(WebService, "_on_message", "http.self_s")
        self.patch(WebService, "_respond", "http.self_s")
        self.patch(Router, "dispatch", "http.self_s", after=status)
        for name in ("request", "call", "_on_reply"):
            self.patch(HttpClient, name, "http.self_s")
        self.patch(HttpClient, "_expire", "http.self_s", before=timeout)
        self.patch(HttpClient, "_retry_event", "http.self_s",
                   before=lambda args, kwargs: count(
                       "http.retries", int(not kwargs.get("exhausted"))))

        # devices + protocols: the dedicated layer
        self.patch(DeviceFirmware, "_sample", "device.self_s")
        self.patch(RadioLink, "uplink", "device.self_s")
        self.patch(SensorChannel, "read", "device.self_s",
                   count="device.reads")
        codecs = {"encode_readings": "codec.frames_encoded",
                  "decode_frame": "codec.frames_decoded"}
        patched = set()
        for protocol in available_protocols():
            for cls in type(make_adapter(protocol)).__mro__:
                for name in codecs:
                    if name in vars(cls) and (cls, name) not in patched \
                            and not getattr(vars(cls)[name],
                                            "__isabstractmethod__", False):
                        patched.add((cls, name))
                        self.patch(cls, name, "codec.self_s",
                                   count=codecs[name])

        # proxies: device proxy, database proxies, translators
        for name in ("_on_frame", "_ingest", "flush_batch"):
            self.patch(device_proxy.DeviceProxy, name, "proxy.self_s",
                       count="proxy.samples_in" if name == "_ingest"
                       else "")
        for cls in (proxy_base.Proxy, device_proxy.DeviceProxy,
                    database_proxy.BimProxy, database_proxy.SimProxy,
                    database_proxy.GisProxy):
            self.patch_routes(cls, "proxy.self_s")
        for name in ("translate_bim", "translate_sim",
                     "translate_gis_feature"):
            self.patch(database_proxy, name, "proxy.translate_self_s",
                       count="proxy.models_translated")

        # common.lineproto, where its callers look it up
        self.patch(device_proxy, "encode_frame", "lineproto.self_s",
                   count="lineproto.frames",
                   before=lambda args, _kwargs: count(
                       "lineproto.lines", len(args[0])))
        self.patch(measurementdb, "decode_frame", "lineproto.self_s")

        # storage: measurement DB (+ its store, see attach) and the
        # proxies' local databases
        self.patch(measurementdb.MeasurementDatabase, "_on_event",
                   "mdb.insert_self_s")
        self.patch(measurementdb.MeasurementDatabase, "query_range",
                   "mdb.range_self_s", count="mdb.range_queries")
        self.patch_routes(measurementdb.MeasurementDatabase,
                          "mdb.range_self_s")
        self.patch(localdb.LocalDatabase, "insert", "localdb.self_s")
        self.patch(localdb.LocalDatabase, "query", "localdb.self_s",
                   count="localdb.queries")

        # middleware: broker, peer, topics
        def pending_peak(_result) -> None:
            pending = self.broker.pending_delivery_count() \
                if self.broker is not None else 0
            if pending > peaks["broker.pending_peak"]:
                peaks["broker.pending_peak"] = pending

        def peer_frame(args, _kwargs) -> None:
            if args[1].payload.get("kind") == "event":
                calls["peer.callbacks"] += 1

        self.patch(broker_mod.Broker, "_on_message", "broker.self_s",
                   after=pending_peak)
        self.patch(broker_mod, "topic_matches", "broker.match_self_s",
                   count="broker.topic_matches")
        self.patch(MiddlewarePeer, "_on_message", "peer.self_s",
                   before=peer_frame)
        for name in ("publish", "subscribe"):
            self.patch(MiddlewarePeer, name, "peer.self_s")

        # core + ontology: master, client, integration
        self.patch_routes(MasterNode, "master.self_s")
        MasterNode._resolve_route = self.span(
            MasterNode._resolve_route.__wrapped__, "master.resolve_self_s")
        self.patch(MasterNode, "resolve_area", "master.resolve_self_s")
        for name in ("build_area_model", "resolve"):
            self.patch(client_mod.DistrictClient, name, "client.self_s")
        self.patch(client_mod, "integrate", "client.integrate_self_s")

    def attach(self, deployment) -> None:
        """Per-deployment hooks: the measurement DB's own store."""
        self.broker = deployment.broker
        store = deployment.measurement_db.store
        insert = vars(store).get("insert") or original(store, "insert")
        store.insert = self.span(insert, "mdb.insert_self_s")


def snapshot(d) -> Dict[str, float]:
    """Public counters of every layer, read at a window edge."""
    stats = d.network.stats
    mdb = d.measurement_db
    proxies = list(d.device_proxies.values())
    return {
        "scheduler.events": d.scheduler.events_processed,
        "scheduler.compactions": d.scheduler.compactions,
        "transport.messages": stats.messages_delivered,
        "transport.bytes": stats.bytes_sent,
        "transport.dropped": stats.messages_dropped,
        "codec.frames_rejected": sum(p.frames_rejected for p in proxies),
        "radio.frames_dropped": sum(f.link.frames_dropped
                                    for f in d.firmwares),
        "proxy.batches": sum(p.batch_frames_published for p in proxies),
        "proxy.batch_samples": sum(p.batch_samples_published
                                   for p in proxies),
        "mdb.inserts": mdb.ingested,
        "mdb.duplicates": mdb.ingest_duplicates,
        "mdb.rejected": mdb.rejected,
        "broker.published": d.broker.stats.published,
        "broker.deliveries": d.broker.stats.fanout_deliveries,
        "broker.redeliveries": d.broker.stats.redeliveries,
        "master.resolves": d.master.resolves_served,
        "master.registrations": d.master.registrations,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(before: Dict, after: Dict, calls: Dict[str, int]
                  ) -> Dict[str, float]:
    """Every per-layer count and ratio between two snapshots.

    *calls* holds the tracer's call counters and peaks over the same
    interval.  Self times are the tracer's own (``Tracer.self_s``).
    """
    delta = {k: after[k] - before[k] for k in before}
    calls = defaultdict(int, calls)
    out: Dict[str, float] = {}
    for key in ("scheduler.events", "scheduler.compactions",
                "transport.messages", "transport.bytes",
                "transport.dropped", "codec.frames_rejected",
                "radio.frames_dropped", "proxy.batches", "mdb.inserts",
                "mdb.duplicates", "mdb.rejected", "broker.published",
                "broker.deliveries", "broker.redeliveries",
                "master.resolves", "master.registrations"):
        out[key] = delta[key]
    for key in ("transport.size_estimates", "http.requests",
                "http.non2xx", "http.timeouts", "http.retries",
                "device.reads", "codec.frames_encoded",
                "codec.frames_decoded", "proxy.samples_in",
                "proxy.models_translated", "lineproto.frames",
                "lineproto.lines", "mdb.range_queries", "localdb.queries",
                "broker.topic_matches", "peer.callbacks"):
        out[key] = calls[key]
    out["scheduler.heap_peak"] = calls["scheduler.heap_peak"]
    out["broker.pending_peak"] = calls["broker.pending_peak"]
    out["transport.msgs_per_sample"] = _ratio(
        delta["transport.messages"], delta["mdb.inserts"])
    out["proxy.samples_per_batch"] = _ratio(
        delta["proxy.batch_samples"], delta["proxy.batches"])
    out["broker.fanout_per_publish"] = _ratio(
        delta["broker.deliveries"], delta["broker.published"])
    out["broker.matches_per_publish"] = _ratio(
        calls["broker.topic_matches"], delta["broker.published"])
    return out
