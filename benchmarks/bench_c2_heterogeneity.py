"""Experiment C2 — interoperability across heterogeneous devices (§I/§II).

Deploys one building whose devices are spread across a growing protocol
mix (1 -> 4 protocols) and verifies the framework's interoperability
claim quantitatively:

* **correctness**: every device's measured latest value matches its
  ground-truth profile within the protocol's quantisation error,
  regardless of protocol mix;
* **cost**: the per-sample pipeline cost (decode -> store -> publish)
  stays flat as the mix grows — heterogeneity is absorbed by the
  adapters, not paid for at integration time.

The benchmark table reports the wall-clock cost of one uplink frame
through the proxy pipeline at each mix size.
"""

import pytest

from repro.devices.base import SimulatedDevice
from repro.devices.firmware import DeviceFirmware, RadioLink
from repro.devices.profiles import ConstantProfile
from repro.middleware.broker import Broker
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.protocols import make_adapter
from repro.proxies.device_proxy import DeviceProxy

EXPERIMENT = "C2"

PROTOCOL_ADDRESSES = {
    "zigbee": "00:12:4b:00:00:00:c2:{i:02x}",
    "ieee802154": "0xc2{i:02x}",
    "enocean": "0200c2{i:02x}",
    "opcua": "PLCc2.Dev{i:02d}",
    "coap": "fd00::c2{i:02x}",
    "ble": "c4:7c:8d:00:c2:{i:02x}",
}
MIXES = (
    ("zigbee",),
    ("zigbee", "ieee802154"),
    ("zigbee", "ieee802154", "enocean"),
    ("zigbee", "ieee802154", "enocean", "opcua"),
    ("zigbee", "ieee802154", "enocean", "opcua", "coap", "ble"),
)


def build_mixed_deployment(protocols, devices_per_protocol=4):
    net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
    Broker(net.add_host("broker"))
    proxies = {}
    truths = {}
    firmwares = []
    for protocol in protocols:
        proxy = DeviceProxy(net.add_host(f"proxy-{protocol}"),
                            make_adapter(protocol), "broker", "dst-0001")
        proxies[protocol] = proxy
        for i in range(devices_per_protocol):
            device_id = f"dev-{protocol[:2]}{i:02d}"
            watts = 500.0 + 137.0 * i
            device = SimulatedDevice(
                device_id, protocol,
                PROTOCOL_ADDRESSES[protocol].format(i=i), "bld-0001",
            )
            if protocol == "enocean":
                device.add_sensor("power", ConstantProfile(watts), 60.0)
            else:
                device.add_sensor("power", ConstantProfile(watts), 60.0)
                device.add_sensor("temperature", ConstantProfile(21.0),
                                  60.0)
            truths[device_id] = watts
            link = RadioLink(net.scheduler, latency=0.01)
            proxy.attach_device(device, link)
            firmware = DeviceFirmware(device, make_adapter(protocol),
                                      link, net.scheduler)
            firmware.start()
            firmwares.append(firmware)
    return net, proxies, truths


@pytest.mark.parametrize("protocols", MIXES,
                         ids=lambda p: f"{len(p)}proto")
def test_heterogeneous_mix(protocols, timed, report):
    net, proxies, truths = build_mixed_deployment(protocols)
    with report.measure(EXPERIMENT, net):
        net.scheduler.run_until(301.0)

    # correctness: every device's value matches ground truth
    worst_error = 0.0
    for protocol, proxy in proxies.items():
        for device in proxy.devices():
            _t, value = proxy.database.latest(device.device_id, "power")
            truth = truths[device.device_id]
            error = abs(value - truth) / truth
            worst_error = max(worst_error, error)
            assert error < 0.01, (
                f"{device.device_id} ({protocol}) measured {value}, "
                f"truth {truth}"
            )

    # cost: one frame through decode -> store -> publish, wall clock
    protocol = protocols[-1]
    proxy = proxies[protocol]
    device = proxy.devices()[0]
    adapter = make_adapter(protocol)
    if protocol == "enocean":
        adapter.decode_frame(
            adapter.encode_teach_in(device.address, "A5-12-01")
        )
        proxy.adapter.decode_frame(
            proxy.adapter.encode_teach_in(device.address, "A5-12-01")
        )
    frame = adapter.encode_readings(device.address, [("power", 750.0)],
                                    400.0)

    _, timing = timed(proxy._on_frame, frame)
    mean_us = timing.mean * 1e6
    samples = sum(p.database.sample_count() for p in proxies.values())
    report.header(EXPERIMENT,
                  "heterogeneity: correctness and per-sample cost vs "
                  "protocol mix")
    report.add(EXPERIMENT,
               f"protocols={len(protocols)} ({'+'.join(protocols)})"
               f"  samples={samples:<5d} worst rel. error="
               f"{worst_error * 100:.3f}%"
               f"  pipeline cost={mean_us:7.1f} us/frame")
