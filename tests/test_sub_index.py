"""Tests for the broker's subscription index (the topic-level trie).

The index decides who receives every event, so it is checked against
the plain definition: the ``_subs`` entries whose filter matches the
topic under :func:`topic_matches`, in ``_subs`` order, each with the
wire-size delta of its ``sub_id`` key.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.middleware.broker import BROKER_PORT, Broker
from repro.middleware.peer import connect
from repro.middleware.topics import (
    SubscriptionIndex,
    topic_matches,
    validate_topic,
)
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Message, Network

HOSTS = ("h0", "h1", "h2", "h3")
PATTERNS = ("a", "a/#", "#", "+", "a/+", "a/b", "+/b", "a/+/#", "b/#",
            "a/b/+", "+/+/+", "a/b/c/#")
#: probes: ``a/#`` vs ``a``, a bare ``#``, trailing ``+`` and the
#: dead-letter topics the broker fans out on
TOPICS = ("a", "b", "a/b", "b/b", "a/c", "a/b/c", "c/d/e", "a/b/c/d",
          "deadletter/a", "deadletter/a/b")


def oracle(broker, topic):
    return [(sub_id, len(str(sub_id)) + 12)
            for sub_id, sub in broker._subs.items()
            if topic_matches(sub.pattern, topic)]


def assert_index_agrees(broker):
    assert len(broker._index) == len(broker._subs)
    for topic in TOPICS:
        assert broker._index.match(validate_topic(topic)) == \
            oracle(broker, topic), topic


def frame(broker, sender, payload):
    now = broker.host.network.scheduler.now
    broker._on_message(Message(sender, broker.name, BROKER_PORT, payload,
                               0, now, now))


def fresh_broker():
    net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
    broker = Broker(net.add_host("broker"), max_delivery_attempts=2)
    for name in HOSTS + ("pub",):
        net.add_host(name)
    return net, broker


operation = st.one_of(
    st.tuples(st.just("subscribe"), st.sampled_from(HOSTS),
              st.sampled_from(PATTERNS),
              st.one_of(st.none(), st.integers(0, 3)), st.booleans()),
    st.tuples(st.just("unsubscribe"), st.integers(0, 30)),
    st.tuples(st.just("publish"), st.sampled_from(TOPICS[:8])),
    st.tuples(st.just("kill"), st.sampled_from(HOSTS)),
    st.tuples(st.just("expire")),
    st.tuples(st.just("reset")),
    st.tuples(st.just("restore")),
    st.tuples(st.just("replay_sub"), st.integers(1, 30),
              st.sampled_from(PATTERNS), st.sampled_from(HOSTS)),
    st.tuples(st.just("replay_unsub"), st.integers(1, 30)),
)


def apply(net, broker, op):
    kind = op[0]
    if kind == "subscribe":
        _, host, pattern, token, ack = op
        if net.has_host(host):
            frame(broker, host, {"verb": "subscribe", "pattern": pattern,
                                 "port": "p", "token": token, "ack": ack})
    elif kind == "unsubscribe":
        frame(broker, "pub", {"verb": "unsubscribe", "sub_id": op[1]})
    elif kind == "publish":
        # fans out, and reaps subscribers whose host has gone
        frame(broker, "pub", {"verb": "publish", "topic": op[1],
                              "payload": 1})
    elif kind == "kill":
        net._hosts.pop(op[1], None)
    elif kind == "expire":
        # ack timeouts: redeliver, reap dead subscribers, dead-letter
        for delivery in list(broker._deliveries.values()):
            broker._check_delivery(delivery.delivery_id,
                                   delivery.generation)
    elif kind == "reset":
        broker.reset()
    elif kind == "restore":
        broker.restore_state(broker.state_snapshot())
    elif kind == "replay_sub":
        _, sub_id, pattern, host = op
        broker.apply_op({"op": "sub", "sub_id": sub_id, "pattern": pattern,
                         "subscriber": host, "port": "p"})
    elif kind == "replay_unsub":
        broker.apply_op({"op": "unsub", "sub_id": op[1]})


@settings(max_examples=150, deadline=None)
@given(st.lists(operation, max_size=40))
def test_index_matches_subs_after_every_operation(ops):
    net, broker = fresh_broker()
    for op in ops:
        apply(net, broker, op)
        assert_index_agrees(broker)


level = st.sampled_from(("a", "b", "c"))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(
        st.lists(st.one_of(level, st.just("+")), max_size=3),
        st.booleans(),
    ), max_size=12),
    st.lists(st.lists(level, min_size=1, max_size=4), min_size=1,
             max_size=6),
)
def test_index_agrees_with_topic_matches(filters, topics):
    index = SubscriptionIndex()
    patterns = {}
    for sub_id, (levels, multi) in enumerate(filters):
        if multi:
            levels = levels + ["#"]
        if not levels:
            continue
        patterns[sub_id] = "/".join(levels)
        index.add(sub_id, patterns[sub_id], sub_id * 10)
    for levels in topics:
        topic = "/".join(levels)
        assert index.match(levels) == [
            (sub_id, sub_id * 10) for sub_id, pattern in patterns.items()
            if topic_matches(pattern, topic)
        ]


def test_re_added_sub_id_keeps_its_place():
    # re-assigning a dict key keeps its position; the index agrees
    index = SubscriptionIndex()
    index.add(1, "a/#", None)
    index.add(2, "a/b", None)
    index.add(3, "a/+", None)
    index.add(1, "a/b", None)  # moved to another leaf, still first
    assert [sub_id for sub_id, _ in index.match(["a", "b"])] == [1, 2, 3]
    index.add(9, "a/b", None)
    index.add(2, "a/b", None)  # same filter again, same place
    assert [sub_id for sub_id, _ in index.match(["a", "b"])] == \
        [1, 2, 3, 9]


def test_node_count_returns_to_baseline_after_churn():
    net, broker = fresh_broker()
    frame(broker, "h0", {"verb": "subscribe", "pattern": "a/+/#",
                         "port": "p"})
    baseline = broker._index.node_count()
    for i in range(10_000):
        frame(broker, "h1", {"verb": "subscribe",
                             "pattern": f"a/{i}/x{i % 7}/+/#",
                             "port": "p"})
        sub_id = broker._next_sub_id - 1
        frame(broker, "h1", {"verb": "unsubscribe", "sub_id": sub_id})
    assert broker.subscription_count() == 1
    assert broker._index.node_count() == baseline


def make_peer(net, name):
    return connect(net.add_host(name), "broker")


class TestSubscriptionIndex:
    """Index-level equivalents of the deleted match cache's tests."""

    def test_index_entry_appears_on_subscribe(self):
        net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
        broker = Broker(net.add_host("broker"))
        make_peer(net, "p").subscribe("t/#", lambda e: None)
        net.scheduler.run_until_idle()
        (sub_id,) = broker._subs
        assert len(broker._index) == 1
        assert broker._index.match(["t", "1"]) == \
            [(sub_id, len(str(sub_id)) + 12)]

    def test_reset_empties_index(self):
        net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
        broker = Broker(net.add_host("broker"))
        peer = make_peer(net, "p")
        peer.subscribe("t/#", lambda e: None)
        net.scheduler.run_until_idle()
        broker.reset()
        assert len(broker._index) == 0
        assert broker._index.node_count() == 1
        assert broker._index.match(["t", "1"]) == []

    def test_index_size_bounded_by_live_subscriptions(self):
        # publishing to ever more topics leaves no per-topic state
        net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
        broker = Broker(net.add_host("broker"))
        peer = make_peer(net, "p")
        peer.subscribe("t/#", lambda e: None)
        net.scheduler.run_until_idle()
        nodes = broker._index.node_count()
        for i in range(2_000):
            peer.publish(f"t/{i}", None)
        net.scheduler.run_until_idle()
        assert broker._index.node_count() == nodes == 2
        assert len(broker._index) == broker.subscription_count() == 1
