"""Hierarchical topic grammar for the event-driven middleware.

Topics are ``/``-separated hierarchies mirroring the district ontology,
e.g. ``district/dst-0001/building/bld-0007/device/dev-00a3/power``.
Subscription filters may use ``+`` to match exactly one level and a
trailing ``#`` to match any remainder (MQTT semantics, which the
SEEMPubS middleware the paper builds on also adopted).
:class:`SubscriptionIndex` matches one concrete topic against many
filters at once, for the broker's fan-out.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

SINGLE = "+"
MULTI = "#"


def validate_topic(topic: str) -> List[str]:
    """Split and validate a concrete (wildcard-free) topic."""
    levels = _split(topic)
    for level in levels:
        if level in (SINGLE, MULTI):
            raise ConfigurationError(
                f"wildcard {level!r} not allowed in concrete topic {topic!r}"
            )
    return levels


def validate_filter(pattern: str) -> List[str]:
    """Split and validate a subscription filter."""
    levels = _split(pattern)
    for i, level in enumerate(levels):
        if level == MULTI and i != len(levels) - 1:
            raise ConfigurationError(
                f"'#' must be the last level in filter {pattern!r}"
            )
    return levels


def _split(text: str) -> List[str]:
    if not text or text.startswith("/") or text.endswith("/"):
        raise ConfigurationError(f"malformed topic {text!r}")
    levels = text.split("/")
    if any(level == "" for level in levels):
        raise ConfigurationError(f"empty level in topic {text!r}")
    return levels


def topic_matches(pattern: str, topic: str) -> bool:
    """True if concrete *topic* matches subscription *pattern*."""
    filter_levels = validate_filter(pattern)
    topic_levels = validate_topic(topic)
    i = 0
    for i, flevel in enumerate(filter_levels):
        if flevel == MULTI:
            return True
        if i >= len(topic_levels):
            return False
        if flevel != SINGLE and flevel != topic_levels[i]:
            return False
    return len(filter_levels) == len(topic_levels)


def join(*levels: str) -> str:
    """Join topic levels, validating each is non-empty and slash-free."""
    for level in levels:
        if not level or "/" in level:
            raise ConfigurationError(f"bad topic level {level!r}")
    return "/".join(levels)


# --------------------------------------------------------------------------
# canonical topic layout used across the infrastructure


def measurement_topic(district_id: str, entity_id: str, device_id: str,
                      quantity: str) -> str:
    """Topic on which a device-proxy publishes one device quantity."""
    return join("district", district_id, "entity", entity_id,
                "device", device_id, quantity)


def measurement_filter(district_id: str = SINGLE, entity_id: str = SINGLE,
                       device_id: str = SINGLE, quantity: str = SINGLE
                       ) -> str:
    """Filter over measurement topics; unset levels default to ``+``."""
    return join("district", district_id, "entity", entity_id,
                "device", device_id, quantity)


def district_filter(district_id: str) -> str:
    """Filter matching every event of one district."""
    return join("district", district_id) + "/" + MULTI


def registry_topic(district_id: str) -> str:
    """Topic announcing proxy registrations in a district."""
    return join("registry", district_id)


def actuation_topic(device_id: str) -> str:
    """Topic carrying actuation results for a device."""
    return join("actuation", device_id)


def topic_device(topic: str) -> str:
    """Extract the device id from a canonical measurement topic."""
    levels = validate_topic(topic)
    for i, level in enumerate(levels[:-1]):
        if level == "device":
            return levels[i + 1]
    raise ConfigurationError(f"no device level in topic {topic!r}")


def topics_overlap(filters: Iterable[str], topic: str) -> bool:
    """True if any filter in *filters* matches *topic*."""
    return any(topic_matches(f, topic) for f in filters)


# --------------------------------------------------------------------------
# subscription index


class _Node:
    """One filter level in a :class:`SubscriptionIndex` trie."""

    __slots__ = ("literal", "plus", "here", "rest")

    def __init__(self) -> None:
        #: literal level -> child node
        self.literal: Dict[str, "_Node"] = {}
        #: child for a ``+`` level, if any filter has one here
        self.plus: Optional["_Node"] = None
        #: rank -> (sub_id, data) of filters that end at this node
        self.here: Dict[int, Tuple[int, Any]] = {}
        #: rank -> (sub_id, data) of filters ending in ``#`` below it
        self.rest: Dict[int, Tuple[int, Any]] = {}

    def empty(self) -> bool:
        return not (self.literal or self.plus or self.here or self.rest)


class SubscriptionIndex:
    """Subscription filters in a trie keyed by filter level.

    :meth:`match` walks a concrete topic's levels, following the
    literal and ``+`` child of every live node and collecting the
    ``#`` leaf at each depth — including the MQTT parent match, where
    ``a/#`` matches ``a``.  Its cost depends on the topic's depth and
    on how many filters share its prefixes, not on the number of
    subscriptions, so nothing is cached per topic.

    Every subscription gets a rank when first added; matches come back
    in rank order, which is the insertion order of a dict kept in step
    with :meth:`add`, :meth:`discard` and :meth:`clear`.  Re-adding a
    known ``sub_id`` keeps its rank, as re-assigning a dict key keeps
    its position.  Removing a subscription prunes the nodes it alone
    used, so the trie's size depends on the live filters only.
    """

    __slots__ = ("_root", "_entries", "_next_rank")

    def __init__(self) -> None:
        self._root = _Node()
        #: sub_id -> (rank, filter levels)
        self._entries: Dict[int, Tuple[int, Tuple[str, ...]]] = {}
        self._next_rank = 0

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, sub_id: int, pattern: str, data: Any) -> None:
        """Index *sub_id* under filter *pattern*; :meth:`match` returns
        it as ``(sub_id, data)``."""
        levels = tuple(validate_filter(pattern))
        entry = self._entries.get(sub_id)
        if entry is None:
            rank = self._next_rank
            self._next_rank += 1
        else:
            rank = entry[0]
            self._remove(rank, entry[1])
        self._entries[sub_id] = (rank, levels)
        leaf = self._leaf(levels)
        # only a re-added sub_id can rank below the leaf's last entry
        in_order = not leaf or rank > next(reversed(leaf))
        leaf[rank] = (sub_id, data)
        if not in_order:
            ordered = sorted(leaf.items())
            leaf.clear()
            leaf.update(ordered)

    def discard(self, sub_id: int) -> None:
        """Drop *sub_id* if it is indexed."""
        entry = self._entries.pop(sub_id, None)
        if entry is not None:
            self._remove(*entry)

    def clear(self) -> None:
        """Drop every subscription."""
        self._root = _Node()
        self._entries.clear()
        self._next_rank = 0

    def match(self, levels: List[str]) -> List[Tuple[int, Any]]:
        """``(sub_id, data)`` of every filter matching the concrete
        topic split into *levels* (see :func:`validate_topic`), in rank
        order."""
        leaves = []
        nodes = [self._root]
        for level in levels:
            following = []
            for node in nodes:
                if node.rest:
                    leaves.append(node.rest)
                child = node.literal.get(level)
                if child is not None:
                    following.append(child)
                if node.plus is not None:
                    following.append(node.plus)
            if not following:
                break
            nodes = following
        else:
            for node in nodes:
                if node.here:
                    leaves.append(node.here)
                if node.rest:
                    leaves.append(node.rest)
        if len(leaves) == 1:
            return list(leaves[0].values())
        # each leaf is already in rank order: the sort merges the runs
        merged = sorted(item for leaf in leaves for item in leaf.items())
        return [entry for _rank, entry in merged]

    def node_count(self) -> int:
        """Trie nodes, the root included."""
        count, stack = 0, [self._root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.literal.values())
            if node.plus is not None:
                stack.append(node.plus)
        return count

    def _leaf(self, levels: Tuple[str, ...]) -> Dict[int, Tuple[int, Any]]:
        """The leaf map for *levels*, creating the path to it."""
        multi = levels[-1] == MULTI
        node = self._root
        for level in levels[:-1] if multi else levels:
            if level == SINGLE:
                if node.plus is None:
                    node.plus = _Node()
                node = node.plus
            else:
                child = node.literal.get(level)
                if child is None:
                    child = node.literal[level] = _Node()
                node = child
        return node.rest if multi else node.here

    def _remove(self, rank: int, levels: Tuple[str, ...]) -> None:
        """Take *rank* out of its leaf and prune emptied nodes."""
        multi = levels[-1] == MULTI
        path = levels[:-1] if multi else levels
        nodes = [self._root]
        for level in path:
            node = nodes[-1]
            nodes.append(node.plus if level == SINGLE
                         else node.literal[level])
        node = nodes[-1]
        del (node.rest if multi else node.here)[rank]
        for depth in range(len(path) - 1, -1, -1):
            if not nodes[depth + 1].empty():
                break
            parent, level = nodes[depth], path[depth]
            if level == SINGLE:
                parent.plus = None
            else:
                del parent.literal[level]
