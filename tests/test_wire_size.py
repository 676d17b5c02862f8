"""Wire sizing and the event heap against their plain definitions.

``wire_size`` dispatches on exact type, sizes scalar elements inline,
sizes a dict's keys once per key shape, and a ``Route`` keeps the size
it was first sent with. The reference below is the recursive
``isinstance`` definition of the size model, and both must agree on
random nested payloads, on payloads that reuse a few key shapes, and
across hops. The clock cases pin the heap's ``(time, seq, event)``
entries: FIFO among equal times and lazy cancellation.
"""

import itertools
import random
from collections import namedtuple
from enum import IntEnum

import pytest

from repro.core.network import PierConfig, PierNetwork
from repro.dht import messages
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.sim.node import SimNode
from repro.util import serde
from repro.util.serde import wire_size


def reference_wire_size(value):
    """The size model, one ``isinstance`` test at a time."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return 4 + len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return 4 + len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 4 + sum(reference_wire_size(v) for v in value)
    if isinstance(value, dict):
        return 4 + sum(reference_wire_size(k) + reference_wire_size(v)
                       for k, v in value.items())
    size_hint = getattr(value, "wire_size", None)
    if callable(size_hint):
        return size_hint()
    return 4 + len(repr(value).encode("utf-8"))


class Color(IntEnum):
    RED = 1
    GREEN = 2


Point = namedtuple("Point", "x y")


class Label(str):
    pass


class Sized:
    def __init__(self, n):
        self.n = n

    def wire_size(self):
        return self.n


class SizedDict(dict):
    """A dict subclass with a size hook: the dict rule wins."""

    def wire_size(self):
        return 1000


class Opaque:
    def __repr__(self):
        return "Opaque(é)"


WORDS = ["", "a", "key", "café", "日本", "\U0001f600x"]


def random_scalar(rnd):
    return rnd.choice([
        lambda: None, lambda: rnd.random() < 0.5, lambda: rnd.randrange(-9, 9),
        lambda: rnd.random(), lambda: rnd.choice(WORDS),
        lambda: rnd.choice(WORDS).encode("utf-8"), lambda: Color.GREEN,
        lambda: Label(rnd.choice(WORDS)), lambda: Sized(rnd.randrange(50)),
        lambda: Opaque(), lambda: 2 ** 70,
    ])()


def random_uniform(rnd):
    """A container of one scalar type: the single-pass path."""
    make = rnd.choice([
        lambda: None, lambda: rnd.random() < 0.5, lambda: rnd.randrange(99),
        lambda: rnd.random(), lambda: rnd.choice(WORDS),
    ])
    items = [make() for _ in range(rnd.randrange(0, 6))]
    return rnd.choice([list, tuple, set, frozenset])(items)


def hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


def random_payload(rnd, depth=0):
    roll = rnd.random()
    if depth >= 3 or roll < 0.35:
        return random_scalar(rnd)
    if roll < 0.5:
        return random_uniform(rnd)
    children = [random_payload(rnd, depth + 1)
                for _ in range(rnd.randrange(0, 5))]
    kind = rnd.choice(["list", "tuple", "set", "dict", "point", "sized_dict"])
    if kind == "list":
        return children
    if kind == "tuple":
        return tuple(children)
    if kind == "set":
        return {c for c in children if hashable(c)}
    if kind == "point":
        return Point(random_scalar(rnd), tuple(children))
    pairs = {rnd.choice(WORDS) + str(i): c for i, c in enumerate(children)}
    return pairs if kind == "dict" else SizedDict(pairs)


def test_matches_reference_on_random_payloads():
    rnd = random.Random(7)
    for _ in range(5000):
        value = random_payload(rnd)
        assert wire_size(value) == reference_wire_size(value), value


def test_subclasses_follow_the_isinstance_rules():
    cases = [True, False, Color.RED, Point(1, "ab"), Label("café"),
             [True, 1], (True, False), [Color.RED, Color.GREEN],
             [1, 2.0], [], (), set(), frozenset(), {}, ["x", None],
             ["café", "日"], {1.5, 2.5}, frozenset({"a", "bb"}),
             [Label("a"), "b"], [Sized(3), Sized(4)], [Opaque()],
             SizedDict(a=1), {"k": [1, 2, 3], "j": {"n": None}},
             b"\x00\x01", [b"ab", b"c"], [2 ** 70, 3]]
    for value in cases:
        assert wire_size(value) == reference_wire_size(value), value
    assert wire_size([True, True]) == 4 + 2
    assert wire_size([1, True]) == 4 + 8 + 1
    assert wire_size(["é", "ab"]) == 4 + (4 + 2) + (4 + 2)


# The payload shapes the engine sends, with fresh values each time.
SHAPES = [
    ("op", "ns", "rid", "data", "mid"),
    ("op", "ns", "rid", "cols", "mid", "epoch", "qsrc", "learn"),
    ("op", "subs", "node", "rows", "replace"),
    ("op", "req"),
    ("op", "key", "ref", "region"),
]


def test_fixed_key_shapes_with_fresh_values_match_reference():
    rnd = random.Random(11)
    for _ in range(3000):
        keys = rnd.choice(SHAPES)
        value = {k: random_payload(rnd) for k in keys}
        assert wire_size(value) == reference_wire_size(value), value
        nested = {"op": "deliver_mux", "parts": [value, dict(value)]}
        assert wire_size(nested) == reference_wire_size(nested)


@pytest.fixture
def empty_shape_table(monkeypatch):
    """A fresh key-shape table, so a case sees its own shapes first."""
    monkeypatch.setattr(serde, "_KEY_SHAPES", {})
    return serde


def test_equal_keys_of_different_types_never_share_a_shape(empty_shape_table):
    # Equal dicts, equal hashes, different sizes: 8, 1, 8, and a str
    # subclass next to its plain-str twin.
    dicts = [{1: 0}, {True: 0}, {1.0: 0}, {"a": 0}, {Label("a"): 0}]
    assert {1: 0} == {True: 0} == {1.0: 0}
    for order in itertools.permutations(dicts):
        empty_shape_table._KEY_SHAPES.clear()
        for value in order * 2:
            assert wire_size(value) == reference_wire_size(value), value
    assert list(empty_shape_table._KEY_SHAPES) == [("a",)]


def test_table_stops_at_its_cap_and_stays_exact(empty_shape_table):
    cap = empty_shape_table._KEY_SHAPES_CAP
    rnd = random.Random(5)
    values = [{"k{}".format(i): rnd.randrange(9), "v": WORDS[i % len(WORDS)]}
              for i in range(cap + 50)]
    for value in values * 2:
        assert wire_size(value) == reference_wire_size(value), value
    assert len(empty_shape_table._KEY_SHAPES) == cap
    late = {"k{}".format(cap + 10): "café", "v": None}
    assert wire_size(late) == reference_wire_size(late)
    assert len(empty_shape_table._KEY_SHAPES) == cap


class _Hop(SimNode):
    def handle_message(self, src, payload):
        pass


def test_route_size_is_kept_across_hops_and_a_retransmit(clock):
    net = Network(clock, ConstantLatency(0.01))
    for address in ("a", "b", "c"):
        _Hop(net, address)
    payload = {"op": "deliver_batch", "ns": "q|7", "rid": ("g", 3),
               "cols": [["café", "x"], [1.5, 2.0]], "mid": 41, "epoch": 2,
               "learn": True}
    route = messages.Route(("k", 9), payload, "a")
    expected = 20 + 16 + 8 + reference_wire_size(payload)
    # Hop a -> b, b -> c, then a retransmit of the last hop.
    for src, dst in (("a", "b"), ("b", "c"), ("b", "c")):
        route.hops += 1
        route.hop_ack = (src, route.hops)
        net.send(src, dst, route)
        assert route.wire_size() == expected
    clock.run()
    counters = net.counters.as_dict()
    assert counters["bytes_sent"] == 3 * expected
    assert counters["bytes_kind_route"] == 3 * expected
    assert counters["messages_kind_route"] == 3
    assert net.inbound_bytes == {"b": expected, "c": 2 * expected}


# Header bytes of each payload-carrying message: the rest is the
# payload's reference size, recomputed at every delivery.
_HEADERS = {messages.Route: 44, messages.Broadcast: 40, messages.Direct: 8}
_RPC_HEADERS = {messages.RpcRequest: 24, messages.RpcReply: 16}


def reference_message_size(message):
    cls = type(message)
    if cls in _HEADERS:
        return _HEADERS[cls] + reference_wire_size(message.payload)
    if cls in _RPC_HEADERS:
        return _RPC_HEADERS[cls] + reference_wire_size(message.inner)
    if cls is messages.StoreItems:
        return (8 + sum(reference_wire_size(i.value) + 28
                        for i in message.items)
                + 24 * len(message.mids))
    return reference_wire_size(message)


def test_lossy_standing_run_inbound_bytes_match_the_reference():
    """Byte audit: every delivery re-sized from scratch by the reference
    sums, per destination, to exactly what the network charged -- so no
    payload changed after its size was stored at first send."""
    net = PierNetwork(nodes=10, seed=715, config=PierConfig(loss_rate=0.04))
    net.create_stream_table("s", [("k", "INT"), ("v", "FLOAT")], window=30.0)
    net.create_stream_table("t", [("k", "INT"), ("w", "TEXT")], window=30.0)
    for i, address in enumerate(net.addresses()):
        def tick(address=address, i=i):
            engine = net.node(address).engine
            step = int(engine.clock.now * 2)
            engine.stream_append("s", ((i + step) % 5, float(i)))
            engine.stream_append("t", ((i * step) % 5, "w{}é".format(i)))
            engine.set_timer(0.5, tick)
        net.node(address).engine.set_timer(0.1 * i, tick)
    audited = {}
    deliveries = {}

    def tap(src, dst, payload):
        audited[dst] = audited.get(dst, 0) + reference_message_size(payload)
        if type(payload) is messages.Route:
            deliveries[id(payload)] = deliveries.get(id(payload), 0) + 1

    before = dict(net.net.inbound_bytes)
    net.net.delivery_taps.append(tap)
    results = []
    net.submit_sql("SELECT k, SUM(v) AS total, COUNT(*) AS n FROM s "
                   "GROUP BY k EVERY 4 SECONDS LIFETIME 24 SECONDS",
                   on_epoch=results.append)
    net.submit_sql("SELECT s.k, t.w FROM s, t WHERE s.k = t.k "
                   "EVERY 4 SECONDS WINDOW 4 SECONDS LIFETIME 24 SECONDS",
                   on_epoch=results.append)
    net.advance(30)
    charged = {dst: size - before.get(dst, 0)
               for dst, size in net.net.inbound_bytes.items()
               if size != before.get(dst, 0)}
    assert charged == audited
    counters = net.message_counters()
    assert counters["messages_lost"] > 0
    assert counters["exchange_messages"] > 0
    assert results
    # Routes that reached more than one node: their kept size was reused.
    assert sum(1 for n in deliveries.values() if n > 1) > 10


# ----------------------------------------------------------------------
# Event heap
# ----------------------------------------------------------------------
class TestHeapEntries:
    def test_equal_times_fire_fifo_with_cancellations(self, clock):
        fired = []
        events = [clock.schedule_at(2.0, fired.append, i) for i in range(8)]
        early = clock.schedule_at(1.0, fired.append, "early")
        for i in (1, 4, 7):
            events[i].cancel()
        assert clock.pending == 6
        clock.run_until(2.0)
        assert fired == ["early", 0, 2, 3, 5, 6]
        assert clock.events_fired == 6
        assert clock.pending == 0
        assert early.time == 1.0 and not early.cancelled

    def test_heap_holds_time_seq_event_tuples(self, clock):
        a = clock.schedule(1.0, lambda: None)
        b = clock.schedule(1.0, lambda: None)
        assert sorted(clock._heap) == [(1.0, a.seq, a), (1.0, b.seq, b)]
        assert a.seq < b.seq

    def test_run_drains_in_order_and_skips_cancelled(self, clock):
        fired = []
        for t in (3.0, 1.0, 2.0, 1.0):
            clock.schedule(t, fired.append, t)
        victim = clock.schedule(1.5, fired.append, "victim")
        victim.cancel()
        assert clock.run() == 4
        assert fired == [1.0, 1.0, 2.0, 3.0]
        assert clock.now == 3.0
