"""Wire sizing and the event heap against their plain definitions.

``wire_size`` dispatches on exact type and sizes one-type containers in
a single pass; the reference below is the recursive ``isinstance``
definition of the size model, and both must agree on random nested
payloads. The clock cases pin the heap's ``(time, seq, event)`` entries:
FIFO among equal times and lazy cancellation.
"""

import random
from collections import namedtuple
from enum import IntEnum

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
