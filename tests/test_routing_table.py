"""Chord's sorted routing table against the linear-scan definition.

``ChordNode.closest_preceding`` bisects a lazily rebuilt table of finger
and successor entries. The reference below is the original scan over
every finger slot and successor; on random neighbor lists -- empty
slots, self entries, one id under two addresses, suspects, excluded
hops, proximity on and off, targets at our own id and across the ring's
wrap -- both must pick the same hop. The invalidation cases check that
every path that rewrites the neighbor lists also refreshes the table.
"""

import random

import pytest

from repro.dht.bootstrap import build_chord_ring
from repro.dht.chord import ChordNode, NodeRef
from repro.dht.config import DhtConfig
from repro.sim.clock import SimClock
from repro.sim.latency import ConstantLatency, RegionalLatency
from repro.sim.network import Network
from repro.util.ids import ID_BITS, distance_cw, in_interval
from repro.util.rng import SeededRng

MOD = 1 << ID_BITS
REGIONS = {"{}{}".format(r, i): r for r in ("us", "eu") for i in range(4)}
# Peers the random tables draw from: both regions plus unlabelled ones.
ADDRESSES = sorted(REGIONS) + ["x0", "x1"]


def reference_closest_preceding(node, target, exclude=()):
    """The linear scan over all 160 finger slots and the successors."""
    best = None
    best_distance = None
    local = None
    local_distance = None
    proximity = node._proximity_on()
    for candidate in list(node.fingers) + list(node.successors):
        if candidate is None or candidate == node.ref:
            continue
        if candidate.address in exclude or node._is_suspect(candidate.address):
            continue
        if in_interval(candidate.id, node.id, target):
            d = distance_cw(candidate.id, target)
            if best_distance is None or d < best_distance:
                best = candidate
                best_distance = d
            if proximity and node._region_of(candidate.address) == node.region:
                if local_distance is None or d < local_distance:
                    local = candidate
                    local_distance = d
    if best is not None:
        if (local is not None and local != best
                and local_distance <= 2 * best_distance):
            return local
        return best
    for fallback in node.successors:
        if fallback == node.ref:
            continue
        if fallback.address in exclude or node._is_suspect(fallback.address):
            continue
        if in_interval(fallback.id, node.id, target):
            return fallback
    return None


def regional_node(proximity, seed=5):
    rng = SeededRng(seed)
    clock = SimClock()
    latency = RegionalLatency(rng.fork("latency"), regions=REGIONS)
    net = Network(clock, latency, rng.fork("net"))
    return ChordNode(net, "us0", DhtConfig(proximity_routing=proximity),
                     rng.fork("chord"))


def random_ref(rnd, node, pool):
    """A ref drawn to collide: reused ids, self, wrap-around, near ids."""
    roll = rnd.random()
    if roll < 0.05:
        return node.ref
    if roll < 0.10:
        return NodeRef(node.id, rnd.choice(ADDRESSES))  # self's id elsewhere
    if roll < 0.35 and pool:
        # One id, possibly under another address.
        return NodeRef(rnd.choice(pool).id, rnd.choice(ADDRESSES))
    if roll < 0.55:
        return NodeRef((node.id + rnd.randrange(1, 5000)) % MOD,
                       rnd.choice(ADDRESSES))
    if roll < 0.70:
        return NodeRef((node.id - rnd.randrange(1, 5000)) % MOD,
                       rnd.choice(ADDRESSES))
    return NodeRef(rnd.randrange(MOD), rnd.choice(ADDRESSES))


def randomize(rnd, node):
    pool = []
    fingers = [None] * ID_BITS
    for k in rnd.sample(range(ID_BITS), rnd.randrange(0, 24)):
        ref = random_ref(rnd, node, pool)
        pool.append(ref)
        fingers[k] = ref
    successors = [random_ref(rnd, node, pool)
                  for _ in range(rnd.randrange(1, 5))]
    node.fingers = fingers
    node.successors = successors
    now = node.clock.now
    # Live suspicions, and expired ones that no longer count.
    return {a: now + rnd.choice((5.0, -1.0))
            for a in rnd.sample(ADDRESSES, rnd.randrange(0, 4))}, pool


def random_target(rnd, node, pool):
    roll = rnd.random()
    if roll < 0.1:
        return node.id
    if roll < 0.4 and pool:
        ref = rnd.choice(pool)
        return (ref.id + rnd.choice((-1, 0, 1))) % MOD
    if roll < 0.5 and len(pool) > 1:
        # One entry exactly twice as far from the target as another:
        # the edge of the proximity bound.
        near, far = rnd.sample(pool, 2)
        return (2 * near.id - far.id) % MOD
    if roll < 0.6:
        return (node.id + rnd.randrange(1, 10000)) % MOD
    if roll < 0.7:
        return (node.id - rnd.randrange(1, 10000)) % MOD
    return rnd.randrange(MOD)


@pytest.mark.parametrize("proximity", [False, True])
def test_matches_linear_scan(proximity):
    rnd = random.Random(1234 + proximity)
    node = regional_node(proximity)
    assert node._proximity_on() is proximity
    for _ in range(2500):
        suspects, pool = randomize(rnd, node)
        for _ in range(3):
            target = random_target(rnd, node, pool)
            exclude = set(rnd.sample(ADDRESSES, rnd.randrange(0, 3)))
            node._suspects = dict(suspects)
            want = reference_closest_preceding(node, target, exclude)
            node._suspects = dict(suspects)
            got = node.closest_preceding(target, exclude=exclude)
            assert (got and (got.id, got.address)) == (
                want and (want.id, want.address)), (target, exclude)


def test_table_is_sorted_deduped_and_skips_self():
    node = regional_node(False)
    a = NodeRef((node.id + 10) % MOD, "us1")
    a_elsewhere = NodeRef(a.id, "eu1")
    b = NodeRef((node.id - 10) % MOD, "eu2")  # just behind us: last
    node.fingers = [None, b, a, a_elsewhere, node.ref, None, a]
    node.successors = [a_elsewhere, NodeRef(node.id, "x0")]
    distances, refs = node._routing_table()
    assert [(r.id, r.address) for r in refs] == [
        (a.id, "eu1"), (a.id, "us1"), (b.id, "eu2")]
    assert distances == [10, 10, MOD - 10]
    # One entry per id for broadcast: the id's earliest entry in
    # fingers-then-successors order.
    assert [r.address for r in node._distinct_fingers()] == ["us1", "eu2"]
    node._suspect("us1")
    assert [r.address for r in node._distinct_fingers()] == ["eu1", "eu2"]


# ----------------------------------------------------------------------
# Invalidation: every rewrite of the neighbor lists refreshes the table
# ----------------------------------------------------------------------
def assert_table_current(node):
    table = node._routing_table()
    node._table = None
    assert node._routing_table() == table


def ring(n=8, seed=3):
    clock = SimClock()
    rng = SeededRng(seed, "table")
    net = Network(clock, ConstantLatency(0.02), rng.fork("net"))
    nodes = [ChordNode(net, "n{}".format(i), DhtConfig(),
                       rng.fork("c{}".format(i))) for i in range(n)]
    return clock, net, nodes


def test_assignment_invalidates():
    node = regional_node(False)
    node._routing_table()
    peer = NodeRef((node.id + 77) % MOD, "eu3")
    node.fingers = [peer]
    assert node._routing_table()[1] == [peer]
    other = NodeRef((node.id + 33) % MOD, "us2")
    node.successors = [other]
    assert [r.address for r in node._routing_table()[1]] == ["us2", "eu3"]


def test_bootstrap_assignment_refreshes_table():
    _clock, _net, nodes = ring()
    for node in nodes:
        node._routing_table()  # cache the table of a lone node
    build_chord_ring(nodes, start_maintenance=False)
    for node in nodes:
        assert_table_current(node)
        assert node._routing_table()[1][0] == node.successor


# The cases below run with maintenance off and drive one protocol step
# by hand, so the path under test is the last write to the lists.
def test_stabilize_pop_refreshes_table():
    clock, net, nodes = ring()
    build_chord_ring(nodes, start_maintenance=False)
    node = nodes[0]
    dead = node.successor
    node.fingers = [None] * ID_BITS
    net.node(dead.address).crash()
    assert node._routing_table()[1][0] == dead
    node._stabilize()
    clock.run_for(node.config.rpc_timeout * 1.5)
    assert node.successors[0] != dead
    assert_table_current(node)
    assert dead not in node._routing_table()[1]


def test_stabilize_insert_refreshes_table():
    clock, _net, nodes = ring()
    build_chord_ring(nodes, start_maintenance=False)
    node = nodes[0]
    between = node.successor
    # Skip our true successor: stabilize learns it back from the
    # successor's predecessor pointer and inserts it at the front.
    node.successors = node.successors[1:]
    node.fingers = [None] * ID_BITS
    assert between not in node._routing_table()[1]
    node._stabilize()
    clock.run_for(node.config.rpc_timeout * 0.5)
    assert node.successor == between
    assert_table_current(node)


def test_fix_fingers_write_refreshes_table():
    clock, _net, nodes = ring()
    build_chord_ring(nodes, start_maintenance=False)
    node = nodes[0]
    node.fingers = [None] * ID_BITS
    assert node._routing_table() == ([distance_cw(node.id, r.id)
                                      for r in node.successors],
                                     list(node.successors))
    before = node._routing_table()
    node._next_finger = ID_BITS - 1  # the far finger: halfway round
    node._fix_fingers()
    clock.run_for(node.config.rpc_timeout * 0.5)
    assert node.fingers[ID_BITS - 1] is not None
    assert_table_current(node)
    assert node._routing_table() != before


def test_recover_refreshes_table():
    clock, _net, nodes = ring()
    build_chord_ring(nodes)
    clock.run_for(2.0)
    node = nodes[2]
    assert node._routing_table()[1]
    node.crash()
    node.recover(bootstrap_address=nodes[0].address)
    # Right after recovery the node only knows itself: nothing to route to.
    assert node._routing_table() == ([], [])
    clock.run_for(30.0)
    assert_table_current(node)
