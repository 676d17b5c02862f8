"""A Content-Addressable Network (CAN) overlay.

The demo paper cites CAN (Ratnasamy et al., SIGCOMM 2001) as one of the
DHT schemes under PIER -- the original PIER prototype in fact ran on
CAN before moving to Bamboo. We implement the d-dimensional torus with
zone splitting on join and greedy coordinate routing, and use it in the
overlay-comparison benchmark: CAN's O(d * N^(1/d)) hop count against
Chord's O(log N).

Keys map to points by hashing into each dimension independently; a key
is owned by whichever node's zone contains its point.
"""

from repro.sim.node import SimNode
from repro.util.ids import sha1_id
from repro.util.serde import wire_size
from repro.util.stats import RunningStat


class Zone:
    """An axis-aligned box in the unit d-torus: lo[i] <= x < hi[i]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = list(lo)
        self.hi = list(hi)

    @property
    def dims(self):
        return len(self.lo)

    def contains(self, point):
        return all(self.lo[i] <= point[i] < self.hi[i] for i in range(self.dims))

    def volume(self):
        v = 1.0
        for i in range(self.dims):
            v *= self.hi[i] - self.lo[i]
        return v

    def split(self, dim):
        """Halve along ``dim``; returns (lower_half, upper_half)."""
        mid = (self.lo[dim] + self.hi[dim]) / 2.0
        lower = Zone(self.lo, self.hi)
        upper = Zone(self.lo, self.hi)
        lower.hi[dim] = mid
        upper.lo[dim] = mid
        return lower, upper

    def widest_dim(self):
        widths = [self.hi[i] - self.lo[i] for i in range(self.dims)]
        return widths.index(max(widths))

    def center(self):
        return [(self.lo[i] + self.hi[i]) / 2.0 for i in range(self.dims)]

    def distance_to(self, point):
        """Euclidean distance from ``point`` to this box on the torus."""
        total = 0.0
        for i in range(self.dims):
            if self.lo[i] <= point[i] < self.hi[i]:
                continue
            # Straight-line gap and the two wrap-around gaps.
            gap = min(
                abs(point[i] - self.lo[i]),
                abs(point[i] - self.hi[i]),
                abs(point[i] + 1.0 - self.hi[i]),
                abs(self.lo[i] + 1.0 - point[i]),
            )
            total += gap * gap
        return total**0.5

    def abuts(self, other):
        """True if the zones share a (d-1)-dimensional face on the torus."""
        touching_dims = 0
        for i in range(self.dims):
            touches = (
                self.hi[i] == other.lo[i]
                or other.hi[i] == self.lo[i]
                or (self.hi[i] == 1.0 and other.lo[i] == 0.0)
                or (other.hi[i] == 1.0 and self.lo[i] == 0.0)
            )
            overlaps = self.lo[i] < other.hi[i] and other.lo[i] < self.hi[i]
            wrap_overlap = (
                (self.lo[i] == 0.0 and other.hi[i] == 1.0)
                or (other.lo[i] == 0.0 and self.hi[i] == 1.0)
            )
            if touches and not overlaps:
                touching_dims += 1
            elif not (overlaps or wrap_overlap):
                return False
        return touching_dims == 1

    def __repr__(self):
        spans = ", ".join(
            "[{:.3f},{:.3f})".format(lo, hi) for lo, hi in zip(self.lo, self.hi)
        )
        return "Zone({})".format(spans)


def key_point(key, dims):
    """Deterministically hash a key to a point in the unit d-torus."""
    point = []
    for i in range(dims):
        h = sha1_id(("can", i, key))
        point.append((h % (1 << 53)) / float(1 << 53))
    return point


class CanMessage:
    kind = "can_route"
    category = "app"
    __slots__ = ("point", "payload", "origin", "hops")

    def __init__(self, point, payload, origin, hops=0):
        self.point = point
        self.payload = payload
        self.origin = origin
        self.hops = hops

    def wire_size(self):
        return 8 * len(self.point) + 24 + wire_size(self.payload)


class CanNode(SimNode):
    """One CAN participant: a zone, its neighbors, greedy routing."""

    def __init__(self, network, address, dims=2):
        super().__init__(network, address)
        self.dims = dims
        self.zone = None
        self.neighbors = {}  # address -> Zone
        self.storage = {}  # (namespace, resource_id) -> list of values
        self.route_hops = RunningStat()
        self._pending = {}
        self._next_req = 0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, key, payload):
        point = key_point(key, self.dims)
        self._forward(CanMessage(point, payload, self.address))

    def _forward(self, message):
        if self.zone is not None and self.zone.contains(message.point):
            self._arrived(message)
            return
        best_addr = None
        best_distance = None
        for address, zone in self.neighbors.items():
            d = zone.distance_to(message.point)
            if best_distance is None or d < best_distance:
                best_addr = address
                best_distance = d
        if best_addr is None:
            return  # isolated node; message is lost (like a dead ring)
        message.hops += 1
        self.send(best_addr, message)

    def _arrived(self, message):
        payload = message.payload
        op = payload.get("op")
        if op == "put":
            bucket = self.storage.setdefault((payload["ns"], payload["rid"]), [])
            bucket.append(payload["value"])
        elif op == "get":
            values = self.storage.get((payload["ns"], payload["rid"]), [])
            self.send(
                payload["reply_to"],
                {"op": "can_get_reply", "req": payload["req"], "values": list(values)},
            )
        elif op == "probe":
            self.send(
                payload["reply_to"],
                {"op": "can_probe_reply", "req": payload["req"], "hops": message.hops},
            )

    def handle_message(self, src, payload):
        if isinstance(payload, CanMessage):
            self._forward(payload)
            return
        op = payload.get("op")
        if op in ("can_get_reply", "can_probe_reply"):
            entry = self._pending.pop(payload["req"], None)
            if entry is not None:
                if op == "can_get_reply":
                    entry(payload["values"])
                else:
                    self.route_hops.add(payload["hops"])
                    entry(payload["hops"])

    # ------------------------------------------------------------------
    # Storage + measurement API
    # ------------------------------------------------------------------
    def put(self, namespace, resource_id, value):
        self.route((namespace, resource_id), {
            "op": "put", "ns": namespace, "rid": resource_id, "value": value,
        })

    def get(self, namespace, resource_id, on_done):
        req = self._next_req
        self._next_req += 1
        self._pending[req] = on_done
        self.route((namespace, resource_id), {
            "op": "get", "ns": namespace, "rid": resource_id,
            "reply_to": self.address, "req": req,
        })

    def probe(self, key, on_done):
        """Measure routing hops to the owner of ``key``."""
        req = self._next_req
        self._next_req += 1
        self._pending[req] = on_done
        self.route(key, {"op": "probe", "reply_to": self.address, "req": req})


def build_can_overlay(nodes, rng):
    """Construct a CAN by replaying the join protocol's zone splits.

    Node 0 owns the whole torus; each subsequent node picks a random
    point, the current owner's zone is split along its widest dimension,
    and neighbor sets are patched incrementally -- the same state the
    distributed join protocol converges to.
    """
    if not nodes:
        return
    dims = nodes[0].dims
    first = nodes[0]
    first.zone = Zone([0.0] * dims, [1.0] * dims)
    first.neighbors = {}
    placed = [first]
    for joiner in nodes[1:]:
        point = [rng.random() for _ in range(dims)]
        owner = next(n for n in placed if n.zone.contains(point))
        lower, upper = owner.zone.split(owner.zone.widest_dim())
        if lower.contains(point):
            joiner.zone, owner.zone = lower, upper
        else:
            joiner.zone, owner.zone = upper, lower
        _patch_neighbors(owner, joiner, placed)
        placed.append(joiner)


def _patch_neighbors(owner, joiner, placed):
    """Recompute adjacency for the two halves of a freshly split zone."""
    candidates = list(owner.neighbors)
    joiner.neighbors = {}
    new_owner_neighbors = {}
    for address in candidates:
        other = next(n for n in placed if n.address == address)
        if other.zone.abuts(owner.zone):
            new_owner_neighbors[address] = other.zone
        if other.zone.abuts(joiner.zone):
            joiner.neighbors[address] = other.zone
        # The old neighbor also re-evaluates its own view.
        other.neighbors.pop(owner.address, None)
        if owner.zone.abuts(other.zone):
            other.neighbors[owner.address] = owner.zone
        if joiner.zone.abuts(other.zone):
            other.neighbors[joiner.address] = joiner.zone
    owner.neighbors = new_owner_neighbors
    if owner.zone.abuts(joiner.zone):
        owner.neighbors[joiner.address] = joiner.zone
        joiner.neighbors[owner.address] = owner.zone
