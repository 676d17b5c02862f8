"""Message types exchanged by DHT nodes.

Each message has a ``kind`` used for dispatch and a ``category``
(``maintenance`` / ``app``) used by the experiment counters to separate
overlay upkeep traffic from query traffic -- the DHT-scaling bench
reports both.

Messages are passed by reference inside the simulator; they must be
treated as immutable after send. ``Route`` relies on it: it keeps the
size it was first sent with, so a multi-hop route or a retransmit is
not sized again.
"""

from repro.util.serde import wire_size


class Message:
    kind = "abstract"
    category = "app"

    def wire_size(self):
        """Default size model: category + kind headers only."""
        return 16


class RpcRequest(Message):
    kind = "rpc_req"
    category = "maintenance"
    __slots__ = ("req_id", "reply_to", "inner")

    def __init__(self, req_id, reply_to, inner):
        self.req_id = req_id
        self.reply_to = reply_to
        self.inner = inner

    def wire_size(self):
        return 24 + wire_size(self.inner)


class RpcReply(Message):
    kind = "rpc_rep"
    category = "maintenance"
    __slots__ = ("req_id", "inner")

    def __init__(self, req_id, inner):
        self.req_id = req_id
        self.inner = inner

    def wire_size(self):
        return 16 + wire_size(self.inner)


class Lookup(Message):
    """Recursive lookup for the owner of ``target`` (an id, not a node)."""

    kind = "lookup"
    category = "app"
    __slots__ = ("target", "origin", "req_id", "hops", "hop_ack",
                 "force_terminal")

    def __init__(self, target, origin, req_id, hops=0):
        self.target = target
        self.origin = origin
        self.req_id = req_id
        self.hops = hops
        self.hop_ack = None  # (address, req) expecting a receipt ack
        self.force_terminal = False  # deliver at next hop (range heir)

    def wire_size(self):
        return 20 + 16 + 8  # id + origin + counters


class LookupDone(Message):
    kind = "lookup_done"
    category = "app"
    __slots__ = ("req_id", "owner", "hops")

    def __init__(self, req_id, owner, hops):
        self.req_id = req_id
        self.owner = owner
        self.hops = hops

    def wire_size(self):
        return 44


class Route(Message):
    """Key-routed application message, the workhorse of PIER traffic.

    ``payload`` is an application-level dict (storage op, exchange
    tuple batch, aggregation partial). ``upcall`` optionally names an
    intercept handler invoked at every hop -- this is how hierarchical
    aggregation combines partials mid-route.
    """

    kind = "route"
    category = "app"
    __slots__ = ("key", "payload", "origin", "hops", "upcall", "hop_ack",
                 "force_terminal", "_size")

    def __init__(self, key, payload, origin, hops=0, upcall=None):
        self.key = key
        self.payload = payload
        self.origin = origin
        self.hops = hops
        self.upcall = upcall
        self.hop_ack = None  # (address, req) expecting a receipt ack
        self.force_terminal = False  # deliver at next hop (range heir)
        self._size = None  # set on first send; the payload is final then

    def wire_size(self):
        size = self._size
        if size is None:
            size = self._size = 20 + 16 + 8 + wire_size(self.payload)
        return size


class Broadcast(Message):
    """Finger-table broadcast (query dissemination).

    ``limit`` bounds the id range this copy is responsible for covering;
    the sender partitions its fingers' ranges so every live node receives
    exactly one copy in a stable overlay.
    """

    kind = "broadcast"
    category = "app"
    __slots__ = ("payload", "limit", "origin", "depth", "ack_to", "req")

    def __init__(self, payload, limit, origin, depth=0, ack_to=None, req=None):
        self.payload = payload
        self.limit = limit
        self.origin = origin
        self.depth = depth
        self.ack_to = ack_to  # address expecting a delivery ack
        self.req = req  # correlation id for that ack

    def wire_size(self):
        return 20 + 16 + 4 + wire_size(self.payload)


class StoreItems(Message):
    """Bulk key transfer (join handoff or graceful leave).

    ``mids`` rides along with the keys: the sender's consumed delivery
    ids (with their forget-at deadlines). The heir takes over dedup
    duty together with the range, so an in-flight retransmission of a
    delivery the departed owner already consumed is dropped at the
    successor instead of double-counted.
    """

    kind = "store_items"
    category = "maintenance"
    __slots__ = ("items", "mids")

    def __init__(self, items, mids=None):
        self.items = items
        self.mids = mids or {}

    def wire_size(self):
        return (8 + sum(wire_size(i.value) + 28 for i in self.items)
                + 24 * len(self.mids))


class Direct(Message):
    """Point-to-point application message (result return to query site)."""

    kind = "direct"
    category = "app"
    __slots__ = ("payload",)

    def __init__(self, payload):
        self.payload = payload

    def wire_size(self):
        return 8 + wire_size(self.payload)
