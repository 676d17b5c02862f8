"""Chord: the primary overlay under PIER.

Implements the full protocol from Stoica et al. (SIGCOMM 2001), the DHT
the demo paper cites as its canonical substrate, hardened with the
Bamboo-style techniques of the paper's churn reference [6] (Rhea et al.,
USENIX 2004): *periodic* rather than reactive recovery, timeout-driven
failure suspicion, and hop-by-hop acknowledgment of routed messages with
re-forwarding around suspected-dead hops.

Feature inventory:

* recursive multi-hop lookups via finger tables (O(log N) hops),
* successor lists for resilience to node failure,
* periodic stabilize / fix-fingers / check-predecessor,
* key handoff on join and (optionally) graceful leave,
* soft-state storage of application items (``put/get/renew/lscan``),
* key-routed application messages with per-hop *upcalls* -- the hook
  PIER's hierarchical aggregation uses to combine partial aggregates on
  their way up the routing tree,
* finger-table broadcast for query dissemination, with ack/repair so a
  dead finger's delegated range is re-routed to its live owner.

A :class:`ChordNode` is a :class:`~repro.sim.node.SimNode`: it fails by
crashing (losing all soft state) and recovers by re-joining through a
bootstrap address.
"""

from bisect import bisect_left
from itertools import chain

from repro.dht import messages as msg
from repro.dht.rpc import RpcNode
from repro.dht.storage import SoftStateStore
from repro.sim.node import SimNode
from repro.sim.processes import PeriodicProcess
from repro.util.ids import ID_BITS, ID_SPACE, distance_cw, in_interval, node_id_for, sha1_id
from repro.util.stats import RunningStat


class NodeRef:
    """An (id, address) pair -- how nodes refer to each other."""

    __slots__ = ("id", "address")

    def __init__(self, node_id, address):
        self.id = node_id
        self.address = address

    def __eq__(self, other):
        return isinstance(other, NodeRef) and self.id == other.id

    def __hash__(self):
        return hash(self.id)

    def wire_size(self):
        return 28

    def __repr__(self):
        return "NodeRef({:08x}.., {!r})".format(self.id >> (ID_BITS - 32), self.address)


def storage_key(namespace, resource_id):
    """Where an item lives on the ring: hash of namespace + resource id."""
    return sha1_id((namespace, resource_id))


class ChordNode(SimNode, RpcNode):
    """One Chord participant with PIER's storage API grafted on."""

    def __init__(self, network, address, config, rng, trace=None):
        super().__init__(network, address)
        self._init_rpc(config.rpc_timeout)
        self.config = config
        self.rng = rng
        self.trace = trace
        self.id = node_id_for(address)
        self.ref = NodeRef(self.id, address)

        self._table = None  # routing table, rebuilt lazily (_routing_table)
        self.successors = [self.ref]  # successor list; [0] is the successor
        self.predecessor = None
        self.fingers = [None] * ID_BITS
        self._next_finger = 0

        self.store = SoftStateStore(self.clock)
        self.lookup_hops = RunningStat()

        self._pending_lookups = {}
        self._pending_gets = {}
        self._pending_bcast_acks = {}
        self._pending_hop_acks = {}
        self._suspects = {}  # address -> suspicion expiry (sim time)
        self._next_req = 0
        self._next_mid = 0
        self._seen_mids = {}  # delivery id -> forget-at (replay dedup)
        self._intercepts = {}
        self._delivery_handlers = {}
        self._default_delivery = None
        self._storage_probe_handlers = []
        self._broadcast_handlers = []
        self._direct_handlers = []
        self._seen_broadcasts = set()
        self._bootstrap_address = None

        self._stabilizer = PeriodicProcess(
            self.clock, config.stabilize_period, self._stabilize, jitter_rng=rng
        )
        self._finger_fixer = PeriodicProcess(
            self.clock, config.fix_fingers_period, self._fix_fingers, jitter_rng=rng
        )
        self._pred_checker = PeriodicProcess(
            self.clock, config.check_predecessor_period, self._check_predecessor,
            jitter_rng=rng,
        )
        self._sweeper = PeriodicProcess(
            self.clock, config.storage_sweep_period, self._sweep_soft_state,
            jitter_rng=rng,
        )
        self._install_rpc_handlers()

    # ------------------------------------------------------------------
    # Neighbor lists and the routing table built from them
    # ------------------------------------------------------------------
    # ``fingers`` and ``successors`` are only ever *assigned*, never
    # mutated in place: every assignment drops the routing table, and
    # the next lookup rebuilds it from the new lists.
    @property
    def fingers(self):
        return self._fingers

    @fingers.setter
    def fingers(self, value):
        self._fingers = value
        self._table = None

    @property
    def successors(self):
        return self._successors

    @successors.setter
    def successors(self, value):
        self._successors = value
        self._table = None

    def _routing_table(self):
        """``(distances, refs)``: finger and successor entries sorted by
        clockwise distance from this node.

        Entries are deduped by ``(id, address)`` and exclude this node's
        own id. Among entries at one distance (one id, several
        addresses) the earliest in fingers-then-successors order sits
        *last*, so a backward walk meets it first.
        """
        table = self._table
        if table is None:
            entries = {}
            for ref in chain(self._fingers, self._successors):
                if ref is None or ref.id == self.id:
                    continue
                key = (ref.id, ref.address)
                if key not in entries:
                    entries[key] = (distance_cw(self.id, ref.id),
                                    -len(entries), ref)
            ordered = sorted(entries.values())
            table = self._table = ([e[0] for e in ordered],
                                   [e[2] for e in ordered])
        return table

    def _fresh_req(self):
        self._next_req += 1
        return self._next_req

    def fresh_mid(self):
        """A node-unique delivery id for exactly-once exchange delivery.

        Stamped into ``deliver``/``deliver_batch`` payloads at the
        origin (exchanges, tree combiners); the id survives every
        re-forward of the same message, so a terminal that has already
        consumed it can drop the replay.
        """
        self._next_mid += 1
        return (self.address, self._next_mid)

    def accept_delivery_once(self, mid):
        """True exactly once per delivery id within the dedup TTL.

        Hop-by-hop acked forwarding is at-least-once: a delivered hop
        whose ack is lost re-forwards the same message, and a cached-
        owner send that times out falls back to key routing. Consuming
        the id at the point of delivery (or in-network absorption)
        makes exchange delivery exactly-once *per node* -- the only
        duplicates left are cross-node ones during ownership ambiguity,
        which soft state already tolerates.
        """
        if mid is None:
            return True
        if mid in self._seen_mids:
            return False
        self._seen_mids[mid] = self.clock.now + self.config.delivery_dedup_ttl
        return True

    def _sweep_soft_state(self):
        self.store.sweep()
        now = self.clock.now
        for mid in [m for m, t in self._seen_mids.items() if t <= now]:
            del self._seen_mids[mid]

    # ------------------------------------------------------------------
    # Ring membership
    # ------------------------------------------------------------------
    @property
    def successor(self):
        return self.successors[0]

    def create_ring(self):
        """Become the first node of a new ring."""
        self.successors = [self.ref]
        self.predecessor = self.ref
        self._start_maintenance()

    def join(self, bootstrap_address):
        """Join the ring known to ``bootstrap_address`` via the protocol."""
        self._bootstrap_address = bootstrap_address
        self.predecessor = None

        def joined(owner, hops):
            if owner is None:
                # Bootstrap unreachable; retry after a backoff.
                self.set_timer(self.config.rpc_timeout, self.join, bootstrap_address)
                return
            self.successors = [owner] if owner != self.ref else [self.ref]
            self._start_maintenance()
            self._stabilize()

        self._lookup_via(bootstrap_address, self.id, joined)

    def leave(self):
        """Graceful departure: hand keys to the successor, then stop."""
        if self.successor != self.ref:
            items = self.store.lscan_all()
            if items or self._seen_mids:
                # Keys AND consumed delivery ids move together: the
                # successor inherits the range, so it must also inherit
                # the dedup memory, or a retransmission raced against
                # this departure double-delivers at the heir.
                self.send(
                    self.successor.address,
                    msg.StoreItems(items, mids=dict(self._seen_mids)),
                )
            if self.predecessor is not None and self.predecessor != self.ref:
                self.send(
                    self.predecessor.address,
                    msg.RpcRequest(-1, self.address, {
                        "kind": "successor_leaving",
                        "successors": list(self.successors[1:]) or list(self.successors),
                    }),
                )
        self.crash()

    def crash(self):
        self._stop_maintenance()
        self.cancel_all_rpcs()
        self.store.clear()
        self._pending_lookups.clear()
        self._pending_gets.clear()
        self._pending_bcast_acks.clear()
        self._pending_hop_acks.clear()
        self._suspects.clear()
        self._seen_broadcasts.clear()
        self._seen_mids.clear()
        # Delivery handlers and intercepts point into executions that
        # just died with the engine; a recovered node must not feed
        # rows to those zombies, it must fall back to the engine's
        # default (buffering) delivery until a plan is re-adopted.
        self._delivery_handlers.clear()
        self._intercepts.clear()
        super().crash()

    def recover(self, bootstrap_address=None):
        """Rejoin after a crash. Soft state is gone; same id, fresh store."""
        super().recover()
        self.successors = [self.ref]
        self.predecessor = None
        self.fingers = [None] * ID_BITS
        target = bootstrap_address or self._bootstrap_address
        if target is None or target == self.address:
            self.create_ring()
        else:
            self.join(target)

    def _start_maintenance(self):
        self._stabilizer.start()
        self._finger_fixer.start()
        self._pred_checker.start()
        self._sweeper.start()

    def _stop_maintenance(self):
        self._stabilizer.stop()
        self._finger_fixer.stop()
        self._pred_checker.stop()
        self._sweeper.stop()

    # ------------------------------------------------------------------
    # Failure suspicion (timeout-driven, no oracle)
    # ------------------------------------------------------------------
    def _suspect(self, address):
        self._suspects[address] = self.clock.now + self.config.suspect_ttl

    def _is_suspect(self, address):
        expiry = self._suspects.get(address)
        if expiry is None:
            return False
        if expiry <= self.clock.now:
            del self._suspects[address]
            return False
        return True

    def _absolve(self, address):
        self._suspects.pop(address, None)

    # ------------------------------------------------------------------
    # Region awareness (proximity neighbor selection)
    # ------------------------------------------------------------------
    def _region_of(self, address):
        """Region label of a peer, via the topology's region directory.

        The simulator's latency model doubles as the proximity service
        a deployed overlay would consult (Vivaldi coordinates, a region
        config); an unlabelled topology answers None for everyone and
        every proximity preference below degrades to the flat ring.
        """
        region_of = getattr(self.network.latency, "region_of", None)
        return region_of(address) if region_of is not None else None

    def _proximity_on(self):
        return self.config.proximity_routing and self.region is not None

    def region_rendezvous(self, key, region=None):
        """The region's deterministic meeting point for ``key``.

        The first region member clockwise of ``key`` (skipping locally
        suspected peers), so every member of a region independently
        picks the same in-region combiner for a routing key -- the
        region-local level of a two-level aggregation tree. Returns
        None when the topology has no region directory.
        """
        region = region if region is not None else self.region
        if region is None:
            return None
        members = getattr(self.network.latency, "members", None)
        if members is None:
            return None
        best = None
        best_distance = None
        for address in members(region):
            if address != self.address and self._is_suspect(address):
                continue
            node_id = node_id_for(address)
            d = distance_cw(key, node_id)
            if best_distance is None or d < best_distance:
                best = NodeRef(node_id, address)
                best_distance = d
        return best

    # ------------------------------------------------------------------
    # Next-hop selection
    # ------------------------------------------------------------------
    def owns(self, key):
        """True if this node is responsible for ``key``.

        A node owns the keys in ``(predecessor, self]``. With no known
        predecessor we claim ownership only when we are our own
        successor (single-node ring); otherwise routing decides.
        """
        if self.predecessor is None:
            return self.successor == self.ref
        return in_interval(key, self.predecessor.id, self.id, inclusive_hi=True)

    def closest_preceding(self, target, exclude=()):
        """Best next hop toward ``target``: closest known predecessor of it.

        Skips suspects and anything in ``exclude`` (hops already tried
        for this message). Falls back to the first usable successor.

        The routing table is sorted by distance from this node, so the
        entries strictly between us and ``target`` are a prefix of it;
        the best hop is the last usable entry of that prefix.

        Under ``proximity_routing`` a same-region candidate within 2x
        of the best candidate's remaining distance wins the hop: every
        in-interval candidate still makes strict progress (its distance
        to the target is less than ours), so termination is untouched
        and the stretch is bounded, but hops stay on rack-scale links
        until the key's own region is reached.
        """
        distances, refs = self._routing_table()
        # Our distance to the target; a target at our own id is a full
        # lap away, so every entry precedes it.
        span = (target - self.id) % ID_SPACE or ID_SPACE
        i = bisect_left(distances, span)
        while i:
            i -= 1
            best = refs[i]
            if best.address in exclude or self._is_suspect(best.address):
                continue
            if not self._proximity_on():
                return best
            # Walk on while the remaining distance is within 2x of the
            # best's; the first usable same-region entry is the nearest.
            floor = span - 2 * (span - distances[i])
            while i >= 0 and distances[i] >= floor:
                local = refs[i]
                i -= 1
                if local.address in exclude or self._is_suspect(local.address):
                    continue
                if self._region_of(local.address) == self.region:
                    return best if local.id == best.id else local
            return best
        # Successor-list fallback -- but never overshoot the target:
        # forwarding *past* the key makes messages lap the ring while
        # an ownership gap heals. If no live entry precedes the target,
        # this node is the closest live predecessor and must act.
        for fallback in self.successors:
            if fallback == self.ref:
                continue
            if fallback.address in exclude or self._is_suspect(fallback.address):
                continue
            if in_interval(fallback.id, self.id, target):
                return fallback
        return None

    # ------------------------------------------------------------------
    # Hop-by-hop acked forwarding (shared by lookups and routes)
    # ------------------------------------------------------------------
    @staticmethod
    def _dup_sensitive(message):
        """Does duplicating this message at two nodes corrupt state?

        Exchange deliveries are: a copy consumed at the owner *and* at
        an heir double-counts rows, and only the dedup id lets a
        receiver drop a replay. Lookups are answers, puts/renews are
        idempotent, gets are reads -- duplicating those is harmless, so
        they keep the fastest possible failure recovery.
        """
        payload = getattr(message, "payload", None)
        return isinstance(payload, dict) and payload.get("mid") is not None

    def _send_hop(self, nxt, message, target, tried, retried=False):
        """Forward ``message`` to ``nxt``, expecting a receipt ack.

        On silence, a dup-sensitive message (see :meth:`_dup_sensitive`)
        is first *retransmitted* once to the same hop: a lost ack is as
        likely as a lost message, and a retransmit carries the same
        delivery id, so the receiver's dedup absorbs the duplicate --
        where rerouting straight away would deliver a second copy at a
        *different* node (an heir), which no node-local dedup can
        catch. A second silence (or the first, for idempotent traffic
        and hops already under suspicion) makes ``nxt`` a suspect and
        re-forwards the message around it (Bamboo's recursive-routing
        recovery).
        """
        req = self._fresh_req()
        message.hop_ack = (self.address, req)

        def not_acked():
            if self._pending_hop_acks.pop(req, None) is None:
                return
            if (not retried and self._dup_sensitive(message)
                    and not self._is_suspect(nxt.address)):
                self._send_hop(nxt, message, target, tried, retried=True)
                return
            self._suspect(nxt.address)
            self._advance(message, target, tried | {nxt.address})

        wait = (self.config.hop_retransmit_timeout if retried
                else self.config.rpc_timeout)
        timer = self.set_timer(wait, not_acked)
        self._pending_hop_acks[req] = timer
        message.hops += 1
        self.send(nxt.address, message)

    def _advance(self, message, target, tried):
        """Terminal-check then forward ``message`` toward ``target``."""
        if getattr(message, "force_terminal", False):
            self._terminal(message)
            return
        if self.owns(target) or self.successor == self.ref:
            self._terminal(message)
            return
        if in_interval(target, self.id, self.successor.id, inclusive_hi=True):
            if not (self._is_suspect(self.successor.address)
                    or self.successor.address in tried):
                self._send_hop(self.successor, message, target, tried)
                return
            # The key's owner appears dead. The next live successor-list
            # entry inherits its range once stabilization completes, so
            # deliver there now (flagged terminal -- the heir does not
            # yet believe it owns the range). Delivery at any heir is
            # approximate by contract, so proximity routing may prefer
            # a region-local heir over the strict list order and keep
            # the reroute off the backbone.
            heirs = [
                heir for heir in self.successors[1:]
                if heir != self.ref and heir.address not in tried
                and not self._is_suspect(heir.address)
            ]
            if self._proximity_on():
                heirs.sort(
                    key=lambda h: self._region_of(h.address) != self.region
                )
            if heirs:
                message.force_terminal = True
                self._send_hop(heirs[0], message, target, tried)
            else:
                self._terminal(message)
            return
        nxt = self.closest_preceding(target, exclude=tried)
        if nxt is None:
            # Every live candidate was tried: we are the closest live
            # node to the key, so act as its owner (Bamboo's recovery
            # behaviour). Stabilization will install the true owner
            # shortly; in the meantime an approximate delivery beats a
            # dropped one -- soft state tolerates the former.
            self._terminal(message)
            return
        self._send_hop(nxt, message, target, tried)

    def _terminal(self, message):
        if message.kind == "lookup":
            # The owner of the target answers with itself.
            self.send(
                message.origin.address,
                msg.LookupDone(message.req_id, self.ref, message.hops),
            )
        else:
            self._route_arrived(message)

    def _ack_hop(self, message):
        if message.hop_ack is not None:
            ack_to, req = message.hop_ack
            message.hop_ack = None
            self.send_direct(ack_to, {"op": "hop_ack", "req": req})

    # ------------------------------------------------------------------
    # Lookup (find the owner of a key)
    # ------------------------------------------------------------------
    def lookup(self, key, on_done):
        """Find the owner of ``key``; ``on_done(owner_ref, hops)``.

        ``owner_ref`` is None if every retry timed out (network
        partition, or the ring collapsed under us).
        """
        self._lookup_attempt(key, on_done, self.config.lookup_retries)

    def _lookup_attempt(self, key, on_done, retries_left):
        if self.owns(key) or self.successor == self.ref:
            self.lookup_hops.add(0)
            on_done(self.ref, 0)
            return
        if in_interval(key, self.id, self.successor.id, inclusive_hi=True):
            self.lookup_hops.add(1)
            on_done(self.successor, 1)
            return
        req_id = self._fresh_req()

        def timed_out():
            if req_id not in self._pending_lookups:
                return
            del self._pending_lookups[req_id]
            if retries_left > 0:
                self._lookup_attempt(key, on_done, retries_left - 1)
            else:
                on_done(None, -1)

        timer = self.set_timer(self.config.lookup_timeout, timed_out)
        self._pending_lookups[req_id] = (on_done, timer)
        self._advance(msg.Lookup(key, self.ref, req_id), key, frozenset())

    def _lookup_via(self, bootstrap_address, key, on_done):
        """Lookup routed through an arbitrary node (used while joining)."""
        req_id = self._fresh_req()

        def timed_out():
            if req_id in self._pending_lookups:
                del self._pending_lookups[req_id]
                on_done(None, -1)

        timer = self.set_timer(self.config.lookup_timeout, timed_out)
        self._pending_lookups[req_id] = (on_done, timer)
        self.send(bootstrap_address, msg.Lookup(key, self.ref, req_id, hops=1))

    def _handle_lookup(self, message):
        self._ack_hop(message)
        self._advance(message, message.target, frozenset())

    def _handle_lookup_done(self, message):
        entry = self._pending_lookups.pop(message.req_id, None)
        if entry is None:
            return
        on_done, timer = entry
        self.cancel_timer(timer)
        self.lookup_hops.add(message.hops)
        if self.trace is not None:
            self.trace.record("lookup_done", node=self.address, hops=message.hops)
        on_done(message.owner, message.hops)

    # ------------------------------------------------------------------
    # Key-routed application messages (with upcalls)
    # ------------------------------------------------------------------
    def route(self, key, payload, upcall=None):
        """Route ``payload`` toward the owner of ``key``.

        If ``upcall`` names a registered intercept, the intercept runs at
        every *subsequent* hop (not at the origin) and may absorb or
        transform the message -- PIER's in-network combining hook.
        """
        message = msg.Route(key, payload, self.ref, hops=0, upcall=upcall)
        self._advance(message, key, frozenset())

    def route_via(self, owner, key, payload, _retried=False):
        """Ship a key-routed payload straight to a previously learned owner.

        Standing continuous queries route the same epoch-free exchange
        keys every epoch; once the terminal node is known, one direct
        hop replaces the O(log N) recursive walk. The send is still
        hop-acked, with the same dup-aware recovery as routed hops: on
        silence a dup-sensitive payload is retransmitted once to the
        owner (same delivery id, so a live owner whose ack was lost
        dedups the copy instead of an heir double-counting it); only a
        second silence suspects the owner and falls back to normal key
        routing around it, so a stale cache costs a timeout rather than
        lost -- or duplicated -- rows.
        """
        message = msg.Route(key, payload, self.ref, hops=0)
        message.force_terminal = True  # deliver at the cached owner
        req = self._fresh_req()
        message.hop_ack = (self.address, req)

        def not_acked():
            if self._pending_hop_acks.pop(req, None) is None:
                return
            if (not _retried and self._dup_sensitive(message)
                    and not self._is_suspect(owner.address)):
                self.route_via(owner, key, payload, _retried=True)
                return
            self._suspect(owner.address)
            message.force_terminal = False
            message.hop_ack = None
            self._advance(message, key, frozenset({owner.address}))

        wait = (self.config.hop_retransmit_timeout if _retried
                else self.config.rpc_timeout)
        timer = self.set_timer(wait, not_acked)
        self._pending_hop_acks[req] = timer
        message.hops += 1
        self.send(owner.address, message)

    def route_through(self, via, key, payload, upcall=None):
        """Key-route ``payload`` with an explicit first hop at ``via``.

        The regional-tree send: the first hop goes to the region's
        rendezvous (see :meth:`region_rendezvous`) where the upcall
        intercept absorbs the partial into the region-local combiner;
        whatever the combiner later forwards resumes normal key routing
        toward the global owner. Unlike :meth:`route_via` the message
        is NOT flagged terminal -- the via node runs the ordinary
        per-hop upcall path, so absorption (not delivery) happens
        there. If the via is silent the hop machinery suspects it and
        re-routes toward the key as usual, so a dead rendezvous costs a
        timeout, never rows.
        """
        message = msg.Route(key, payload, self.ref, hops=0, upcall=upcall)
        if via == self.ref or via.address == self.address:
            # We are the rendezvous: take the intercept path locally,
            # exactly as if the message had just arrived here.
            self._handle_route(message)
            return
        self._send_hop(via, message, key, frozenset())

    def is_suspect(self, address):
        """Expose failure suspicion (owner caches skip suspected nodes)."""
        return self._is_suspect(address)

    def forward_route(self, message):
        """Continue routing a message an upcall previously absorbed."""
        self._advance(message, message.key, frozenset())

    def _handle_route(self, message):
        self._ack_hop(message)
        if message.upcall is not None:
            handler = self._intercepts.get(message.upcall)
            if handler is not None:
                at_owner = (
                    message.force_terminal
                    or self.owns(message.key)
                    or self.successor == self.ref
                )
                keep_going = handler(self, message, at_owner)
                if not keep_going:
                    return
        self._advance(message, message.key, frozenset())

    def _route_arrived(self, message):
        payload = message.payload
        op = payload.get("op")
        if op == "put":
            self.store.put(
                payload["ns"], payload["rid"], payload["iid"],
                payload["value"], payload["ttl"],
            )
        elif op == "renew":
            self.store.renew(
                payload["ns"], payload["rid"], payload["iid"], payload["ttl"]
            )
        elif op == "get":
            items = self.store.get(payload["ns"], payload["rid"])
            self.send(
                payload["reply_to"],
                msg.Direct({
                    "op": "get_reply",
                    "req": payload["req"],
                    "values": [(i.instance_id, i.value) for i in items],
                }),
            )
            self._note_storage_probe(payload["ns"])
        elif op == "deliver" or op == "deliver_batch":
            # A replay of a delivery this node already consumed (a
            # re-forward after a lost hop ack) drops here, before it
            # can double-count in an execution or the engine's
            # unclaimed-row buffer.
            if self.accept_delivery_once(payload.get("mid")):
                self._deliveries_arrived((payload,), message)
        elif op == "deliver_mux":
            # A multiplexed bundle: several co-routed exchange payloads
            # (different queries sharing one prefix stage) shipped as a
            # single message to a common owner. The bundle has its own
            # delivery id; each part keeps its own too, so a replayed
            # bundle drops whole and a part re-sent solo later still
            # dedups.
            if self.accept_delivery_once(payload.get("mid")):
                self._deliveries_arrived([
                    part for part in payload["parts"]
                    if self.accept_delivery_once(part.get("mid"))
                ], message)
        elif op == "bcast_repair":
            repaired = msg.Broadcast(
                payload["payload"], payload["limit"], message.origin,
                payload["depth"],
            )
            if self._deliver_broadcast(repaired):
                self._relay_broadcast(payload["payload"], payload["limit"],
                                      payload["depth"])
        else:  # pragma: no cover - future ops
            raise ValueError("unknown route op {!r}".format(op))

    def _deliveries_arrived(self, parts, message):
        """Answer the origin's owner question once, then dispatch parts.

        The answer is about ``message.key``, the routing key this node
        terminates, so one reply serves every part of a bundle and every
        exchange routing under that key.
        """
        if not parts or message.origin == self.ref:
            pass  # nothing delivered, or nobody else to tell
        elif (
            any(part.get("learn") for part in parts)
            and (self.owns(message.key) or self.successor == self.ref)
        ):
            # The origin asked who terminates this key (a standing
            # exchange warming its owner cache): answer once, then
            # it can skip the recursive walk until the hint expires.
            # Only the *owner* answers -- an heir that absorbed this
            # delivery while the owner is suspected must not get
            # cached, or batches would go direct to a non-owner for
            # the whole cache TTL. The origin simply keeps walking
            # until a true owner replies.
            self.send_direct(message.origin.address, {
                "op": "xowner", "key": message.key, "ref": self.ref,
                # Region label rides along so the learner can expire
                # cross-region owners faster than local ones.
                "region": self.region,
            })
        elif message.force_terminal and not self.owns(message.key):
            # A cache-directed (or heir) delivery landed on a node
            # that no longer owns the key -- ownership moved, e.g. a
            # joiner took over the range while the sender's owner
            # cache was warm. Deliver anyway (approximate delivery
            # beats a drop) but tell the origin to forget the entry
            # so its next batch re-walks the ring and re-learns.
            self.send_direct(message.origin.address, {
                "op": "xowner_stale", "key": message.key,
            })
        for part in parts:
            # No subscriber yet (plan still disseminating): the default
            # handler lets the engine buffer the row(s), not drop them.
            handler = (self._delivery_handlers.get(part["ns"])
                       or self._default_delivery)
            if handler is not None:
                handler(part, message)

    def register_intercept(self, name, handler):
        """``handler(node, route_msg, at_owner) -> bool`` (True = forward)."""
        self._intercepts[name] = handler

    def unregister_intercept(self, name):
        self._intercepts.pop(name, None)

    def on_storage_probe(self, handler):
        """``handler(namespace)`` runs when a storage probe (a routed
        ``get``, or a local ``lscan``) references a query-temporary
        namespace (``q|...``). The engine uses it to notice evidence of
        a continuous query it has no plan for and fetch the plan from
        the query site instead of waiting out a refresh period."""
        self._storage_probe_handlers.append(handler)

    def _note_storage_probe(self, namespace):
        if not namespace.startswith("q|"):
            return
        for handler in self._storage_probe_handlers:
            handler(namespace)

    def register_delivery(self, namespace, handler):
        """Receive ``deliver`` payloads routed to keys this node owns."""
        self._delivery_handlers[namespace] = handler

    def unregister_delivery(self, namespace):
        self._delivery_handlers.pop(namespace, None)

    def set_default_delivery(self, handler):
        """Fallback for ``deliver`` payloads with no registered namespace."""
        self._default_delivery = handler

    # ------------------------------------------------------------------
    # Broadcast (query dissemination)
    # ------------------------------------------------------------------
    def on_broadcast(self, handler):
        """``handler(payload, origin_ref, depth)`` runs once per broadcast."""
        self._broadcast_handlers.append(handler)

    def broadcast(self, payload):
        """Disseminate ``payload`` to every reachable node, O(log N) depth.

        Classic finger-table broadcast: each node covers ``(self, limit)``
        and delegates disjoint sub-ranges to its fingers, so each live
        node receives the message exactly once in a stable overlay.

        Dead fingers would silently sever their whole delegated range, so
        every child delivery is acked; an unacked range is *repaired* by
        key-routing the broadcast to the range's live owner, who resumes
        the relay. Under heavy churn some nodes may still be missed --
        which is exactly why the paper's Figure 1 plots the aggregate
        over "responding nodes" rather than all nodes.
        """
        self._deliver_broadcast(msg.Broadcast(payload, self.id, self.ref, 0))
        self._relay_broadcast(payload, self.id, 0)

    def _relay_broadcast(self, payload, limit, depth):
        targets = self._distinct_fingers()
        for i, finger in enumerate(targets):
            if not in_interval(finger.id, self.id, limit):
                continue
            child_limit = limit
            if i + 1 < len(targets) and in_interval(targets[i + 1].id, finger.id, limit):
                child_limit = targets[i + 1].id
            self._send_broadcast_child(payload, finger, child_limit, depth)

    def _send_broadcast_child(self, payload, child, child_limit, depth):
        req = self._fresh_req()

        def not_acked():
            if self._pending_bcast_acks.pop(req, None) is None:
                return
            self._suspect(child.address)
            # Child silent: hand its range to whoever now owns its id.
            self.route(child.id, {
                "op": "bcast_repair",
                "payload": payload,
                "limit": child_limit,
                "depth": depth + 1,
            })

        timer = self.set_timer(2 * self.config.rpc_timeout, not_acked)
        self._pending_bcast_acks[req] = timer
        self.send(
            child.address,
            msg.Broadcast(payload, child_limit, self.ref, depth + 1,
                          ack_to=self.address, req=req),
        )

    def _distinct_fingers(self):
        """Unsuspected finger + successor entries, one per id, ascending
        from self: for each id, the entry routing would pick."""
        out = []
        last_id = None
        for ref in reversed(self._routing_table()[1]):
            if ref.id != last_id and not self._is_suspect(ref.address):
                out.append(ref)
                last_id = ref.id
        out.reverse()
        return out

    def _handle_broadcast(self, message):
        if message.ack_to is not None:
            self.send_direct(message.ack_to, {"op": "bcast_ack", "req": message.req})
        if self._deliver_broadcast(message):
            self._relay_broadcast(message.payload, message.limit, message.depth)

    def _deliver_broadcast(self, message):
        """Deliver locally; returns False for an already-seen duplicate."""
        token = message.payload.get("token") if isinstance(message.payload, dict) else None
        if token is not None:
            if token in self._seen_broadcasts:
                return False
            self._seen_broadcasts.add(token)
        if self.trace is not None:
            self.trace.record("broadcast_deliver", node=self.address, depth=message.depth)
        for handler in self._broadcast_handlers:
            handler(message.payload, message.origin, message.depth)
        return True

    # ------------------------------------------------------------------
    # PIER storage API
    # ------------------------------------------------------------------
    def put(self, namespace, resource_id, instance_id, value, ttl=None):
        """Publish an item into the DHT (routed to the key's owner)."""
        ttl = ttl if ttl is not None else self.config.default_ttl
        key = storage_key(namespace, resource_id)
        self.route(key, {
            "op": "put", "ns": namespace, "rid": resource_id,
            "iid": instance_id, "value": value, "ttl": ttl,
        })

    def renew(self, namespace, resource_id, instance_id, ttl=None):
        ttl = ttl if ttl is not None else self.config.default_ttl
        key = storage_key(namespace, resource_id)
        self.route(key, {
            "op": "renew", "ns": namespace, "rid": resource_id,
            "iid": instance_id, "ttl": ttl,
        })

    def get(self, namespace, resource_id, on_done, timeout=None):
        """Fetch all instances under (namespace, resource_id).

        ``on_done(values)`` receives ``[(instance_id, value), ...]``;
        an empty list on timeout (indistinguishable, by design, from
        "nothing stored" -- soft state has no negative acks).
        """
        req = self._fresh_req()
        timeout = timeout if timeout is not None else self.config.lookup_timeout

        def timed_out():
            entry = self._pending_gets.pop(req, None)
            if entry is not None:
                entry[0]([])

        timer = self.set_timer(timeout, timed_out)
        self._pending_gets[req] = (on_done, timer)
        key = storage_key(namespace, resource_id)
        self.route(key, {
            "op": "get", "ns": namespace, "rid": resource_id,
            "reply_to": self.address, "req": req,
        })

    def lscan(self, namespace):
        """Locally stored live items of a namespace (PIER's scan access)."""
        self._note_storage_probe(namespace)
        return self.store.lscan(namespace)

    def new_data(self, namespace, callback, ttl=None):
        """Subscribe to arrivals in a namespace stored at this node.

        ``ttl`` makes the subscription soft state: the store's sweeper
        drops it once expired, so a subscriber that dies with an epoch
        can never leak its callback. Returns the subscription token for
        :meth:`renew_new_data`.
        """
        return self.store.on_new_data(namespace, callback, ttl)

    def renew_new_data(self, namespace, token, ttl):
        """Extend a TTL'd subscription (standing scans renew per epoch)."""
        return self.store.renew_new_data(namespace, token, ttl)

    def remove_new_data(self, namespace, token=None):
        self.store.remove_new_data(namespace, token)

    def send_direct(self, dst_address, payload):
        """Point-to-point app message (PIER uses this for result return)."""
        self.send(dst_address, msg.Direct(payload))

    def on_direct(self, handler):
        self._direct_handlers.append(handler)

    # ------------------------------------------------------------------
    # Maintenance protocol
    # ------------------------------------------------------------------
    def _install_rpc_handlers(self):
        self.rpc_handler("get_neighbors", self._rpc_get_neighbors)
        self.rpc_handler("notify", self._rpc_notify)
        self.rpc_handler("ping", self._rpc_ping)
        self.rpc_handler("successor_leaving", self._rpc_successor_leaving)

    def _rpc_get_neighbors(self, src, request, respond):
        respond({
            "predecessor": self.predecessor,
            "successors": list(self.successors),
        })

    def _rpc_notify(self, src, request, respond):
        # No liveness oracle here: a dead predecessor is evicted by
        # check_predecessor's ping timeout, after which any notifier is
        # accepted. This keeps failure detection purely timeout-driven.
        candidate = request["node"]
        accepted = False
        if self.predecessor is None or in_interval(
            candidate.id, self.predecessor.id, self.id
        ):
            self.predecessor = candidate
            accepted = True
        if accepted:
            self._handoff_keys_to(candidate)
        respond({"accepted": accepted})

    def _rpc_ping(self, src, request, respond):
        respond({"alive": True})

    def _rpc_successor_leaving(self, src, request, respond):
        replacements = [r for r in request["successors"] if r != self.ref]
        if replacements:
            self.successors = replacements[: self.config.successor_list_length]
        respond({"ok": True})

    def _handoff_keys_to(self, new_pred):
        """Transfer items a new predecessor now owns: keys outside (new_pred, self]."""
        def belongs_elsewhere(item):
            key = storage_key(item.namespace, item.resource_id)
            return not in_interval(key, new_pred.id, self.id, inclusive_hi=True)

        items = self.store.items_in_range(belongs_elsewhere)
        if items or self._seen_mids:
            # Delivery ids are not range-partitioned (the mid names the
            # sender, not the key), so the new owner gets the whole set;
            # dedup is idempotent and the TTL sweeps the excess.
            self.send(
                new_pred.address,
                msg.StoreItems(items, mids=dict(self._seen_mids)),
            )

    def _stabilize(self):
        succ = self.successor
        if succ == self.ref:
            if self.predecessor is not None and self.predecessor != self.ref:
                self.successors = [self.predecessor]
            return

        def on_reply(reply):
            self._absolve(succ.address)
            pred = reply["predecessor"]
            if pred is not None and pred != self.ref and in_interval(
                pred.id, self.id, succ.id
            ) and not self._is_suspect(pred.address):
                self.successors = [pred] + self.successors
            fresh = [self.successor]
            for ref in reply["successors"]:
                if ref not in fresh and ref != self.ref:
                    fresh.append(ref)
                if len(fresh) >= self.config.successor_list_length:
                    break
            self.successors = fresh
            self._notify_successor()

        def on_timeout():
            self._suspect(succ.address)
            # Successor is gone: fail over to the next live entry.
            if len(self.successors) > 1:
                self.successors = self.successors[1:]
            else:
                self.successors = [self.ref]

        self.rpc(succ.address, {"kind": "get_neighbors"}, on_reply, on_timeout)

    def _notify_successor(self):
        if self.successor == self.ref:
            return
        self.rpc(
            self.successor.address,
            {"kind": "notify", "node": self.ref},
            on_reply=lambda reply: None,
            on_timeout=lambda: None,
        )

    def _fix_fingers(self):
        for _ in range(self.config.fingers_per_round):
            index = self._next_finger
            self._next_finger = (self._next_finger + 1) % ID_BITS
            start = (self.id + (1 << index)) % (1 << ID_BITS)

            def set_finger(owner, hops, index=index, start=start):
                if owner is not None:
                    fingers = list(self.fingers)
                    fingers[index] = self._proximity_finger(
                        index, start, owner
                    )
                    self.fingers = fingers

            self.lookup(start, set_finger)

    def _proximity_finger(self, index, start, canonical):
        """Proximity neighbor selection for one finger slot.

        Any node in ``[start, start + 2^index)`` is a valid entry for
        slot ``index`` -- greedy routing still at least halves the
        remaining distance, keeping lookups O(log N) -- so when the
        canonical successor of ``start`` is in another region, prefer a
        known same-region node from inside the slot's span (Gummadi et
        al.'s PNS, the standard latency-stretch fix for Chord).
        """
        if not self._proximity_on():
            return canonical
        if self._region_of(canonical.address) == self.region:
            return canonical
        span = 1 << index
        best = canonical
        best_distance = None
        seen = set()
        for candidate in chain(self.fingers, self.successors):
            if candidate is None or candidate == self.ref:
                continue
            if candidate.address in seen:
                continue
            seen.add(candidate.address)
            if self._is_suspect(candidate.address):
                continue
            if self._region_of(candidate.address) != self.region:
                continue
            d = distance_cw(start, candidate.id)
            if d < span and (best_distance is None or d < best_distance):
                best = candidate
                best_distance = d
        return best

    def _check_predecessor(self):
        if self.predecessor is None or self.predecessor == self.ref:
            return
        pred = self.predecessor

        def on_timeout():
            self._suspect(pred.address)
            if self.predecessor == pred:
                self.predecessor = None

        self.rpc(
            pred.address,
            {"kind": "ping"},
            on_reply=lambda reply: self._absolve(pred.address),
            on_timeout=on_timeout,
        )

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle_message(self, src, payload):
        self._absolve(src)  # hearing from a node proves it is alive
        if self.handle_rpc_message(src, payload):
            return
        kind = payload.kind
        if kind == "lookup":
            self._handle_lookup(payload)
        elif kind == "lookup_done":
            self._handle_lookup_done(payload)
        elif kind == "route":
            self._handle_route(payload)
        elif kind == "broadcast":
            self._handle_broadcast(payload)
        elif kind == "store_items":
            for item in payload.items:
                self.store.put_item(item)
            for mid, forget_at in getattr(payload, "mids", {}).items():
                # Merge keeping the later deadline: if both sides saw
                # the mid, the fresher sighting wins.
                if forget_at > self._seen_mids.get(mid, 0.0):
                    self._seen_mids[mid] = forget_at
        elif kind == "direct":
            self._handle_direct(payload, src)
        else:  # pragma: no cover - defensive
            raise ValueError("unhandled message kind {!r}".format(kind))

    def _handle_direct(self, message, src):
        inner = message.payload
        op = inner.get("op") if isinstance(inner, dict) else None
        if op == "hop_ack":
            timer = self._pending_hop_acks.pop(inner["req"], None)
            if timer is not None:
                self.cancel_timer(timer)
            return
        if op == "bcast_ack":
            timer = self._pending_bcast_acks.pop(inner["req"], None)
            if timer is not None:
                self.cancel_timer(timer)
            return
        if op == "get_reply":
            entry = self._pending_gets.pop(inner["req"], None)
            if entry is not None:
                on_done, timer = entry
                self.cancel_timer(timer)
                on_done(inner["values"])
            return
        for handler in self._direct_handlers:
            handler(inner, src)
