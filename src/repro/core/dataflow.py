"""Per-node execution of an operator graph: one-shot epochs and
long-lived standing executions.

PIER's engine is push-based and non-blocking: scans push rows through
selections/projections into stateful operators (joins, group-bys),
which hold state until their *flush deadline* fires; exchanges move
rows between nodes through the DHT.

Two execution disciplines share the machinery:

* :class:`EpochExecution` -- one node's disposable instantiation of one
  plan for one epoch. One-shot and recursive queries use it.
* :class:`StandingExecution` -- one node's *only* instantiation of a
  standing continuous plan (every continuous plan is standing).
  Operators are built and wired once; at every epoch boundary the
  engine calls :meth:`advance_epoch`, which rolls each operator over
  instead of tearing the graph down and rebuilding it. Exchange
  namespaces are epoch-free and registered once per query, batches
  carry an epoch tag, and arrivals tagged with an already-finished
  epoch are dropped at the door -- the soft-state answer to
  stragglers. A standing execution may also run as a shared *spine*
  serving many canonically identical queries at once: it is then built
  with ``spine`` set and sees a :class:`SharedQueryContext`, whose
  ``s|``-prefixed namespaces and ``result_targets`` fan each epoch's
  answer out to every subscriber (see :mod:`repro.core.sharing`).

Epoch rollover is a *two-phase open/seal lifecycle*. Opening epoch
``k`` (``Operator.open_epoch``) starts fresh per-epoch state and lets
sources emit the new epoch's delta; sealing an epoch
(``Operator.seal_epoch``) ships whatever the operator still holds for
it and discards that epoch's state. How far the two phases separate is
the plan's *epoch ring width* ``N = QueryPlan.epoch_overlap`` (derived
by the planner from the flush schedule: the ceiling of the worst flush
horizon over the period, transfer margin included). The execution
keeps an ordered map of open epoch states and seals epoch ``k - N``
when opening ``k``, so at most ``N`` epoch states are ever live per
operator: ``N = 1`` collapses to the classic single-boundary rollover
(seal ``k-1``, open ``k``), ``N = 2`` is the former two-live-epoch
overlap mode, and longer flush schedules simply widen the ring instead
of falling back to rebuild-per-epoch. Every delivery and flush runs
inside :meth:`LocalQueryContext.in_epoch`, so stateful operators
always know which epoch's state a row or deadline belongs to; their
per-epoch state lives behind :class:`EpochStateRing`, which keeps the
create-on-first-touch / discard-on-seal bookkeeping in one place.

End-of-stream is deliberately absent: a planetary-scale system cannot
agree on "all rows have arrived", so operators flush on plan-specified
deadlines and the query site closes each epoch at the plan's deadline.
Late rows are dropped -- the soft-state philosophy the paper leans on.
"""

from contextlib import contextmanager

from repro.core.batch import RowBatch
from repro.util.errors import PlanError


def plan_live_epochs(plan):
    """A plan's epoch ring width N, clamped the way executions use it.

    The single definition of "how many epoch states stay live at
    once": :class:`StandingExecution` bounds its open-epoch map with
    it, and pane-holding operators (paned group-by finals, paned bloom
    stages) size their pane retention from it -- an older still-open
    epoch may re-read panes after the newest epoch advanced the
    window, so ``(N - 1) * panes_per_every`` extra pane ranges must
    survive pruning. Accepts a missing/stub plan (treated as N = 1).
    """
    return max(1, int(getattr(plan, "epoch_overlap", 1) or 1))


class LocalQueryContext:
    """What operator instances see of their environment.

    For standing executions ``epoch`` / ``t0`` are *mutable*: the
    execution re-points them at each boundary, after the operators have
    finished rolling the previous epoch over. ``active_epoch`` is the
    epoch the *current* push or flush belongs to -- usually equal to
    ``epoch``, but different while an overlapping-epoch execution
    delivers rows (or fires deadlines) for a still-live previous epoch.
    """

    #: True on :class:`SharedQueryContext` only -- operators that care
    #: whether they run under a spine (result fan-out, plan-pull
    #: provenance stamps) test this rather than the class.
    shared = False

    #: Prefix-sharing knobs (set by the engine on member executions).
    #: ``prefix_fed`` makes the plan's scan passive -- rows arrive via
    #: :meth:`StandingExecution.deliver_scan` from the shared stage
    #: instead of a private table subscription. ``prefix_key`` lets
    #: standing exchanges co-route co-tenant queries' rows to one owner
    #: (see :meth:`Exchange route namespaces <repro.core.exchange>`).
    prefix_fed = False
    prefix_key = None

    def __init__(self, engine, plan, query_id, epoch, t0, origin,
                 standing=False):
        self.engine = engine
        self.dht = engine.dht
        self.clock = engine.clock
        self.plan = plan
        self.query_id = query_id
        self.epoch = epoch
        self.t0 = t0  # epoch start (plan-global sim time)
        self.origin = origin  # query-site address for result return
        self.standing = standing
        self.active_epoch = epoch

    @contextmanager
    def in_epoch(self, epoch):
        """Scope ``active_epoch`` to ``epoch`` for one push/flush chain.

        Pushes cascade synchronously through the local graph, so a
        dynamically scoped epoch tag is enough for every operator
        downstream to file the rows under the right epoch state.
        """
        previous, self.active_epoch = self.active_epoch, epoch
        try:
            yield
        finally:
            self.active_epoch = previous

    def namespace(self, op_id, port):
        """DHT namespace for rows bound for (op, port).

        Epoch-scoped for disposable executions; epoch-free for standing
        ones, where the engine registers delivery once per query and
        batches carry the epoch as data instead.
        """
        if self.standing:
            return "q|{}|{}|{}".format(self.query_id, op_id, port)
        return "q|{}|{}|{}|{}".format(self.query_id, self.epoch, op_id, port)

    def upcall_name(self, op_id, port):
        """Intercept name for aggregation-tree combining on this edge."""
        if self.standing:
            return "t|{}|{}|{}".format(self.query_id, op_id, port)
        return "t|{}|{}|{}|{}".format(self.query_id, self.epoch, op_id, port)

    def route_namespace(self, op_id):
        """ROUTING namespace for the exchange feeding ``op_id``.

        Usually the ``"x"``-port delivery namespace; prefix-sharing
        members instead route under a namespace derived from the shared
        prefix key, so co-tenant queries' equal routing ids rendezvous
        at the SAME owner and their batches can be multiplexed into one
        wire message. Delivery stays per-query (``payload["ns"]``), so
        the owner demultiplexes back to each query's own operator.
        """
        if self.prefix_key is not None and self.standing:
            return "p|{}|{}|x".format(self.prefix_key, op_id)
        return self.namespace(op_id, "x")

    def fragment(self, table_name):
        """This node's local/stream fragment of ``table_name``."""
        return self.engine.fragment(table_name)

    def send_to_origin(self, payload):
        """Ship a payload directly to the query site (result return)."""
        self.dht.direct(self.origin, payload)

    def rep_qid(self):
        """A representative query id for plan-pull provenance.

        A private execution is its own representative; a spine answers
        with any live subscriber's qid (they all carry identical
        plans).
        """
        return self.query_id

    def result_targets(self, epoch):
        """Who gets this epoch's rows: ``(qid, origin, their_epoch)``
        triples. One target (ourselves) here; a spine fans out."""
        return ((self.query_id, self.origin, epoch),)


class SharedQueryContext(LocalQueryContext):
    """Context for a spine execution serving N subscriber queries.

    The query id IS the spine key, namespaces move to the ``s|`` / ``ts|``
    prefixes (so private ``q|`` plumbing and shared plumbing can never
    collide even if a qid equalled a spine key), and result fan-out
    translates each spine epoch to every subscriber's own epoch number
    via its grid offset. ``origin`` is this node itself -- a spine has
    no single query site; results go to each subscriber's origin.
    """

    shared = True

    def __init__(self, engine, plan, spine, epoch, t0):
        super().__init__(
            engine, plan, spine.key, epoch, t0, engine.address,
            standing=True,
        )
        self.spine = spine

    def namespace(self, op_id, port):
        return "s|{}|{}|{}".format(self.query_id, op_id, port)

    def upcall_name(self, op_id, port):
        return "ts|{}|{}|{}".format(self.query_id, op_id, port)

    def rep_qid(self):
        return self.spine.rep_qid()

    def result_targets(self, epoch):
        """Fan spine epoch ``epoch`` to every subscriber it answers.

        Subscriber epoch ``j = epoch - offset``: ``j < 1`` predates the
        subscriber's first window (its epoch 0 is the submission
        instant, never reported), ``j > last_epoch`` is past its
        LIFETIME.
        """
        targets = []
        for sub in self.spine.subscribers.values():
            j = epoch - sub.offset
            if j < 1:
                continue
            if sub.last_epoch is not None and j > sub.last_epoch:
                continue
            targets.append((sub.qid, sub.origin, j))
        return targets


class EpochStateRing:
    """Per-epoch operator state behind the open/seal lifecycle.

    Every stateful operator holds what it has accumulated for each live
    epoch (hash tables, group states, pending batches, reflush timers)
    in one *state object per epoch*. The ring owns the bookkeeping that
    used to be re-implemented per operator:

    * ``state(epoch)`` creates the epoch's state lazily on first touch
      (``factory()``), so an epoch that never sees a row costs nothing;
    * ``seal(epoch)`` pops the state exactly once, running ``on_seal``
      (timer cancellation and the like) before handing it back to the
      caller -- after a seal the epoch's memory is reclaimed and any
      straggler touching it simply starts from ``peek() is None``;
    * ``clear()`` is teardown: every live state is sealed.

    The execution bounds how many epochs are live at once (its plan's
    ``epoch_overlap``); the ring itself only promises that state for an
    epoch exists between first touch and seal, and never after.
    """

    __slots__ = ("_factory", "_on_seal", "_states")

    def __init__(self, factory, on_seal=None):
        self._factory = factory
        self._on_seal = on_seal
        self._states = {}

    def state(self, epoch):
        """The epoch's state, created on first touch."""
        state = self._states.get(epoch)
        if state is None:
            state = self._states[epoch] = self._factory()
        return state

    def peek(self, epoch):
        """The epoch's state if it was ever touched and not yet sealed."""
        return self._states.get(epoch)

    def seal(self, epoch):
        """Discard (and return) the epoch's state; ``on_seal`` runs first."""
        state = self._states.pop(epoch, None)
        if state is not None and self._on_seal is not None:
            self._on_seal(state)
        return state

    def epochs(self):
        """Live epochs, ascending."""
        return sorted(self._states)

    def items(self):
        """(epoch, state) pairs for every live epoch, ascending."""
        return [(e, self._states[e]) for e in sorted(self._states)]

    def clear(self):
        """Teardown: seal every live epoch."""
        states, self._states = self._states, {}
        if self._on_seal is not None:
            for state in states.values():
                self._on_seal(state)

    def __contains__(self, epoch):
        return epoch in self._states

    def __len__(self):
        return len(self._states)

    def __repr__(self):
        return "EpochStateRing(live={})".format(sorted(self._states))


class Operator:
    """Base class for operator instances.

    Lifecycle: ``start`` (once, after wiring; scans emit here), then any
    number of ``push_batch(batch, port)`` calls, then ``flush`` at the
    plan's deadline for this op (stateful ops emit held state), finally
    ``teardown``. ``control`` receives coordinator control messages
    (e.g. a merged Bloom filter).

    Rows travel only as :class:`~repro.core.batch.RowBatch` units:
    ``push_batch`` is the one way an operator receives rows and
    ``emit_batch`` the one way it passes them on. A single row is a
    one-row batch.

    Standing executions add the epoch lifecycle. ``open_epoch(k, t_k)``
    begins epoch ``k``: sources emit the new epoch's delta, stateful
    operators lazily start a fresh per-epoch state on first push.
    ``seal_epoch(k)`` finishes epoch ``k`` at this operator: ship
    whatever is still held under that epoch's tag (exchanges, result
    sinks) or discard it (post-flush straggler state), exactly where a
    disposable per-epoch execution's teardown would have. The execution keeps up to
    ``plan.epoch_overlap`` epochs open at once and drives the two
    phases directly -- sealing ``k - N`` before opening ``k`` -- so an
    operator never needs to know the ring width. Stateful operators
    key their state by ``ctx.active_epoch`` (kept in an
    :class:`EpochStateRing`), which the execution scopes around every
    delivery and flush.

    Paned plans additionally thread ``open_pane(p)`` markers through
    the local chain between a stream scan and the pane-aware stateful
    operator above it: the scan announces which pane the next emitted
    rows belong to, stateless operators forward the marker, and the
    pane-aware consumer switches its accumulation bucket.
    """

    def __init__(self, ctx, spec):
        self.ctx = ctx
        self.spec = spec
        self.consumers = []  # (operator instance, port)

    def wire(self, consumer, port):
        """Connect this operator's output to ``consumer``'s input port."""
        self.consumers.append((consumer, port))

    def start(self):
        """Run once after the graph is wired; sources emit here."""
        pass

    def push_batch(self, batch, port=0):
        """Receive a :class:`RowBatch` on ``port`` (operators without
        inputs raise)."""
        raise NotImplementedError(
            "{} does not accept input".format(type(self).__name__)
        )

    def flush(self):
        """Plan deadline for this op: emit held state downstream.

        Runs inside ``ctx.in_epoch`` scoping, so per-epoch operators
        flush exactly the state of ``ctx.active_epoch``.
        """
        pass

    def control(self, payload):
        """Receive a coordinator control message (Bloom filters etc.)."""
        pass

    def open_epoch(self, k, t_k):
        """Begin epoch ``k`` (sources emit the epoch's delta here)."""
        pass

    def seal_epoch(self, k):
        """Finish epoch ``k``: ship or drop anything still held for it."""
        pass

    def teardown(self):
        """Execution is closing: release subscriptions, ship leftovers."""
        pass

    def emit_batch(self, batch):
        """Push a :class:`RowBatch` to every wired consumer."""
        for consumer, port in self.consumers:
            consumer.push_batch(batch, port)

    def emit_rows(self, rows, schema=None):
        """Emit a list of row tuples (taken over) as one batch; an empty
        list emits nothing."""
        if rows:
            self.emit_batch(RowBatch(rows=rows, schema=schema))

    def open_pane(self, pane):
        """A paned producer announces the pane its next rows belong to.

        Stateless operators forward the marker down the local chain;
        pane-aware stateful operators (group-by partials and finals,
        top-k, bloom stages, pane-tagged exchanges) override this to
        switch their accumulation bucket and stop the propagation.
        Markers also survive the network: a pane-tagged exchange stamps
        each batch with the pane it was pushed under, and delivery
        re-announces it on the receiving side before pushing the rows.
        """
        for consumer, _port in self.consumers:
            consumer.open_pane(pane)

    def announce_pane(self, pane):
        """Tell consumers which pane the next emitted rows belong to.

        Producers that *re-emit* pane-bucketed state (a delta-shipping
        group-by partial, a fetch-matches join releasing async replies)
        use this instead of ``open_pane`` -- calling their own
        ``open_pane`` would hit their receiver override rather than
        their consumers.
        """
        for consumer, _port in self.consumers:
            consumer.open_pane(pane)

    def reset_batch(self):
        """A cumulative upstream operator is about to re-emit its full
        state (streaming refinement after stragglers). Stateless ops
        just propagate; replace-mode sinks clear their current batch.
        """
        for consumer, _port in self.consumers:
            consumer.reset_batch()

    def _active_epoch(self):
        """Epoch tag for the current push/flush (stub-context safe)."""
        ctx = self.ctx
        return getattr(ctx, "active_epoch", getattr(ctx, "epoch", 0))

    def _run_in_epoch(self, epoch, fn):
        """Run ``fn`` with ``ctx.active_epoch`` scoped to ``epoch``.

        Operator-internal timers (refinement re-flushes, async fetch
        replies) fire outside the execution's own epoch scoping and use
        this to restore the epoch their state belongs to.
        """
        scope = getattr(self.ctx, "in_epoch", None)
        if scope is None:
            fn()
            return
        with scope(epoch):
            fn()

    def __repr__(self):
        return "{}({!r})".format(type(self).__name__, self.spec.op_id)


class _ExecutionBase:
    """Shared graph instantiation, delivery, and flush scheduling."""

    standing = False

    def __init__(self, engine, plan, query_id, epoch, t0, origin,
                 spine=None, prefix_key=None):
        from repro.core.operators import create_operator

        self.engine = engine
        self.plan = plan
        self.query_id = query_id
        self.epoch = epoch
        self.t0 = t0
        self.origin = origin
        if spine is not None:
            self.ctx = SharedQueryContext(engine, plan, spine, epoch, t0)
        else:
            self.ctx = LocalQueryContext(
                engine, plan, query_id, epoch, t0, origin,
                standing=self.standing,
            )
        if prefix_key is not None:
            self.ctx.prefix_fed = True
            self.ctx.prefix_key = prefix_key
        self.ops = {}
        self._flush_timers = []
        self.closed = False

        for spec in plan.specs.values():
            self.ops[spec.op_id] = create_operator(self.ctx, spec)
        for spec in plan.specs.values():
            producer = self.ops[spec.op_id]
            for consumer_id, port in plan.consumers_of(spec.op_id):
                producer.wire(self.ops[consumer_id], port)

    def start(self):
        """Register network endpoints, start ops (sources last)."""
        self._register_endpoints()
        sources = self._source_ids()
        for op_id, op in self.ops.items():
            if op_id not in sources:
                op.start()
        for op_id in sources:
            self.ops[op_id].start()
        self._schedule_flushes()

    def _source_ids(self):
        # A list in plan order: callers start, open and seal sources in
        # this order, and a set would order them by string hash.
        return [s.op_id for s in self.plan.sources()]

    def _register_endpoints(self):
        """Tell the engine which exchange namespaces feed which ops."""
        for spec in self.plan.ops_of_kind("exchange"):
            consumers = self.plan.consumers_of(spec.op_id)
            if len(consumers) != 1:
                raise PlanError(
                    "exchange {!r} must feed exactly one op".format(spec.op_id)
                )
            consumer_id, port = consumers[0]
            mode = spec.params.get("mode", "rehash")
            if mode in ("rehash", "tree"):
                ns = self.ctx.namespace(consumer_id, port)
                combine = spec.params.get("combine") if mode == "tree" else None
                self.engine.register_exchange_input(
                    ns, self, consumer_id, port, combine,
                    standing=self.standing,
                )

    def _unregister_endpoints(self):
        for spec in self.plan.ops_of_kind("exchange"):
            consumers = self.plan.consumers_of(spec.op_id)
            if consumers:
                consumer_id, port = consumers[0]
                ns = self.ctx.namespace(consumer_id, port)
                self.engine.unregister_exchange_input(ns)

    def _schedule_flushes(self, epoch=None, t0=None):
        """Arm one timer per planned flush offset, bound to ``epoch``.

        Timers are tracked as ``(epoch, timer)`` so a standing
        execution can cancel exactly one epoch's deadlines when it
        seals that epoch.
        """
        now = self.engine.clock.now
        epoch = epoch if epoch is not None else self.ctx.epoch
        t0 = t0 if t0 is not None else self.ctx.t0
        for op_id, offset in self.plan.flush_offsets.items():
            if op_id not in self.ops:
                continue
            delay = max(0.0, t0 + offset - now)
            timer = self.engine.set_timer(delay, self._flush_op, op_id, epoch)
            self._flush_timers.append((epoch, timer))

    def _flush_op(self, op_id, epoch=None):
        if self.closed:
            return
        epoch = epoch if epoch is not None else self.ctx.epoch
        with self.ctx.in_epoch(epoch):
            self.ops[op_id].flush()

    def flush_input(self, op_id, epoch):
        """Flush one operator's held state for ``epoch`` out of band.

        The engine uses this after replaying early-buffered exchange
        rows into a freshly adopted execution: the epoch's scheduled
        flush wave may already be past (or dangerously far off on a
        node that might churn again), and replayed rows should reach
        the query site as soon as they land.
        """
        self._flush_op(op_id, epoch)

    def deliver_batch(self, op_id, port, rows, pane=None):
        """A batched exchange message arrived: feed the consumer batch.

        ``pane`` is the batch's pane tag (pane-tagged exchanges of
        paned plans); it is re-announced to the receiving operator
        before the rows so per-pane state lands in the right bucket.
        """
        if self.closed:
            return
        op = self.ops[op_id]
        if pane is not None:
            op.open_pane(pane)
        op.push_batch(RowBatch(rows=list(rows)), port)

    def control(self, op_id, payload, epoch=None):
        """Deliver a control payload to one op, or to a filter group.

        Bloom control messages target a group id shared by both stage
        ops of a join rather than a single op id, and carry the epoch
        whose filters they complete: delivery is scoped to that epoch
        so per-epoch operator state files the release correctly.
        """
        if self.closed:
            return
        targets = []
        op = self.ops.get(op_id)
        if op is not None:
            targets.append(op)
        else:
            targets = [
                candidate for candidate in self.ops.values()
                if candidate.spec.params.get("group") == op_id
            ]
        with self.ctx.in_epoch(epoch if epoch is not None else self.ctx.epoch):
            for target in targets:
                target.control(payload)

    def close(self):
        """Tear the execution down: cancel timers, teardown every op,
        release this node's exchange registrations. Idempotent; later
        deliveries hit the ``closed`` guard and drop."""
        if self.closed:
            return
        self.closed = True
        for _epoch, timer in self._flush_timers:
            timer.cancel()
        self._flush_timers = []
        # Teardown before unregistering: an exchange's teardown flush
        # can deliver self-owned rows synchronously, and with the
        # namespace still registered they hit this execution's closed
        # guard (a cheap drop) instead of the engine's unclaimed-row
        # buffer (held for its whole TTL).
        for op in self.ops.values():
            op.teardown()
        self._unregister_endpoints()


class EpochExecution(_ExecutionBase):
    """One node's disposable instantiation of a plan for one epoch."""

    def __repr__(self):
        return "EpochExecution({!r}, epoch={}, node={})".format(
            self.query_id, self.epoch, self.engine.address
        )


class StandingExecution(_ExecutionBase):
    """One node's long-lived instantiation of a standing continuous plan.

    Built once when the query is adopted; the engine's epoch timers
    then call :meth:`advance_epoch` at each boundary. Exchange inputs
    are registered once (epoch-free namespaces), so the engine's
    early-row buffering window shrinks to first adoption only, and
    arrivals carry an epoch tag checked here: tags for sealed epochs
    are dropped as late, early tags (a sender whose boundary timer
    fired first) are parked until this node advances.

    The execution keeps an ordered map of open epochs bounded by the
    plan's ring width ``N = plan.epoch_overlap``: opening epoch ``k``
    seals every epoch at or below ``k - N``. A sealed epoch's still-
    pending flush timers are cancelled with it; the surviving epochs'
    deadlines -- which may stretch several periods past their boundary
    -- keep firing against their own state, and exchange arrivals
    tagged with any open epoch still land in it. ``N = 1`` is the
    classic one-live-epoch rollover; larger ``N`` is how slow flush
    schedules (tree holds, bloom round-trips) run standing instead of
    rebuilding per epoch.
    """

    standing = True

    def __init__(self, engine, plan, query_id, epoch, t0, origin,
                 spine=None, prefix_key=None):
        super().__init__(engine, plan, query_id, epoch, t0, origin,
                         spine=spine, prefix_key=prefix_key)
        self.live_epochs = plan_live_epochs(plan)
        self._early = {}  # epoch -> [(op_id, port, rows)]
        self._early_scan = {}  # epoch -> [(rows, pane)] from a prefix stage
        self._open_epochs = {epoch: t0}  # epoch -> t_k, ascending
        self._sealed_through = epoch - 1  # epochs <= this are closed here
        # Adaptive ring: the planner records the plan's *true* flush
        # horizon (no static cap since it was retired); the execution
        # decides how many epoch states actually stay live. Start
        # clamped at ring_max_overlap, widen by one whenever a boundary
        # saw late-straggler drops, narrow after a run of quiet
        # boundaries -- but never below what the tail demonstrably
        # needs (the staleness high-water mark of recent deliveries).
        # Paned plans opt out: their pane retention is sized from the
        # planned width, so the ring must not outgrow it.
        config = getattr(engine, "config", None)
        self._adaptive_ring = (
            bool(getattr(config, "adaptive_ring", True))
            and getattr(plan, "pane", None) is None
        )
        self._ring_max = max(1, int(getattr(config, "ring_max_overlap", 64)))
        self._ring_quiet = max(1, int(
            getattr(config, "ring_quiet_boundaries", 4)
        ))
        if self._adaptive_ring or self.live_epochs > self._ring_max:
            self.live_epochs = min(self.live_epochs, self._ring_max)
        # The planned width stays the floor: it is the flush horizon
        # the timing walk proved the plan needs, so narrowing below it
        # would seal epochs before their own flushes fire. Adaptation
        # happens above it -- widen past the plan on observed drops,
        # then decay back.
        self._ring_floor = self.live_epochs
        self.late_drops = 0  # total late drops at this execution
        self._drops_since_boundary = 0
        self._quiet_boundaries = 0
        self._stale_high = 0  # max delivery staleness seen recently

    @property
    def overlap(self):
        """True when the ring holds more than one live epoch."""
        return self.live_epochs > 1

    @property
    def current_epoch(self):
        """The newest open epoch (what the engine indexes this node's
        execution under)."""
        return self.ctx.epoch

    def advance_epoch(self, k, t_k):
        """Epoch boundary: open ``k``, sealing every epoch <= ``k - N``."""
        if self.closed:
            return
        if self._adaptive_ring:
            self._resize_ring()
        for stale in sorted(
            e for e in self._open_epochs if e <= k - self.live_epochs
        ):
            self._seal_epoch(stale)
        now = self.engine.clock.now
        self._flush_timers = [
            (e, t) for e, t in self._flush_timers
            if not t.cancelled and t.time > now
        ]
        self._open_epochs[k] = t_k
        self._move_context(k, t_k)
        sources = self._source_ids()
        for op_id, op in self.ops.items():
            if op_id not in sources:
                op.open_epoch(k, t_k)
        self._schedule_flushes(k, t_k)
        # Sources last: scans emit the new epoch's delta into consumers
        # that have already opened it.
        for op_id in sources:
            self.ops[op_id].open_epoch(k, t_k)
        for op_id, port, rows, pane in self._early.pop(k, ()):
            self.deliver_batch(op_id, port, rows, k, pane)
        for rows, pane in self._early_scan.pop(k, ()):
            self.deliver_scan(rows, k, pane)

    def _resize_ring(self):
        """Adapt the ring width to the observed straggler tail.

        Widen by one after any boundary interval that dropped late
        rows (capped at ``ring_max_overlap``); after ``ring_quiet``
        drop-free boundaries, narrow by one back toward the planned
        floor -- but never below the recent delivery-staleness
        high-water mark + 1, so a tail that genuinely uses the extra
        width keeps it and the widen/narrow pair cannot oscillate
        against real stragglers. The staleness mark decays one epoch
        per boundary, letting a spike age out.
        """
        if self._drops_since_boundary:
            self._drops_since_boundary = 0
            self._quiet_boundaries = 0
            if self.live_epochs < self._ring_max:
                self.live_epochs += 1
                if hasattr(self.engine, "ring_widenings"):
                    self.engine.ring_widenings += 1
        else:
            self._quiet_boundaries += 1
            needed = max(self._ring_floor, self._stale_high + 1)
            if (self._quiet_boundaries >= self._ring_quiet
                    and self.live_epochs > needed):
                self.live_epochs -= 1
                self._quiet_boundaries = 0
        if self._stale_high > 0:
            self._stale_high -= 1

    def _note_late_drop(self):
        self.late_drops += 1
        self._drops_since_boundary += 1
        if hasattr(self.engine, "ring_late_drops"):
            self.engine.ring_late_drops += 1

    def _move_context(self, k, t_k):
        self.ctx.epoch = k
        self.ctx.t0 = t_k
        self.ctx.active_epoch = k
        self.epoch = k
        self.t0 = t_k

    def _seal_epoch(self, e):
        """Close epoch ``e`` everywhere: ship leftovers, drop its state."""
        self._open_epochs.pop(e, None)
        self._early.pop(e, None)
        self._early_scan.pop(e, None)
        kept = []
        for epoch, timer in self._flush_timers:
            if epoch == e:
                timer.cancel()
            else:
                kept.append((epoch, timer))
        self._flush_timers = kept
        sources = self._source_ids()
        with self.ctx.in_epoch(e):
            for op_id, op in self.ops.items():
                if op_id not in sources:
                    op.seal_epoch(e)
            for op_id in sources:
                self.ops[op_id].seal_epoch(e)
        self._sealed_through = max(self._sealed_through, e)

    def deliver_batch(self, op_id, port, rows, epoch=None, pane=None):
        """Exchange arrival tagged ``epoch``: deliver into that epoch's
        state if it is open here, drop it as late if already sealed,
        park it as early if this node has not opened it yet. ``pane``
        is the batch's pane tag (paned plans); it is re-announced to
        the receiving operator before the rows land."""
        if self.closed:
            return
        if epoch is None:
            epoch = self.ctx.epoch
        if epoch not in self._open_epochs:
            if epoch <= self._sealed_through:
                # Late: that epoch already closed here. Untagged rows
                # drop (their per-epoch state is gone), but a
                # pane-tagged increment is *ship-once* delta state
                # whose pane store deliberately outlives epochs --
                # dropping it would under-count every remaining window
                # covering the pane. Re-file it under the oldest open
                # epoch instead; the pane tag, not the epoch, decides
                # where it lands.
                if pane is None or not self._open_epochs:
                    self._note_late_drop()
                    return
                epoch = min(self._open_epochs)
            elif epoch > self.ctx.epoch + 2:
                return  # implausibly far ahead: don't park unboundedly
            else:
                self._early.setdefault(epoch, []).append(
                    (op_id, port, list(rows), pane)
                )
                return
        elif epoch < self.ctx.epoch:
            # An open-but-old epoch: how far behind the newest this
            # delivery ran is the staleness the adaptive ring must
            # keep covering when it considers narrowing.
            stale = self.ctx.epoch - epoch
            if stale > self._stale_high:
                self._stale_high = stale
        op = self.ops[op_id]
        with self.ctx.in_epoch(epoch):
            if pane is not None:
                op.open_pane(pane)
            op.push_batch(RowBatch(rows=list(rows)), port)

    def deliver_scan(self, rows, epoch, pane=None):
        """Scan rows arrived from a shared prefix stage for ``epoch``.

        A prefix-fed member's scan is passive; the stage's demux calls
        this instead, with the member's own epoch number. Guards mirror
        :meth:`deliver_batch`: sealed epochs drop (pane-tagged rows
        re-file under the oldest open epoch -- the pane, not the epoch,
        decides where windowed state lands), epochs this member has not
        opened yet park in ``_early_scan`` until its boundary timer
        fires (the stage timer can fire first at a shared instant), and
        implausibly far-ahead tags drop.
        """
        if self.closed:
            return
        if epoch not in self._open_epochs:
            if epoch <= self._sealed_through:
                if pane is None or not self._open_epochs:
                    self._note_late_drop()
                    return
                epoch = min(self._open_epochs)
            elif epoch > self.ctx.epoch + 2:
                return
            else:
                self._early_scan.setdefault(epoch, []).append(
                    (list(rows), pane)
                )
                return
        scan_id = self._prefix_scan_id()
        if scan_id is None:
            return
        with self.ctx.in_epoch(epoch):
            self.ops[scan_id].inject_rows(list(rows), pane)

    def _prefix_scan_id(self):
        scans = [s.op_id for s in self.plan.ops_of_kind("scan")]
        return scans[0] if len(scans) == 1 else None

    def close(self):
        self._early = {}
        self._early_scan = {}
        self._open_epochs = {}
        super().close()

    def __repr__(self):
        return "StandingExecution({!r}, epoch={}, node={})".format(
            self.query_id, self.ctx.epoch, self.engine.address
        )
