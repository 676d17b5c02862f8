"""Small operators: distinct, union, limit, and result return.

``distinct`` is the linchpin of recursive queries: DHT-partitioned (by
an exchange keyed on the whole row), it emits only never-seen rows, so
a cyclic plan reaches a fixpoint when no new rows appear anywhere --
which the engine reports to the query site as quiescence.

``result`` is the query-site boundary: rows are batched briefly and
sent directly (not via DHT routing) to the origin node, exactly how
PIER returns answers.

Stateful operators here keep their per-``ctx.active_epoch`` state in an
:class:`~repro.core.dataflow.EpochStateRing`, so an overlapping-epoch
standing execution keeps up to N epochs' state apart through one
instance.
"""

from repro.core.batch import RowBatch
from repro.core.dataflow import EpochStateRing, Operator
from repro.core.operators import register_operator
from repro.db.window import window_pane_range


@register_operator("distinct")
class Distinct(Operator):
    """Emit each distinct row once, immediately on first arrival.

    Params: ``report_progress`` -- when true (recursive plans), novel
    row counts feed the engine's quiescence reports.
    """

    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        self._seen = EpochStateRing(set)  # epoch -> set of rows
        self._report = spec.params.get("report_progress", False)

    def push_batch(self, batch, port=0):
        """One membership pass; the novel rows leave in first-occurrence
        order as one batch, and the progress note counts the wave."""
        seen = self._seen.state(self._active_epoch())
        seen_add = seen.add
        novel = []
        append = novel.append
        for row in batch.rows():
            if row not in seen:
                seen_add(row)
                append(row)
        if not novel:
            return
        if self._report:
            self.ctx.engine.note_progress(
                self.ctx.query_id, self.ctx.epoch, len(novel)
            )
        self.emit_batch(RowBatch(rows=novel))

    def seal_epoch(self, k):
        self._seen.seal(k)

    def teardown(self):
        self._seen.clear()


@register_operator("demux")
class Demux(Operator):
    """Fan a shared prefix stage's scan waves into member executions.

    The stage plan is scan -> demux; the engine parks the owning
    :class:`~repro.core.sharing.PrefixRecord` on the stage context
    (``ctx.prefix_record``) and this operator fans every wave of stage
    epoch ``k`` to each subscriber as *its* epoch ``j = k - offset``
    via ``StandingExecution.deliver_scan`` (which re-applies the
    member-side open/sealed/early guards). Pane markers from the stage
    scan ride along so pane-aware tails bucket waves exactly as a
    private scan would announce them.

    Paned stages also retain each emitted pane's rows (pruned below the
    newest window) so a subscriber that joins an already-running stage
    can be backfilled: at its first full boundary the retained panes
    its window still covers are injected once, making its epoch-1
    window identical to a private twin's -- exact parity from the first
    reported epoch onward.
    """

    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        geometry = spec.params.get("paned")
        self._paned = bool(geometry)
        if self._paned:
            self._panes_per_every = geometry["every"]
            self._panes_per_window = geometry["window"]
        self._pane = None  # current pane marker from the stage scan
        self._store = {}  # pane -> [rows] retained for joiner backfill

    def _record(self):
        return getattr(self.ctx, "prefix_record", None)

    def _member_pane(self, pane, sub):
        """Translate a stage pane index into the subscriber's numbering.

        Pane indices are aligned to a query's own t0; a member that
        joined ``offset`` epochs after the stage's grid origin numbers
        the same wall-clock pane ``offset * panes_per_every`` lower.
        """
        if pane is None:
            return None
        return pane - sub.offset * self._panes_per_every

    def open_pane(self, pane):
        self._pane = pane  # marker consumed here, not propagated

    def push_batch(self, batch, port=0):
        rows = batch.rows()
        record = self._record()
        if record is None or not rows:
            return
        k = self._active_epoch()
        pane = self._pane if self._paned else None
        if pane is not None:
            self._store.setdefault(pane, []).extend(rows)
        engine = self.ctx.engine
        for sub in list(record.subscribers.values()):
            j = k - sub.offset
            if j < 1:
                # Members never run their epoch 0 (submission instant);
                # the first boundary's open drains backfill instead.
                continue
            if sub.last_epoch is not None and j > sub.last_epoch:
                continue
            execution = engine.prefix_member_execution(sub.qid)
            if execution is not None:
                execution.deliver_scan(
                    list(rows), j, self._member_pane(pane, sub)
                )

    def open_epoch(self, k, t_k):
        record = self._record()
        if record is None or not self._paned:
            return
        lo, hi = window_pane_range(
            k, self._panes_per_every, self._panes_per_window
        )
        engine = self.ctx.engine
        for sub in list(record.subscribers.values()):
            if not sub.needs_backfill or k < sub.start_epoch:
                continue
            sub.needs_backfill = False
            execution = engine.prefix_member_execution(sub.qid)
            if execution is None:
                continue
            j = k - sub.offset
            # Panes emitted at stage epochs < k that epoch k's window
            # still covers: [lo, hi - panes_per_every). The top
            # panes_per_every panes are epoch k's own wave, which fans
            # normally right after this open (sources open last).
            for p in sorted(self._store):
                if lo <= p < hi - self._panes_per_every:
                    execution.deliver_scan(
                        list(self._store[p]), j, self._member_pane(p, sub)
                    )
        for p in [p for p in self._store if p < lo]:
            del self._store[p]

    def teardown(self):
        self._store = {}


@register_operator("union")
class Union(Operator):
    """Bag union: forward batches from any port unchanged."""

    def push_batch(self, batch, port=0):
        self.emit_batch(batch)


@register_operator("limit")
class Limit(Operator):
    """Stop forwarding after ``limit`` rows (local short-circuit).

    The countdown is per epoch: each epoch answers the LIMIT afresh,
    as a rebuilt operator would.
    """

    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        limit = spec.params["limit"]
        # epoch -> [rows still allowed through] (one-slot mutable cell)
        self._remaining = EpochStateRing(lambda: [limit])

    def push_batch(self, batch, port=0):
        cell = self._remaining.state(self._active_epoch())
        n = min(len(batch), cell[0])
        if n <= 0:
            return
        cell[0] -= n
        if n < len(batch):
            batch = RowBatch(rows=batch.rows()[:n])
        self.emit_batch(batch)

    def seal_epoch(self, k):
        self._remaining.seal(k)

    def teardown(self):
        self._remaining.clear()


@register_operator("result")
class ResultReturn(Operator):
    """Ship rows to the query site, batched to save messages.

    Two modes:

    * append (default): rows buffer for ``batch_delay`` (0.25 s) and
      each message carries the increment -- right for streamed selects
      and recursion, where every row is final.
    * replace (``params["replace"]``, aggregate plans): the upstream
      final operators re-emit their *full* state when stragglers
      refine it; each message carries this node's complete current
      contribution and the query site keeps only the latest one.

    Batches are keyed by the epoch that produced their rows, and every
    message carries that epoch so the query site's per-epoch collection
    buckets stay correct even when two epochs are in flight at once.
    """

    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        self._replace = spec.params.get("replace", False)
        self._batches = EpochStateRing(list)  # epoch -> [rows]
        self._timer = None
        self._delay = spec.params.get("batch_delay", 0.25)

    def push_batch(self, batch, port=0):
        if not len(batch):
            return
        self._batches.state(self._active_epoch()).extend(batch.rows())
        if self._timer is None:
            self._timer = self.ctx.dht.set_timer(self._delay, self._send)

    def reset_batch(self):
        if self._replace:
            self._batches.seal(self._active_epoch())

    def _send(self):
        self._timer = None
        for epoch in self._batches.epochs():
            self._send_epoch(epoch)

    def _send_epoch(self, epoch):
        rows = self._batches.peek(epoch)
        if not rows:
            return
        if not self._replace:
            self._batches.seal(epoch)
        # One target (the query's own site) for private executions; a
        # spine answers every subscriber whose window this epoch
        # covers, each under its own qid and epoch number. One message
        # per site carries the rows once and lists its subscribers.
        # Each message gets its own list: replace-mode keeps the batch
        # for refinement re-sends, and receivers must never alias it.
        subs_by_site = {}
        for qid, origin, their_epoch in self.ctx.result_targets(epoch):
            subs_by_site.setdefault(origin, []).append((qid, their_epoch))
        for origin, subs in subs_by_site.items():
            self.ctx.dht.direct(origin, {
                "op": "qres", "subs": subs,
                "node": self.ctx.engine.address, "rows": list(rows),
                "replace": self._replace,
            })

    def flush(self):
        if self._timer is not None:
            self.ctx.dht.cancel_timer(self._timer)
            self._timer = None
        self._send_epoch(self._active_epoch())

    def seal_epoch(self, k):
        # Last call for the retiring epoch's rows: ship, then forget.
        self._send_epoch(k)
        self._batches.seal(k)

    def teardown(self):
        if self._timer is not None:
            self.ctx.dht.cancel_timer(self._timer)
            self._timer = None
        self._send()
