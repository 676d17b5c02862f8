"""The per-node PIER engine.

One engine runs on every node, glued to that node's DHT API. It:

* holds the node's table fragments (local rows, stream windows) and
  publishes rows into DHT tables,
* adopts query plans that arrive by broadcast and schedules their
  epochs: one-shot/recursive plans get a single disposable
  :class:`~repro.core.dataflow.EpochExecution`; every continuous plan
  gets a long-lived :class:`~repro.core.dataflow.StandingExecution`
  whose operators are rolled over through the open/seal epoch
  lifecycle at every boundary instead of being torn down and rebuilt.
  The plan's epoch ring width (``QueryPlan.epoch_overlap``) says how
  many epoch states stay live per operator, so flush schedules
  spanning several periods -- and bloom-stage plans, whose filter
  round-trip is driven per epoch by the query site -- run standing
  too,
* multiplexes canonically identical standing queries onto shared
  *spines*: a continuous plan stamped with a logical share signature
  (``plan.metadata["spine"]``) joins the engine-wide
  :class:`~repro.core.sharing.SpineRecord` for that signature and
  epoch phase instead of building its own dataflow. One execution
  scans, exchanges, and aggregates; the result operator fans each
  epoch's answer to every subscriber's query site under its own qid
  and epoch number. Stream scans additionally share one append hook
  per table through the :class:`~repro.core.sharing.SharedScanRegistry`
  whatever plan they belong to,
* registers exchange namespaces with the DHT so rehashed rows reach
  the right operator instance -- once per epoch for disposable
  executions, once per *query* for standing ones -- and buffers early
  arrivals that beat the plan broadcast to this node, NACKing their
  senders when the buffer gives up on them,
* remembers recently stopped query ids (TTL'd tombstones) so a stale
  plan-refresh broadcast cannot resurrect a query after its stop,
* reports recursion progress to the query site for quiescence
  detection.

Engines keep only soft state: a crash loses fragments, executions and
adopted queries; a recovered node re-adopts continuous queries from
the coordinator's periodic plan re-broadcasts.
"""

from repro.core.aggregation_tree import TreeCombiner
from repro.core.dataflow import EpochExecution, StandingExecution
from repro.core.exchange import ExchangeMux, payload_rows
from repro.core.opgraph import OpSpec, QueryPlan
from repro.core.sharing import (
    PrefixRecord,
    PrefixSubscriber,
    SharedScanRegistry,
    SpineRecord,
    SpineSubscriber,
)
from repro.db.table import make_fragment
from repro.util.serde import wire_size


class EngineConfig:
    """Per-engine timing knobs (plan-independent).

    The ``flush_delay`` / ``max_batch_rows`` / ``max_batch_bytes`` trio
    controls exchange batching: rehashed rows sharing a routing key are
    held up to ``flush_delay`` seconds and shipped as one
    ``deliver_batch`` message, bounded by the row/byte caps.
    ``flush_delay = 0`` disables batching (one route message per row).

    ``undelivered_ttl`` / ``undelivered_cap`` bound the buffer of rows
    that arrive before their query's plan does: a namespace's early rows
    are dropped after the TTL, and no namespace holds more than the cap.
    Dropped rows are NACKed to their origin exchanges *only when the
    query carries a stop tombstone here* (an authoritative rejection);
    a node that merely missed the plan broadcast drops silently, since
    the refresh (or plan fetch) will enroll it and muting a live
    query's keys would hole the answer. Receiving a NACK mutes the
    affected routing keys for ``nack_mute_ttl`` seconds.

    ``route_cache_ttl`` bounds how long a standing exchange may trust
    a learned terminal owner before re-walking the ring; 0 disables
    owner caching (and with it the stable-rendezvous discipline on
    standing tree edges, which needs the cache to detect suspects).
    ``stop_tombstone_ttl`` is how long a stopped qid is remembered to
    fend off stale refresh broadcasts.

    ``shared_dataflows`` turns on every multi-query sharing layer:
    spine co-execution of canonically identical standing queries,
    prefix (scan-stage) sharing of different queries over the same
    (table, geometry), shared per-table scan hosts, and exchange
    multiplexing of co-routed batches. Off is the fully-private
    ablation the differential fuzz suite compares against; results are
    identical either way.
    """

    def __init__(
        self,
        teardown_slack=2.0,
        tree_hold_delay=0.8,
        progress_batch_delay=0.5,
        plan_refresh_period=60.0,
        publish_ttl=120.0,
        flush_delay=0.25,
        max_batch_rows=64,
        max_batch_bytes=8192,
        undelivered_ttl=15.0,
        undelivered_cap=512,
        route_cache_ttl=120.0,
        nack_mute_ttl=30.0,
        stop_tombstone_ttl=120.0,
        shared_dataflows=True,
        # Region-aware two-level aggregation trees: standing tree-mode
        # exchanges on a region-labelled topology send partials through
        # their region's combiner rendezvous first, so one combined
        # partial per region crosses the backbone per flush. Off by
        # default -- the flat single-level tree stays the baseline.
        regional_trees=False,
        # Learned owners in another region expire on this shorter TTL
        # (the plain route_cache_ttl still caps same-region entries): a
        # cross-region owner cached just before a partition would
        # otherwise pin post-rejoin forwards onto the backbone for the
        # full TTL.
        cross_region_cache_ttl=30.0,
        # Adaptive epoch ring: standing executions start their ring at
        # min(planned width, ring_max_overlap), widen by one on
        # boundaries that saw late-straggler drops, and narrow back
        # toward the staleness the tail actually exhibits after
        # ring_quiet_boundaries drop-free boundaries. This replaces the
        # planner's retired static cap of 16. Paned plans keep the
        # planned width (their pane retention is sized from it).
        adaptive_ring=True,
        ring_max_overlap=64,
        ring_quiet_boundaries=4,
        # Adaptive exchange flush windows: size each exchange's batch
        # caps from its observed arrival rate, so a hot edge gathers
        # one flush window's worth of rows into few large messages
        # instead of capping out at max_batch_rows-sized ones. Off by
        # default -- the fixed caps are the baseline discipline.
        adaptive_flush=False,
        adaptive_flush_max_rows=2048,
        adaptive_flush_max_bytes=262144,
        # Owner backpressure: a node whose standing exchange inputs
        # exceed backpressure_rows_per_sec tells the origins to stretch
        # their flush windows (and caps) by up to backpressure_factor
        # for backpressure_ttl seconds ("xbp" direct messages, resent
        # at most once per TTL). Off by default.
        backpressure=False,
        backpressure_rows_per_sec=2000.0,
        backpressure_factor=4.0,
        backpressure_ttl=3.0,
        # Hot-group splitting: when one routing key of a standing
        # group-partial exchange pushes more than hot_group_threshold
        # rows in an epoch, later partials shard across
        # hot_group_shards salted keys (k owners); the coordinator's
        # duplicate-owner merge re-unifies the group. 0 disables.
        hot_group_threshold=0,
        hot_group_shards=4,
    ):
        self.teardown_slack = teardown_slack
        self.tree_hold_delay = tree_hold_delay
        self.progress_batch_delay = progress_batch_delay
        self.plan_refresh_period = plan_refresh_period
        self.publish_ttl = publish_ttl
        self.flush_delay = flush_delay
        self.max_batch_rows = max_batch_rows
        self.max_batch_bytes = max_batch_bytes
        self.undelivered_ttl = undelivered_ttl
        self.undelivered_cap = undelivered_cap
        self.route_cache_ttl = route_cache_ttl
        self.nack_mute_ttl = nack_mute_ttl
        self.stop_tombstone_ttl = stop_tombstone_ttl
        self.shared_dataflows = shared_dataflows
        self.regional_trees = regional_trees
        self.cross_region_cache_ttl = cross_region_cache_ttl
        self.adaptive_ring = adaptive_ring
        self.ring_max_overlap = ring_max_overlap
        self.ring_quiet_boundaries = ring_quiet_boundaries
        self.adaptive_flush = adaptive_flush
        self.adaptive_flush_max_rows = adaptive_flush_max_rows
        self.adaptive_flush_max_bytes = adaptive_flush_max_bytes
        self.backpressure = backpressure
        self.backpressure_rows_per_sec = backpressure_rows_per_sec
        self.backpressure_factor = backpressure_factor
        self.backpressure_ttl = backpressure_ttl
        self.hot_group_threshold = hot_group_threshold
        self.hot_group_shards = hot_group_shards


class _QueryRecord:
    """An engine's view of one adopted query."""

    __slots__ = ("qid", "plan", "t0", "origin", "stopped",
                 "next_epoch_timer", "execution", "spine")

    def __init__(self, qid, plan, t0, origin):
        self.qid = qid
        self.plan = plan
        self.t0 = t0
        self.origin = origin
        self.stopped = False
        self.next_epoch_timer = None
        self.execution = None  # the StandingExecution, once started
        self.spine = None  # spine key when riding a shared execution


class PierEngine:
    def __init__(self, dht, catalog, config=None, rng=None):
        self.dht = dht
        self.catalog = catalog
        self.config = config if config is not None else EngineConfig()
        self.rng = rng
        self.clock = dht.clock
        self.address = dht.address
        self.region = getattr(dht, "region", None)

        self.fragments = {}
        self.executions = {}  # (qid, epoch) -> execution serving that epoch
        self.queries = {}  # qid -> _QueryRecord
        self._spines = {}  # spine key -> SpineRecord (shared executions)
        self._prefixes = {}  # prefix key -> PrefixRecord (shared scan stages)
        self.shared_scans = SharedScanRegistry(self)
        self.exchange_mux = ExchangeMux(self)  # prefix-member coalescing
        self.combiners = {}  # ns -> TreeCombiner
        self._undelivered = {}  # ns -> [rows arriving before registration]
        self._undelivered_tags = {}  # ns -> [epoch tag per buffered row]
        self._undelivered_origins = {}  # ns -> {origin address: {rid}}
        self._undelivered_expiry = {}  # ns -> drop-dead time for those rows
        self._undelivered_timer = None
        self._stop_tombstones = {}  # qid -> forget-at time (stale-refresh guard)
        self._exchange_mutes = {}  # (ns, rid) -> mute expiry (NACKed keys)
        # Learned-owner cache: routing key -> (NodeRef, expiry, region).
        # Keyed by the ring key the owner terminates, so every exchange
        # routing under one namespace (prefix-stage members, both join
        # inputs) shares one entry. The region rides along so
        # cross-region owners can expire on the shorter
        # cross_region_cache_ttl.
        self._route_owners = {}
        # Backpressure: inbound standing-exchange row accounting per
        # namespace (detection side, this node as owner) and TTL'd
        # flush-stretch factors (reaction side, this node as sender).
        self._bp_inflow = {}  # ns -> {"count", "t0", "origins"}
        self._bp_sent = {}  # ns -> last xbp send time
        self._bp_stretch = {}  # ns -> (factor, expiry)
        self.ring_late_drops = 0  # standing-ring drops (adaptive signal)
        self.ring_widenings = 0  # adaptive-ring widen events
        self._progress_pending = {}  # (qid, epoch) -> count
        self._progress_timer = None
        self._publish_seq = 0
        self._maintained = {}  # (table, instance_id) -> republish timer
        self.rows_scanned = 0  # scan effort counter (benchmarks)
        self.rows_aggregated = 0  # rows folded into stateful window ops
        self.rows_merged = 0  # partial states folded at group owners
        self.tree_forwards = 0  # combiner forwards (closed combiners)
        self.tree_hop_shortcuts = 0  # of which went direct to a cached owner
        self.coordinator = None  # set by Coordinator.attach

        dht.on_broadcast(self._on_broadcast)
        dht.on_direct(self._on_direct)
        dht.set_default_delivery(self._on_unclaimed_delivery)
        dht.on_storage_probe(self._on_storage_probe)

    # ------------------------------------------------------------------
    # Data management
    # ------------------------------------------------------------------
    def fragment(self, table_name):
        """This node's fragment of a local/stream table (created lazily)."""
        fragment = self.fragments.get(table_name)
        if fragment is None:
            fragment = make_fragment(self.catalog.lookup(table_name))
            self.fragments[table_name] = fragment
        return fragment

    def local_insert(self, table_name, rows):
        self.fragment(table_name).insert_many(rows)

    def stream_append(self, table_name, row, timestamp=None):
        ts = timestamp if timestamp is not None else self.clock.now
        self.fragment(table_name).append(ts, row)
        # Feed the shared runtime-stats catalog (admission control's
        # arrival-rate view); the schema catalog carries it when the
        # testbed enabled stats.
        stats = getattr(self.catalog, "stats", None)
        if stats is not None:
            stats.note_append(table_name, wire_size(row), self.clock.now)

    def publish(self, table_name, row, ttl=None, keep_alive=False):
        """Insert into a DHT table: the row travels to its partition owner.

        With ``keep_alive`` the row becomes *maintained* soft state:
        this node re-puts it every ttl/3 so it survives the storing
        node's crashes (the replacement owner receives the next re-put).
        Maintenance stops when this node crashes or calls
        :meth:`stop_publishing` -- after which the row simply expires,
        which is the only deletion mechanism PIER has.
        """
        table_def = self.catalog.lookup(table_name)
        if isinstance(row, dict):
            row = table_def.schema.row_from_dict(row)
        else:
            row = table_def.schema.coerce_row(row)
        rid = row[table_def.schema.index_of(table_def.partition_key)]
        self._publish_seq += 1
        instance_id = (self.address, self._publish_seq)
        if ttl is None:
            ttl = table_def.ttl if table_def.ttl is not None else self.config.publish_ttl
        self.dht.put(table_name, rid, instance_id, row, ttl)
        if keep_alive:
            self._keep_alive(table_name, rid, instance_id, row, ttl)
        return instance_id

    def _keep_alive(self, table_name, rid, instance_id, row, ttl):
        key = (table_name, instance_id)
        period = ttl / 3.0

        def republish():
            if key not in self._maintained:
                return
            self.dht.put(table_name, rid, instance_id, row, ttl)
            self._maintained[key] = self.set_timer(period, republish)

        self._maintained[key] = self.set_timer(period, republish)

    def stop_publishing(self, table_name, instance_id):
        """Let a maintained row age out (soft-state deletion)."""
        timer = self._maintained.pop((table_name, instance_id), None)
        if timer is not None:
            timer.cancel()

    def set_timer(self, delay, callback, *args):
        return self.dht.set_timer(delay, callback, *args)

    def note_rows_scanned(self, n):
        """Scan-effort accounting (rows examined by scan operators)."""
        self.rows_scanned += n

    def note_rows_aggregated(self, n):
        """Aggregation-effort accounting: rows folded into group-by /
        top-k state. Paned sliding windows fold each row once; the
        from-scratch path re-folds the whole window every epoch, so the
        ratio of these counters is the paned benchmark's headline."""
        self.rows_aggregated += n

    def note_rows_merged(self, n):
        """Owner-side accounting: partial state rows folded by final
        group-bys. Distributed panes ship each pane's increment once,
        so this drops by the window overlap versus re-shipping every
        group's full window state each epoch -- the distributed-panes
        benchmark's headline."""
        self.rows_merged += n

    # ------------------------------------------------------------------
    # Plan adoption and epoch scheduling
    # ------------------------------------------------------------------
    def _on_broadcast(self, payload, origin_ref, depth):
        if not isinstance(payload, dict):
            return
        ctl = payload.get("ctl")
        if ctl == "plan":
            self._adopt_query(payload)
        elif ctl == "stop":
            self._stop_query(payload["qid"])
        elif ctl == "bloom":
            # A standing execution is indexed under its *newest* epoch,
            # but merged filters for any still-open epoch of its ring
            # must reach it (bloom plans never ride a spine, so the
            # query record always owns its execution).
            epoch = payload["epoch"]
            record = self.queries.get(payload["qid"])
            if record is not None and record.execution is not None:
                execution = record.execution
            else:
                execution = self.executions.get((payload["qid"], epoch))
            if execution is not None:
                execution.control(
                    payload["op_id"], {"filters": payload["filters"]}, epoch
                )

    def _adopt_query(self, payload):
        qid = payload["qid"]
        if qid in self.queries:
            return  # refresh broadcast for a query we already run
        self._sweep_soft_maps()
        tombstone = self._stop_tombstones.get(qid)
        if tombstone is not None:
            if tombstone > self.clock.now:
                return  # stale refresh of a query stopped moments ago
            del self._stop_tombstones[qid]
        record = _QueryRecord(qid, payload["plan"], payload["t0"], payload["origin"])
        self.queries[qid] = record
        plan = record.plan
        if plan.mode == "continuous":
            elapsed = max(0.0, self.clock.now - record.t0)
            k_now = int(elapsed // plan.every)
            if plan.lifetime is not None and k_now * plan.every > plan.lifetime:
                self.queries.pop(qid, None)  # adopted after expiry
                return
            key = self._spine_key(plan, record.t0)
            if key is not None:
                self._join_spine(record, key)
            elif k_now >= 1:
                # Standing queries join the epoch *in progress*: the
                # rendezvous for their epoch-free exchange keys may hash
                # to this very node, so waiting for the next boundary
                # would drop every current-epoch row routed here.
                # Registration replays any early rows buffered under
                # this epoch's tag, and already-due flush timers fire
                # immediately.
                self._start_epoch(record, k_now, record.t0 + k_now * plan.every)
            else:
                # First epoch strictly after adoption; a late joiner
                # starts at the next boundary instead of replaying
                # history.
                self._schedule_epoch(record, k_now + 1)
        else:
            self._start_epoch(record, 0, record.t0)

    def _schedule_epoch(self, record, k):
        plan = record.plan
        if record.stopped:
            return
        if plan.lifetime is not None and k * plan.every > plan.lifetime:
            if record.execution is not None:
                # Keep the record adopted until the final epoch settles:
                # a plan refresh landing mid-final-epoch must hit the
                # already-running query (duplicate-adoption guard), not
                # spawn a second standing execution over the same
                # epoch-free namespaces. Stragglers get the same grace a
                # rebuilt epoch's close timer gave them.
                self.set_timer(
                    plan.deadline + self.config.teardown_slack,
                    self._retire_standing, record,
                )
            else:
                self.queries.pop(record.qid, None)  # soft-state expiry
            return
        t_k = record.t0 + k * plan.every
        delay = max(0.0, t_k - self.clock.now)
        record.next_epoch_timer = self.set_timer(
            delay, self._start_epoch, record, k, t_k
        )

    def _start_epoch(self, record, k, t_k):
        if record.stopped:
            return
        if record.plan.mode == "continuous":
            self._advance_standing(record, k, t_k)
        else:
            execution = EpochExecution(
                self, record.plan, record.qid, k, t_k, record.origin
            )
            self.executions[(record.qid, k)] = execution
            execution.start()
            close_at = t_k + record.plan.deadline + self.config.teardown_slack
            self.set_timer(max(0.0, close_at - self.clock.now),
                           self._close_epoch, record.qid, k)
        if record.plan.mode == "continuous":
            self._schedule_epoch(record, k + 1)

    def _advance_standing(self, record, k, t_k):
        """Epoch boundary for a standing query: build once, then roll."""
        execution = record.execution
        if execution is None:
            execution = StandingExecution(
                self, record.plan, record.qid, k, t_k, record.origin
            )
            record.execution = execution
            self.executions[(record.qid, k)] = execution
            execution.start()
        else:
            self.executions.pop((record.qid, execution.current_epoch), None)
            self.executions[(record.qid, k)] = execution
            execution.advance_epoch(k, t_k)

    def _retire_standing(self, record):
        """Lifetime reached and the final epoch has settled."""
        if self.queries.get(record.qid) is record:
            self.queries.pop(record.qid, None)  # soft-state expiry
        self._close_standing(record)

    def _close_standing(self, record):
        execution = record.execution
        if execution is None:
            return
        record.execution = None
        self.executions.pop((record.qid, execution.current_epoch), None)
        execution.close()
        # The query is gone for good: reclaim its per-key soft state.
        prefix = "q|{}|".format(record.qid)
        for key in [k for k in self._exchange_mutes if k[0].startswith(prefix)]:
            del self._exchange_mutes[key]

    def _close_epoch(self, qid, epoch):
        execution = self.executions.pop((qid, epoch), None)
        if execution is not None:
            execution.close()
        record = self.queries.get(qid)
        if record is not None and record.plan.mode != "continuous":
            record.stopped = True
            self.queries.pop(qid, None)

    # ------------------------------------------------------------------
    # Shared spines (multi-query standing dataflows)
    # ------------------------------------------------------------------
    def _spine_key(self, plan, t0):
        """Spine identity for a plan at submission time ``t0``.

        The logical share signature alone is not enough: two identical
        queries submitted half a period apart tick on different grids.
        The key therefore pairs the signature with the epoch *phase*
        ``t0 % every`` (in integer milliseconds, so float noise cannot
        split a spine). Plans the planner left unstamped (one-shot,
        bloom-staged, ``shared=False``) return None and run privately.
        """
        if not self.config.shared_dataflows:
            return None
        sig = plan.metadata.get("spine") if plan.metadata else None
        if sig is None:
            return None
        phase_ms = int(round((t0 % plan.every) * 1000))
        return "{}@{}".format(sig, phase_ms)

    def _prefix_key(self, plan, t0):
        """Prefix-stage identity for a plan at submission time ``t0``.

        Same shape as :meth:`_spine_key` (signature + epoch phase in
        integer milliseconds), but over the logical *prefix* signature:
        plans that differ in predicates/groups yet scan the same stream
        table on the same grid share one scan stage. Checked only after
        the spine key missed -- identical bodies share the whole
        dataflow instead.
        """
        if not self.config.shared_dataflows:
            return None
        sig = plan.metadata.get("prefix") if plan.metadata else None
        if sig is None:
            return None
        phase_ms = int(round((t0 % plan.every) * 1000))
        return "{}@{}".format(sig, phase_ms)

    def _join_spine(self, record, key):
        """Enroll an adopted query as a subscriber of spine ``key``.

        First subscriber creates the spine record; the grid origin is
        the phase instant, so spine epoch ``k`` is always ``phase +
        k * every`` on every node regardless of adoption order. The
        subscriber's own epochs map onto the grid through its offset.
        """
        plan = record.plan
        srec = self._spines.get(key)
        if srec is None:
            srec = SpineRecord(key, plan, record.t0 % plan.every)
            srec.prefix = self._prefix_key(plan, record.t0)
            self._spines[key] = srec
        offset = int(round((record.t0 - srec.t0) / plan.every))
        last_epoch = None
        if plan.lifetime is not None:
            last_epoch = int(plan.lifetime / plan.every + 1e-9)
        srec.subscribers[record.qid] = SpineSubscriber(
            record.qid, record.origin, offset, last_epoch
        )
        record.spine = key
        record.execution = srec.execution
        if last_epoch is not None:
            # The subscriber retires on its own clock; the spine stalls
            # (or closes) only when no subscriber needs the next epoch.
            retire_at = (record.t0 + plan.lifetime + plan.deadline
                         + self.config.teardown_slack)
            record.next_epoch_timer = self.set_timer(
                max(0.0, retire_at - self.clock.now),
                self._retire_spine_subscriber, record.qid, key,
            )
        if srec.next_timer is None:
            # New spine, or one stalled past every member's lifetime:
            # (re)enter the grid at the current epoch. For the common
            # first-subscriber-at-submission case this runs spine epoch
            # ``offset`` immediately -- the subscriber's epoch 0, which
            # fan-out filters, but whose window history gets seeded
            # exactly like a private adoption would (by its own scan,
            # or by its shared scan stage).
            srec.stalled = False
            elapsed = max(0.0, self.clock.now - srec.t0)
            k_now = int(elapsed // plan.every)
            if srec.prefix is not None and srec.execution is not None:
                # Stage-fed spine re-entering after a stall: waves the
                # stage fanned past this spine's horizon were skipped,
                # so its retained pane state has gaps. Soft-state
                # answer: rebuild the execution from scratch; it is
                # re-seeded from the stage's retained panes below.
                old, srec.execution = srec.execution, None
                old.close()
                for sub_qid in srec.subscribers:
                    rec = self.queries.get(sub_qid)
                    if rec is not None and rec.spine == key:
                        rec.execution = None
            self._advance_spine(key, k_now, srec.t0 + k_now * plan.every)
            if srec.prefix is not None and srec.execution is not None:
                self._enroll_spine_in_stage(srec, k_now)
        elif srec.prefix is not None:
            self._sync_stage_horizon(srec)

    def _advance_spine(self, key, k, t_k):
        """Spine epoch boundary: build once, then roll; stall when no
        subscriber's lifetime reaches ``k``."""
        srec = self._spines.get(key)
        if srec is None:
            return
        srec.next_timer = None
        if not srec.subscribers:
            self._close_spine(key)
            return
        last = srec.last_spine_epoch()
        if last is not None and k > last:
            # Nobody needs this epoch; hold the grid until a new
            # subscriber joins (which re-enters at its current epoch).
            srec.stalled = True
            return
        if srec.execution is None:
            execution = StandingExecution(
                self, srec.plan, key, k, t_k, self.address, spine=srec,
                prefix_key=srec.prefix,
            )
            srec.execution = execution
            execution.start()
            for qid in srec.subscribers:
                rec = self.queries.get(qid)
                if rec is not None and rec.spine == key:
                    rec.execution = execution
        else:
            srec.execution.advance_epoch(k, t_k)
        srec.next_timer = self.set_timer(
            max(0.0, t_k + srec.plan.every - self.clock.now),
            self._advance_spine, key, k + 1, t_k + srec.plan.every,
        )

    def _retire_spine_subscriber(self, qid, key):
        """A subscriber's lifetime (plus straggler grace) is up."""
        record = self.queries.get(qid)
        if record is not None and record.spine == key:
            self.queries.pop(qid, None)  # soft-state expiry
            record.execution = None
        self._drop_spine_subscriber(qid, key)

    def _drop_spine_subscriber(self, qid, key):
        srec = self._spines.get(key)
        if srec is None:
            return
        srec.subscribers.pop(qid, None)
        if not srec.subscribers:
            self._close_spine(key)
        elif srec.prefix is not None:
            self._sync_stage_horizon(srec)

    def _close_spine(self, key):
        srec = self._spines.pop(key, None)
        if srec is None:
            return
        if srec.prefix is not None:
            self._drop_prefix_subscriber("s|" + key, srec.prefix)
        if srec.next_timer is not None:
            srec.next_timer.cancel()
            srec.next_timer = None
        execution, srec.execution = srec.execution, None
        if execution is not None:
            execution.close()

    # ------------------------------------------------------------------
    # Shared prefix stages (common-subplan sharing)
    # ------------------------------------------------------------------
    def _enroll_spine_in_stage(self, srec, k_now):
        """Subscribe spine ``srec``'s execution to its shared scan stage.

        Every stage-stamped spine -- single-subscriber (one lone query)
        or a whole identical-query fleet -- is one stage member: its
        scan is passive (``prefix_fed``) and the stage's demux injects
        each epoch's rows via ``deliver_scan``. Spines of *different*
        signatures over the same (table, geometry, phase) land on the
        same stage; that is the common-subplan sharing: one scan feeds
        every tail. Spine grids are absolute (origin = phase), so a
        spine always sits at stage offset 0 and stage epoch ``k`` feeds
        spine epoch ``k`` directly.

        Seeding mirrors a private adoption: a spine entering at epoch 0
        reports nothing before its first boundary, where the stage
        backfills its retained panes; one entering mid-grid (``k_now >=
        1``) gets the current window immediately -- from the stage's
        initial full-history emission when the stage is new, or from
        the demux's retained-pane store when it joins a running stage.
        """
        key = srec.prefix
        plan = srec.plan
        prec = self._prefixes.get(key)
        if prec is None:
            prec = PrefixRecord(key, self._stage_plan(plan), srec.t0)
            self._prefixes[key] = prec
        sid = "s|" + srec.key
        offset = int(round((srec.t0 - prec.t0) / plan.every))
        sub = prec.subscribers.get(sid)
        if sub is None:
            sub = PrefixSubscriber(sid, offset, None, 0, False)
            prec.subscribers[sid] = sub
        sub.last_epoch = srec.last_spine_epoch()
        sub.start_epoch = offset + k_now + 1
        sub.needs_backfill = plan.pane is not None and k_now == 0
        if k_now >= 1 and prec.execution is not None:
            if prec.next_timer is not None:
                # Running stage, joined mid-epoch: this epoch's waves
                # already fanned past us. Re-seed the current window
                # from the demux's retained panes now.
                self._backfill_from_stage(prec, sub, srec.execution,
                                          k_now)
            else:
                # Stalled stage: re-entering the grid below emits the
                # stall-gap panes itself, but panes emitted before the
                # stall live only in its store -- flag a backfill at
                # the re-entry open.
                sub.needs_backfill = plan.pane is not None
                sub.start_epoch = offset + k_now
        if prec.next_timer is None:
            # New stage, or one stalled past every member's horizon:
            # (re)enter the grid at the current epoch. A new stage's
            # initial emission seeds the full window history exactly
            # like a private adoption's first scan would.
            prec.stalled = False
            elapsed = max(0.0, self.clock.now - prec.t0)
            k = int(elapsed // plan.every)
            self._advance_prefix(key, k, prec.t0 + k * plan.every)

    def _sync_stage_horizon(self, srec):
        """Keep the stage subscriber's horizon in step with the spine's
        (membership changed: the last epoch any member needs moved)."""
        prec = self._prefixes.get(srec.prefix)
        if prec is None:
            return
        sub = prec.subscribers.get("s|" + srec.key)
        if sub is not None:
            sub.last_epoch = srec.last_spine_epoch()

    def _backfill_from_stage(self, prec, sub, execution, j):
        """Inject the stage's retained panes into a (re)joining member.

        ``j`` is the member epoch the current stage epoch answers; the
        store holds exactly the already-emitted panes of that epoch's
        window (pruned at each boundary). Unpaned stages retain nothing
        -- their next boundary re-emits the full window anyway.
        """
        sub.needs_backfill = False
        if prec.execution is None:
            return
        geometry = prec.plan.ops_of_kind("scan")[0].params.get("paned")
        shift = sub.offset * geometry["every"] if geometry else 0
        for op in prec.execution.ops.values():
            if op.spec.kind == "demux":
                for pane in sorted(op._store):
                    execution.deliver_scan(
                        list(op._store[pane]), j, pane - shift
                    )

    def _stage_plan(self, plan):
        """The two-op stage plan (scan -> demux) for prefix ``plan``.

        Cloned from the member plan's scan spec, so pane geometry,
        shared-scan host key and batching carry over; every co-tenant
        lowers an identical scan spec by construction (it is covered by
        the prefix signature).
        """
        scan_spec = plan.ops_of_kind("scan")[0]
        stage_scan = OpSpec("stage_scan", "scan", dict(scan_spec.params))
        demux_params = {}
        if scan_spec.params.get("paned"):
            demux_params["paned"] = scan_spec.params["paned"]
        stage_demux = OpSpec("stage_demux", "demux", demux_params,
                             ["stage_scan"])
        return QueryPlan(
            [stage_scan, stage_demux], "stage_demux", mode="continuous",
            every=plan.every, window=plan.window, deadline=plan.deadline,
            standing=True, epoch_overlap=1, pane=plan.pane,
        )

    def _advance_prefix(self, key, k, t_k):
        """Stage epoch boundary: build once, then roll; stall when no
        subscriber's lifetime reaches ``k``."""
        prec = self._prefixes.get(key)
        if prec is None:
            return
        prec.next_timer = None
        if not prec.subscribers:
            self._close_prefix(key)
            return
        last = prec.last_stage_epoch()
        if last is not None and k > last:
            prec.stalled = True
            return
        if prec.execution is None:
            execution = StandingExecution(
                self, prec.plan, "p|" + key, k, t_k, self.address
            )
            # The demux reads the subscriber map through the record;
            # parked before start() so the initial scan wave fans.
            execution.ctx.prefix_record = prec
            prec.execution = execution
            execution.start()
        else:
            prec.execution.advance_epoch(k, t_k)
        prec.next_timer = self.set_timer(
            max(0.0, t_k + prec.plan.every - self.clock.now),
            self._advance_prefix, key, k + 1, t_k + prec.plan.every,
        )

    def prefix_member_execution(self, member_id):
        """A stage member's execution (demux fan-out hook). Members are
        spines, identified in the subscriber map as ``s|<spine key>``."""
        if member_id.startswith("s|"):
            srec = self._spines.get(member_id[2:])
            return srec.execution if srec is not None else None
        record = self.queries.get(member_id)
        return record.execution if record is not None else None

    def _drop_prefix_subscriber(self, qid, key):
        prec = self._prefixes.get(key)
        if prec is None:
            return
        prec.subscribers.pop(qid, None)
        if not prec.subscribers:
            self._close_prefix(key)

    def _close_prefix(self, key):
        prec = self._prefixes.pop(key, None)
        if prec is None:
            return
        if prec.next_timer is not None:
            prec.next_timer.cancel()
            prec.next_timer = None
        execution, prec.execution = prec.execution, None
        if execution is not None:
            execution.close()

    def _sweep_soft_maps(self):
        """Reclaim expired tombstones / mutes / owner-cache entries.

        These maps are TTL'd but mostly read by keys that stay hot;
        entries whose key never comes back (a stopped query's qid, a
        muted rid never pushed again) would otherwise linger. Swept
        opportunistically on adoption and stop -- both regular events on
        a busy engine -- so growth is bounded by the TTLs.
        """
        now = self.clock.now
        for qid in [q for q, t in self._stop_tombstones.items() if t <= now]:
            del self._stop_tombstones[qid]
        for key in [k for k, t in self._exchange_mutes.items() if t <= now]:
            del self._exchange_mutes[key]
        for key in [k for k, e in self._route_owners.items() if e[1] <= now]:
            del self._route_owners[key]

    def _stop_query(self, qid):
        # Remember the stop regardless of whether we run the query: a
        # plan-refresh broadcast already in flight (or one this node
        # missed the stop for) must not re-adopt a stopped query.
        self._sweep_soft_maps()
        self._stop_tombstones[qid] = (
            self.clock.now + self.config.stop_tombstone_ttl
        )
        # Early rows held for this query's namespaces will never find a
        # subscriber now; drop them instead of waiting out their TTL.
        # (Done even without a query record: a node the plan broadcast
        # missed can still have buffered rehashed rows for it.)
        prefix = "q|{}|".format(qid)
        for ns in [n for n in self._undelivered if n.startswith(prefix)]:
            self._send_nacks(ns)  # authoritative: the query is stopped
            self._drop_undelivered(ns)
        for key in [k for k in self._exchange_mutes if k[0].startswith(prefix)]:
            del self._exchange_mutes[key]
        record = self.queries.pop(qid, None)
        if record is None:
            return
        record.stopped = True
        if record.next_epoch_timer is not None:
            record.next_epoch_timer.cancel()
        record.execution = None
        if record.spine is not None:
            # Leave the shared execution to its co-tenants; it closes
            # only when the last subscriber leaves (which in turn drops
            # the spine's shared-scan-stage membership).
            self._drop_spine_subscriber(qid, record.spine)
        for (open_qid, epoch) in list(self.executions):
            if open_qid == qid:
                self.executions.pop((open_qid, epoch)).close()

    # ------------------------------------------------------------------
    # Exchange plumbing
    # ------------------------------------------------------------------
    def register_exchange_input(self, ns, execution, op_id, port, combine=None,
                                standing=False):
        """Claim an exchange namespace for a local operator input.

        ``combine`` carries tree-mode parameters ({"agg_specs": ...});
        when present a :class:`TreeCombiner` intercept is installed so
        this node merges pass-through partials for that edge.

        ``standing`` marks a long-lived registration (epoch-free
        namespace): delivery forwards each payload's epoch tag so the
        execution can drop late arrivals, and buffered early rows are
        replayed tag by tag.
        """

        if standing:
            watch = self.config.backpressure

            def deliver(payload, route_msg):
                rows = payload_rows(payload)
                if watch:
                    self._note_exchange_inflow(
                        ns, len(rows), getattr(route_msg, "origin", None)
                    )
                execution.deliver_batch(
                    op_id, port, rows, payload.get("epoch"),
                    payload.get("pane"),
                )
        else:
            def deliver(payload, route_msg):
                execution.deliver_batch(op_id, port, payload_rows(payload))

        self.dht.register_delivery(ns, deliver)
        if combine is not None:
            upcall = execution.ctx.upcall_name(op_id, port)
            route_ns = execution.ctx.route_namespace(op_id)
            # Standing tree edges with a live owner cache get the
            # stable-rendezvous discipline: the combiner (like the
            # exchange) re-salts a group's route only while its cached
            # owner is suspect. Shared executions also stamp a
            # representative qid on forwards for plan-pull provenance.
            caching = standing and self.config.route_cache_ttl > 0
            suspect_fn = self.route_owner_suspect if caching else None
            # Hop caching: a standing combiner's forward may go direct
            # to the learned terminal owner instead of re-walking the
            # O(log N) stable-key route every epoch. Unlearned keys
            # walk with learn set (warming the cache); salted forwards
            # always walk (the re-salt IS the invalidation).
            owner_fn = self.cached_owner if caching else None
            qsrc_fn = (
                execution.ctx.rep_qid
                if getattr(execution.ctx, "shared", False) else None
            )
            # Under regional trees, absorption only happens at region
            # rendezvous (senders route through them), so forwards are
            # level-2 sends that skip further mid-route absorption.
            regional = (
                standing
                and bool(getattr(self.config, "regional_trees", False))
                and self.region is not None
            )
            combiner = TreeCombiner(
                self.dht, ns, route_ns, upcall, combine["agg_specs"],
                combine.get("hold", self.config.tree_hold_delay),
                paned=combine.get("paned", False),
                suspect_fn=suspect_fn, qsrc_fn=qsrc_fn,
                owner_fn=owner_fn, regional=regional,
            )
            self.combiners[ns] = combiner
            self.dht.register_intercept(upcall, combiner.handler)
        rows = self._undelivered.pop(ns, ())
        tags = self._undelivered_tags.pop(ns, ())
        self._undelivered_origins.pop(ns, None)
        self._undelivered_expiry.pop(ns, None)
        if standing:
            replayed_epochs = set()
            for row, (epoch_tag, pane_tag) in zip(rows, tags):
                execution.deliver_batch(op_id, port, (row,), epoch_tag,
                                        pane_tag)
                if epoch_tag is not None:
                    replayed_epochs.add(epoch_tag)
            # Replayed rows arrived before this node could subscribe
            # (typically a rejoined node that just pulled the plan),
            # so those epochs' flush waves are largely behind them.
            # Waiting for the next planned deadline risks the rows
            # dying held if this node churns again; nudge the consumer
            # to ship them as soon as the registration settles.
            for epoch_tag in replayed_epochs:
                self.set_timer(0.0, execution.flush_input, op_id, epoch_tag)
        else:
            execution.deliver_batch(op_id, port, rows)

    # ------------------------------------------------------------------
    # Owner backpressure (adaptive load management, run-time half)
    # ------------------------------------------------------------------
    def _note_exchange_inflow(self, ns, n, origin):
        """Owner-side arrival accounting for one standing namespace.

        Rates are measured over rolling one-second windows; when a
        window's rate exceeds ``backpressure_rows_per_sec``, every
        origin that contributed to it receives an "xbp" direct message
        asking it to stretch its flush window (rate-limited to one send
        per TTL per namespace, so a hot edge costs O(origins) control
        messages per TTL, not per batch).
        """
        now = self.clock.now
        state = self._bp_inflow.get(ns)
        if state is None or now - state["t0"] >= 1.0:
            if state is not None:
                self._maybe_send_backpressure(ns, state, now)
            state = self._bp_inflow[ns] = {
                "count": 0, "t0": now, "origins": set(),
            }
        state["count"] += n
        # Route messages carry a NodeRef origin; xbp goes out over
        # dht.direct, which addresses by string, so normalize here
        # (also dedupes one origin seen through both shapes).
        origin = getattr(origin, "address", origin)
        if origin is not None and origin != self.address:
            state["origins"].add(origin)

    def _maybe_send_backpressure(self, ns, state, now):
        elapsed = max(now - state["t0"], 1e-9)
        rate = state["count"] / elapsed
        threshold = self.config.backpressure_rows_per_sec
        if rate <= threshold or not state["origins"]:
            return
        last = self._bp_sent.get(ns, -1e18)
        ttl = self.config.backpressure_ttl
        if now - last < ttl:
            return
        self._bp_sent[ns] = now
        factor = min(self.config.backpressure_factor, rate / threshold)
        for origin in state["origins"]:
            self.dht.direct(origin, {
                "op": "xbp", "ns": ns, "factor": factor, "ttl": ttl,
            })

    def exchange_flush_stretch(self, ns):
        """Current flush-window stretch factor for a namespace (>= 1.0).

        Exchanges multiply their flush delay and batch caps by this
        while a backpressured owner's TTL is live: fewer, larger
        messages toward the overloaded node.
        """
        entry = self._bp_stretch.get(ns)
        if entry is None:
            return 1.0
        factor, expiry = entry
        if expiry <= self.clock.now:
            del self._bp_stretch[ns]
            return 1.0
        return factor

    def unregister_exchange_input(self, ns):
        self.dht.unregister_delivery(ns)
        combiner = self.combiners.pop(ns, None)
        if combiner is not None:
            combiner.close()
            # Fold the edge's hop accounting into engine totals so the
            # benches can still read it after the execution tears down.
            self.tree_forwards += combiner.forwarded
            self.tree_hop_shortcuts += combiner.hop_shortcuts
            self.dht.unregister_intercept(combiner.upcall)
        self._bp_inflow.pop(ns, None)
        self._bp_sent.pop(ns, None)
        self._drop_undelivered(ns)

    def _drop_undelivered(self, ns):
        self._undelivered.pop(ns, None)
        self._undelivered_tags.pop(ns, None)
        self._undelivered_origins.pop(ns, None)
        self._undelivered_expiry.pop(ns, None)

    def _on_unclaimed_delivery(self, payload, route_msg):
        # Rows can beat the plan broadcast to this node; hold them until
        # the execution registers. Nothing guarantees a plan ever
        # arrives (the broadcast can miss this node, or the query may
        # already be stopping), so the buffer is bounded two ways: each
        # namespace is dropped ``undelivered_ttl`` after its first early
        # row, and holds at most ``undelivered_cap`` rows. Whenever the
        # buffer sheds rows it NACKs the exchanges that sent them.
        ns = payload["ns"]
        incoming = payload_rows(payload)
        rows = self._undelivered.get(ns)
        if rows is None:
            rows = self._undelivered[ns] = []
            self._undelivered_tags[ns] = []
            self._undelivered_origins[ns] = {}
            self._undelivered_expiry[ns] = (
                self.clock.now + self.config.undelivered_ttl
            )
            if self._undelivered_timer is None:
                self._undelivered_timer = self.set_timer(
                    self.config.undelivered_ttl, self._expire_undelivered
                )
            if payload.get("epoch") is not None:
                # A standing query is live somewhere and its epoch-free
                # rendezvous hashes *here* -- every epoch's rows will
                # keep arriving at this node. Waiting out the refresh
                # period would hole the answer for several epochs
                # (per-epoch keys would have re-hashed away from a
                # planless node; epoch-free keys keep coming back).
                # Pull the missing soft state instead: ask the query
                # site for the plan directly, once per buffer
                # generation.
                self._request_plan(ns, payload.get("qsrc"))
        origin = getattr(route_msg, "origin", None)
        rid = payload.get("rid")
        if origin is not None and rid is not None:
            self._undelivered_origins[ns].setdefault(
                origin.address, set()
            ).add(rid)
        space = self.config.undelivered_cap - len(rows)
        if space > 0:
            taken = list(incoming[:space])
            rows.extend(taken)
            self._undelivered_tags[ns].extend(
                [(payload.get("epoch"), payload.get("pane"))] * len(taken)
            )
        if len(incoming) > max(space, 0):
            # Cap overflow: this node is drowning in rows nobody here
            # subscribes to. NACK the senders -- which only goes out if
            # the query is tombstoned here (see _send_nacks); a
            # merely-missed plan keeps dropping silently.
            self._send_nacks(ns)

    def _on_storage_probe(self, ns):
        """A get/lscan probe referenced a continuous query's temp
        namespace. Same adoption gap as an epoch-tagged unclaimed row
        (the querying side evidently believes this node participates),
        same cure: pull the plan from the query site directly instead
        of waiting out a refresh period."""
        self._request_plan(ns)

    def _request_plan(self, ns, qsrc=None):
        """Ask the query site for a plan we evidently missed.

        ``qid`` embeds the submitting node's address (``addr#seq``, a
        coordinator invariant), so the request needs no lookup. A stale
        or stopped query simply gets no reply and the buffered rows age
        out as before.

        Spine namespaces (``s|``) embed a content-derived key, not a
        qid, so senders stamp a live subscriber qid (``qsrc``) on every
        shared batch; adopting that query re-forms the spine here.
        Probes without provenance drop silently.
        """
        if ns.startswith("s|"):
            if qsrc is None or qsrc in self.queries \
                    or qsrc in self._stop_tombstones:
                return
            origin = qsrc.rsplit("#", 1)[0]
            if origin and origin != self.address:
                self.dht.direct(origin, {"op": "xplan", "qid": qsrc})
            return
        if not ns.startswith("q|"):
            return
        qid = ns.split("|")[1]
        if qid in self.queries or qid in self._stop_tombstones:
            return
        origin = qid.rsplit("#", 1)[0]
        if origin and origin != self.address:
            self.dht.direct(origin, {"op": "xplan", "qid": qid})

    def _send_nacks(self, ns):
        """Tell origin exchanges their rehashes for ``ns`` go nowhere.

        Carries the routing ids observed from each origin, so the
        sender can mute exactly the keys that hash to this node (it has
        no other way to know which keys terminate here). Sent at most
        once per origin per buffer generation.

        Only *authoritative* rejections are sent: the query must carry
        a stop tombstone here. A node that merely missed the plan
        broadcast stays silent -- the refresh will enroll it shortly,
        and muting a live query's keys at the senders would silently
        hole the answer for the whole mute window (ownership can also
        move to a healthy subscriber while the mute persists).
        """
        qid = ns.split("|")[1] if ns.startswith("q|") else None
        if qid is None or qid not in self._stop_tombstones:
            return
        origins = self._undelivered_origins.get(ns)
        if not origins:
            return
        for address, rids in origins.items():
            self.dht.direct(address, {
                "op": "xnack", "ns": ns, "rids": list(rids),
            })
        origins.clear()

    def _expire_undelivered(self):
        self._undelivered_timer = None
        now = self.clock.now
        for ns in [n for n, t in self._undelivered_expiry.items() if t <= now]:
            self._send_nacks(ns)
            self._drop_undelivered(ns)
        if self._undelivered_expiry:
            next_deadline = min(self._undelivered_expiry.values())
            self._undelivered_timer = self.set_timer(
                max(0.0, next_deadline - now), self._expire_undelivered
            )

    def exchange_muted(self, ns, rid):
        """Has a receiver NACKed this routing key? (checked per push)"""
        expiry = self._exchange_mutes.get((ns, rid))
        if expiry is None:
            return False
        if expiry <= self.clock.now:
            del self._exchange_mutes[(ns, rid)]
            return False
        return True

    def cached_owner(self, key):
        """Learned terminal owner of routing key ``key``, if fresh."""
        entry = self._route_owners.get(key)
        if entry is None:
            return None
        ref, expiry = entry[0], entry[1]
        if expiry <= self.clock.now or self.dht.is_suspect(ref.address):
            del self._route_owners[key]
            return None
        return ref

    def route_owner_suspect(self, key):
        """Is the learned owner for a standing key currently suspect?

        Drives the stable-rendezvous fallback on standing tree edges:
        a suspect owner makes the sender re-salt that key's route for
        the epoch (fresh rendezvous away from the dying node) without
        forgetting the cache entry -- the suspicion may clear, and the
        stable owner holds the group's accumulated state. Expired
        entries are reclaimed; no cache entry means nothing to
        distrust.
        """
        entry = self._route_owners.get(key)
        if entry is None:
            return False
        ref, expiry = entry[0], entry[1]
        if expiry <= self.clock.now:
            del self._route_owners[key]
            return False
        return self.dht.is_suspect(ref.address)

    # ------------------------------------------------------------------
    # Recursion progress (quiescence detection support)
    # ------------------------------------------------------------------
    def note_progress(self, qid, epoch, count):
        key = (qid, epoch)
        self._progress_pending[key] = self._progress_pending.get(key, 0) + count
        if self._progress_timer is None:
            self._progress_timer = self.set_timer(
                self.config.progress_batch_delay, self._send_progress
            )

    def _send_progress(self):
        self._progress_timer = None
        pending, self._progress_pending = self._progress_pending, {}
        for (qid, epoch), count in pending.items():
            record = self.queries.get(qid)
            if record is None or count == 0:
                continue
            self.dht.direct(record.origin, {
                "op": "qprog", "qid": qid, "epoch": epoch,
                "node": self.address, "new": count,
            })

    # ------------------------------------------------------------------
    # Direct messages: engine-level control, then coordinator traffic
    # ------------------------------------------------------------------
    def _on_direct(self, payload, src):
        if not isinstance(payload, dict):
            return
        op = payload.get("op")
        if op == "xnack":
            # Mutes only matter while we still run the query: a NACK
            # straggling in after our own stop-cleanup would otherwise
            # park an entry nothing ever reads again.
            ns = payload["ns"]
            qid = ns.split("|")[1] if ns.startswith("q|") else None
            if qid in self.queries:
                expiry = self.clock.now + self.config.nack_mute_ttl
                for rid in payload["rids"]:
                    self._exchange_mutes[(ns, rid)] = expiry
            return
        if op == "xowner":
            region = payload.get("region")
            ttl = self.config.route_cache_ttl
            if (region is not None and self.region is not None
                    and region != self.region):
                # A backbone owner: trust it for less time, so a
                # partition cannot leave a cross-region entry pinning
                # forwards long after the region rejoined.
                ttl = min(ttl, self.config.cross_region_cache_ttl)
            self._route_owners[payload["key"]] = (
                payload["ref"], self.clock.now + ttl, region,
            )
            return
        if op == "xowner_stale":
            self._route_owners.pop(payload["key"], None)
            return
        if op == "xbp":
            # An overloaded owner asks us to stretch flushes toward it.
            # Factors do not stack -- the largest live request wins --
            # and the TTL makes the signal self-expiring soft state.
            ns = payload["ns"]
            factor = max(1.0, float(payload["factor"]))
            expiry = self.clock.now + float(payload.get(
                "ttl", self.config.backpressure_ttl
            ))
            current = self._bp_stretch.get(ns)
            if current is None or factor >= current[0]:
                self._bp_stretch[ns] = (factor, expiry)
            return
        if op == "xplan_reply":
            self._adopt_query(payload)
            return
        if self.coordinator is None:
            return
        if op == "qres":
            # One message per site and epoch; the coordinator takes one
            # payload per subscriber, each under its own qid and epoch.
            for qid, epoch in payload["subs"]:
                self.coordinator.on_result({
                    "qid": qid, "epoch": epoch, "node": payload["node"],
                    "rows": list(payload["rows"]),
                    "replace": payload["replace"],
                })
        elif op == "qprog":
            self.coordinator.on_progress(payload)
        elif op == "qbloom":
            self.coordinator.on_bloom(payload)
        elif op == "xplan":
            self.coordinator.on_plan_request(payload, src)

    # ------------------------------------------------------------------
    # Failure semantics
    # ------------------------------------------------------------------
    def on_crash(self):
        """Node failed: all engine state is soft and is dropped."""
        self.fragments = {}
        self.executions = {}
        self.queries = {}
        self._spines = {}  # spine timers die with the crash
        self._prefixes = {}  # stage timers die with the crash
        self.shared_scans.reset()
        self.exchange_mux = ExchangeMux(self)  # held bundles die too
        self.combiners = {}
        self._undelivered = {}
        self._undelivered_tags = {}
        self._undelivered_origins = {}
        self._undelivered_expiry = {}
        self._undelivered_timer = None  # node timers die with the crash
        self._stop_tombstones = {}
        self._exchange_mutes = {}
        self._route_owners = {}
        self._bp_inflow = {}
        self._bp_sent = {}
        self._bp_stretch = {}
        self._progress_pending = {}
        self._progress_timer = None
        self._maintained = {}  # the publisher died; its rows will expire
        if self.coordinator is not None:
            self.coordinator.on_crash()

    def __repr__(self):
        return "PierEngine({!r}, {} queries, {} executions)".format(
            self.address, len(self.queries), len(self.executions)
        )
