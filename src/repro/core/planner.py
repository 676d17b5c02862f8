"""The physical planner: logical plans -> physical (timed) operator graphs.

Planning runs in two explicit phases:

1. **logical** (``core/logical.py``): the parsed
   :class:`~repro.core.logical.LogicalQuery` is resolved against the
   catalog into a normalized operator DAG with canonical expression
   forms -- name resolution, predicate pushdown, left-deep join
   ordering and equi-join key extraction, aggregate/project shape
   checks. No physical decision happens there, and near-duplicate
   queries (alias renames, flipped comparisons, reordered conjuncts,
   different output names) normalize to the *same* DAG.
2. **physical** (this module): the DAG is lowered node by node into a
   :class:`~repro.core.opgraph.QueryPlan` -- join strategies
   (symmetric-hash / fetch-matches / Bloom), exchange modes
   (rehash / aggregation tree), partial top-k, and flush deadlines from
   a dataflow-timing walk (when can an operator's inputs have
   arrived?), because a soft-state system flushes on clocks, not on
   end-of-stream tokens.

The logical phase's canonical signatures also drive **dataflow
sharing**: an eligible standing plan is stamped with its
``share_signature`` (``metadata["spine"]``) so the engine can run all
concurrent queries with the same signature and epoch phase on one
shared spine (see ``core/sharing.py``), and stream scans are stamped
``share_scan`` so co-located queries subscribe through one
per-(node, table) append hook.

Recursive queries (transitive-closure shape) become cyclic graphs:
base rows enter a DHT-partitioned ``distinct``; novel rows feed both
result return and a join against the edge relation whose output cycles
back into the same ``distinct`` -- semi-naive evaluation as dataflow.
"""

import math

from repro.core.aggregates import AggSpec
from repro.core.logical import (
    AggCall,
    LogicalQuery,
    RecursiveSpec,
    and_all as _and_all,
    build_logical_plan,
    split_where as _split_where,
)
from repro.core.opgraph import OpSpec, QueryPlan
from repro.db.expressions import ColumnRef, equi_join_pairs
from repro.db.schema import Column, Schema
from repro.db.types import ANY
from repro.db.window import pane_width
from repro.util.errors import CatalogError, PlanError

__all__ = [
    "AggCall", "LogicalQuery", "RecursiveSpec", "PlannerTiming",
    "plan_query",
]


class PlannerTiming:
    """Dataflow-timing constants (seconds) used to place flush deadlines.

    These bound, not measure: scan_ready covers plan dissemination,
    rehash_xfer covers a multi-hop routed transfer, tree_xfer covers the
    extra per-hop hold time of aggregation trees on a few-hundred-node
    overlay. Generous values trade a little latency for complete
    answers; the soft-state design makes tight values degrade to
    partial answers rather than errors.
    """

    def __init__(self, scan_ready=1.5, hold=0.6, rehash_xfer=1.5,
                 tree_xfer=6.0, result_send=0.4, collect=2.0,
                 bloom_merge=1.2, bloom_release=1.0):
        self.scan_ready = scan_ready
        self.hold = hold
        self.rehash_xfer = rehash_xfer
        self.tree_xfer = tree_xfer
        self.result_send = result_send
        self.collect = collect
        self.bloom_merge = bloom_merge
        self.bloom_release = bloom_release


class _Builder:
    """Accumulates op specs and the timing walk while lowering."""

    def __init__(self, timing):
        self.timing = timing
        self.specs = []
        self.flush_offsets = {}
        self._n = 0

    def add(self, kind, params=None, inputs=()):
        self._n += 1
        op_id = "op{}".format(self._n)
        self.specs.append(OpSpec(op_id, kind, params, inputs))
        return op_id

    def flush_at(self, op_id, t):
        self.flush_offsets[op_id] = t

    def spec(self, op_id):
        for spec in self.specs:
            if spec.op_id == op_id:
                return spec
        raise KeyError(op_id)


def plan_query(lq, catalog, timing=None):
    """Compile a LogicalQuery against a catalog into a QueryPlan."""
    timing = timing if timing is not None else PlannerTiming()
    if lq.recursive is not None:
        plan = _plan_recursive(lq, catalog, timing)
    else:
        plan = _plan_flat(lq, catalog, timing)
    # Admission-time annotations. The cost bound is recomputed here
    # (not passed in) so EXPLAIN output always reflects the stats the
    # plan was admitted against; the stats key is what the coordinator
    # reports observed group cardinalities back under.
    bound = bound_query_cost(lq, catalog)
    if bound is not None:
        plan.metadata["cost"] = bound.as_dict()
    key = query_stats_key(lq)
    if key is not None:
        plan.metadata["stats_key"] = key
    sample = lq.options.get("sample_rate")
    if sample is not None:
        for spec in plan.ops_of_kind("scan"):
            spec.params["sample"] = sample
    return plan


# ----------------------------------------------------------------------
# Cost bounding (admission control's plan-time half)
# ----------------------------------------------------------------------

#: Nominal state-size multipliers for the exchange-byte bound. A
#: COUNT(DISTINCT x) partial carries the group's value *set*, so its
#: wire size grows with distinct values per group; the sketch swap
#: (APPROX_COUNT_DISTINCT) replaces it with a constant-size HLL whose
#: error is documented at ~1.04/sqrt(2^precision). The factors are
#: deliberately coarse -- this is a *bound* used to refuse or degrade
#: queries, not a cardinality estimator.
_DISTINCT_STATE_FACTOR = 32.0
_SKETCH_STATE_FACTOR = 4.0

#: Nominal fan-in for the partial-aggregation exchange bound: with
#: per-node partial aggregation, at most ~this many contributing nodes
#: ship each group per epoch (flush waves x tree combining), so
#: exchange rows are bounded by ``groups * fan-in`` when the group
#: cardinality is known, whatever the raw row rate.
_GROUP_FANIN = 16.0

#: Unit weights for the scalar budget: one unit per row scanned, per
#: 64 exchange bytes, and two per owner group fold, all per second.
_W_EXCHANGE_BYTES = 1.0 / 64.0
_W_FOLD = 2.0


class CostBound:
    """Per-epoch cost bound for a continuous query, from catalog stats.

    ``rows_scanned`` is the standing-scan examination bound (stream
    subscriptions touch each arriving row O(1) times, so it is
    ``sum(table arrival rate) * EVERY``); ``exchange_rows`` /
    ``exchange_bytes`` bound what crosses the network per epoch after
    partial aggregation and sampling; ``fold_groups`` bounds owner-side
    group folds per epoch. ``units_per_sec`` collapses them into the
    scalar the admission budget is expressed in -- amortized over the
    epoch period, so widening EVERY genuinely cheapens group-bound
    queries (their per-epoch group fold and exchange terms amortize)
    while the raw scan-rate term stays put.
    """

    __slots__ = ("rows_scanned", "exchange_rows", "exchange_bytes",
                 "fold_groups", "every")

    def __init__(self, rows_scanned, exchange_rows, exchange_bytes,
                 fold_groups, every):
        self.rows_scanned = rows_scanned
        self.exchange_rows = exchange_rows
        self.exchange_bytes = exchange_bytes
        self.fold_groups = fold_groups
        self.every = every

    def units_per_sec(self):
        per_epoch = (
            self.rows_scanned
            + self.exchange_bytes * _W_EXCHANGE_BYTES
            + self.fold_groups * _W_FOLD
        )
        return per_epoch / self.every

    def as_dict(self):
        return {
            "rows_scanned": round(self.rows_scanned, 2),
            "exchange_rows": round(self.exchange_rows, 2),
            "exchange_bytes": round(self.exchange_bytes, 2),
            "fold_groups": round(self.fold_groups, 2),
            "every": self.every,
            "units_per_sec": round(self.units_per_sec(), 2),
        }


def query_stats_key(lq):
    """The key group-cardinality feedback files under: the scanned
    tables plus the canonical GROUP BY shape. Different predicates over
    the same grouping share one cardinality estimate -- coarse, but the
    feedback loop converges on whatever actually closes epochs."""
    if not lq.tables:
        return None
    tables = ",".join(sorted(name for name, _alias in lq.tables))
    groups = ";".join(str(e) for e in lq.group_by)
    return "{}|{}".format(tables, groups)


def _distinct_flavor(lq):
    """Which COUNT_DISTINCT family the query uses, if any."""
    for item, _name in lq.select_items:
        func = getattr(item, "func_name", None)
        if func == "COUNT_DISTINCT":
            return "exact"
        if func == "APPROX_COUNT_DISTINCT":
            return "sketch"
    return None


def bound_query_cost(lq, catalog, now=None):
    """Bound ``lq``'s per-epoch cost from the catalog's runtime stats.

    Returns a :class:`CostBound`, or ``None`` when the query is not
    continuous (one-shots are a single epoch of work; the standing load
    problem admission exists for does not arise) or the catalog carries
    no :class:`~repro.core.catalog.StatsCatalog`. Tables the stats have
    never seen contribute zero -- a cold catalog admits everything,
    which is the honest default (see ``StatsCatalog.seed``).
    """
    if lq.every is None:
        return None
    stats = getattr(catalog, "stats", None)
    if stats is None:
        return None
    rate = 0.0
    row_bytes = 0.0
    for name, _alias in lq.tables:
        table_rate = stats.arrival_rate(name, now)
        rate += table_rate
        row_bytes = max(row_bytes, stats.avg_row_bytes(name))
    rows_scanned = rate * lq.every
    sample = float(lq.options.get("sample_rate", 1.0))
    exchange_rows = rows_scanned * sample
    fold_groups = exchange_rows
    if lq.group_by:
        groups = stats.group_cardinality(query_stats_key(lq))
        if groups is not None:
            exchange_rows = min(exchange_rows, groups * _GROUP_FANIN)
            fold_groups = min(fold_groups, groups * _GROUP_FANIN)
    state_factor = 1.0
    flavor = _distinct_flavor(lq)
    if flavor == "exact":
        state_factor = _DISTINCT_STATE_FACTOR
    elif flavor == "sketch":
        state_factor = _SKETCH_STATE_FACTOR
    exchange_bytes = exchange_rows * row_bytes * state_factor
    return CostBound(rows_scanned, exchange_rows, exchange_bytes,
                     fold_groups, lq.every)


# ----------------------------------------------------------------------
# Flat (non-recursive) lowering
# ----------------------------------------------------------------------
def _plan_flat(lq, catalog, timing):
    logical = build_logical_plan(lq, catalog)
    b = _Builder(timing)

    # Lower the DAG in its deterministic topological order. ``lowered``
    # maps each logical node (by identity) to its physical info: at
    # least {"op": root_op_id}; joins add "strategy" (+ bloom "stages"),
    # aggregates add "partial"/"exchange"/"final" so the pane walk can
    # find the whole lowered cluster.
    lowered = {}
    ready = timing.scan_ready
    schema = None
    sort_keys = []
    agg_finishing = None
    result_id = None
    for node in logical.nodes:
        if node.kind == "scan":
            op_id = b.add("scan", {"table": node.attrs["table"],
                                   "alias": node.attrs["alias"]})
            lowered[id(node)] = {"op": op_id}
        elif node.kind == "filter":
            child = lowered[id(node.inputs[0])]["op"]
            op_id = b.add("select", {
                "predicate": node.attrs["predicate"],
                "schema": node.inputs[0].schema,
            }, [child])
            lowered[id(node)] = {"op": op_id}
        elif node.kind == "join":
            ready, info = _lower_join(b, lq, node, lowered, ready, timing)
            lowered[id(node)] = info
        elif node.kind == "aggregate":
            ready, agg_finishing, info = _lower_aggregation(
                b, lq, node, lowered, ready, timing
            )
            lowered[id(node)] = info
            schema = _output_schema(lq)
            sort_keys = _compile_order_by(lq, schema)
        elif node.kind == "project":
            child = lowered[id(node.inputs[0])]["op"]
            op_id = b.add("project", {
                "exprs": node.attrs["exprs"],
                "schema": node.inputs[0].schema,
            }, [child])
            lowered[id(node)] = {"op": op_id}
            schema = _output_schema(lq)
            sort_keys = _compile_order_by(lq, schema)
        elif node.kind == "topk":
            # Partial top-k before the wire when there is a LIMIT to
            # exploit. Aggregate plans skip it (no logical topk node):
            # their group rows are mergeable states that only the query
            # site can rank after reconciling owners.
            child = lowered[id(node.inputs[0])]["op"]
            op_id = b.add("topk", {
                "sort_keys": sort_keys, "limit": lq.limit, "schema": schema,
            }, [child])
            ready += 0.2
            b.flush_at(op_id, ready)
            lowered[id(node)] = {"op": op_id}
        elif node.kind == "output":
            # Aggregate answers refine as stragglers arrive, so the
            # query site keeps each node's latest batch, not appends.
            child = lowered[id(node.inputs[0])]["op"]
            result_id = b.add("result",
                              {"replace": agg_finishing is not None}, [child])
            ready += timing.result_send
            b.flush_at(result_id, ready)
            lowered[id(node)] = {"op": result_id}
        else:  # pragma: no cover - build_logical_plan emits no other kind
            raise PlanError("unknown logical node kind {!r}".format(node.kind))
    deadline = ready + timing.collect

    mode = "continuous" if lq.every else "oneshot"
    standing = mode == "continuous"
    epoch_overlap = _epoch_overlap(b, lq) if standing else 1
    pane = None
    metadata = {"columns": [name for _item, name in lq.select_items]}
    if standing:
        # Mark the networked boundary ops (EXPLAIN metadata: standing
        # scans subscribe to their sources once and push per-epoch
        # deltas; standing exchanges use epoch-free namespaces with
        # epoch-tagged batches).
        for spec in b.specs:
            if spec.kind in ("scan", "exchange"):
                spec.params["standing"] = True
        pane = _mark_paned(b, logical, lowered, lq)
        if lq.options.get("shared") is not False:
            # Stream scans share one per-(node, table) append hook via
            # the engine's SharedScanRegistry even when the plans
            # themselves differ.
            for node in logical.nodes:
                if (node.kind == "scan"
                        and node.attrs["table_def"].source == "stream"):
                    spec = b.spec(lowered[id(node)]["op"])
                    spec.params["share_scan"] = node.attrs["table"]
            # Whole-dataflow sharing: queries whose canonical DAGs and
            # epoch geometry match run on one spine, demultiplexed only
            # at result return. Bloom plans stay private -- their
            # per-epoch coordinator round-trip is keyed to one qid.
            if not any(spec.kind == "bloom_stage" for spec in b.specs):
                metadata["spine"] = logical.share_signature()
                # Prefix sharing: single-stream-table plans also carry
                # the scan-stage signature, so queries with *different*
                # predicates/groups over the same (table, geometry) can
                # share one scan stage with a demux into private tails.
                scans = logical.scan_nodes()
                if (len(scans) == 1
                        and scans[0].attrs["table_def"].source == "stream"):
                    prefix = logical.prefix_signature()
                    if prefix is not None:
                        metadata["prefix"] = prefix

    finishing = {}
    if agg_finishing is not None:
        finishing["aggregate"] = agg_finishing
        finishing["schema"] = schema
    if sort_keys:
        finishing["order_by"] = sort_keys
        finishing["schema"] = schema
    if lq.limit is not None:
        finishing["limit"] = lq.limit
        finishing.setdefault("schema", schema)
    if "bloom_broadcast_offset" in b.__dict__:
        metadata["bloom_broadcast_offset"] = b.bloom_broadcast_offset
    return QueryPlan(
        b.specs, result_id, mode=mode, every=lq.every, window=lq.window,
        lifetime=lq.lifetime, flush_offsets=b.flush_offsets,
        deadline=deadline, finishing=finishing, metadata=metadata,
        standing=standing, epoch_overlap=epoch_overlap, pane=pane,
    )


_STANDING_XFER_MARGIN = 1.0  # flush window + worst simulated RTT


def _epoch_overlap(b, lq):
    """Epoch ring width N for a continuous plan.

    ``N`` is how many epoch states a standing execution keeps live at
    once. The standing path rolls every operator over at each boundary,
    and an epoch is sealed when its N-th successor opens, so N must
    cover the plan's flush horizon:

        N = ceil(worst (flush offset + margin) / period)

    A flush whose output still has to *cross an exchange* pads its
    offset with a transfer margin: its rows travel tagged with the
    producing epoch and must land before a receiver seals that epoch.
    Result-bound flushes need no margin -- their rows go direct to the
    query site, which collects by epoch tag until its own deadline.
    Bloom-stage plans ride the same math: their filter flush feeds the
    query site and the release control message lands well before the
    downstream exchange flushes the N already accounts for.
    """
    consumers = {}
    for spec in b.specs:
        for input_id in spec.inputs:
            consumers.setdefault(input_id, []).append(spec)

    def feeds_exchange(op_id, seen=None):
        seen = seen if seen is not None else set()
        if op_id in seen:
            return False
        seen.add(op_id)
        for consumer in consumers.get(op_id, ()):
            if consumer.kind == "exchange":
                return True
            if feeds_exchange(consumer.op_id, seen):
                return True
        return False

    horizon = 0.0
    for op_id, offset in b.flush_offsets.items():
        margin = _STANDING_XFER_MARGIN if feeds_exchange(op_id) else 0.0
        horizon = max(horizon, offset + margin)
    # No static ceiling here: the plan records the *true* horizon, and
    # the engine's adaptive ring (EngineConfig.adaptive_ring /
    # ring_max_overlap) decides how many epoch states to actually keep
    # live -- starting clamped, widening on observed late-straggler
    # drops, narrowing when the tail is quiet. The retired static cap
    # of 16 lives on only as history in benchmarks/baselines/.
    return max(1, math.ceil(horizon / lq.every - 1e-9))


def _mark_paned(b, logical, lowered, lq):
    """Mark a standing plan for paned sliding-window aggregation.

    Paned evaluation applies when the window overlaps the period
    (``WINDOW > EVERY``, commensurable on the millisecond grid) and a
    stream-table scan's rows reach a pane-aware stateful operator
    through pane-transparent operators. The walk runs over the
    *logical* DAG (one consumer per node by construction) and maps each
    step onto its lowered physical specs: ``filter``/``project`` nodes
    are stateless row operators, a ``join`` is transparent when it
    lowered to fetch-matches and was entered from the probe side (the
    probe row's pane rides the asynchronous DHT get). Three terminal
    shapes:

    * ``aggregate`` -- the lowered ``groupby_partial`` gets the
      geometry; since grouped aggregation always feeds an exchange into
      a ``groupby_final``, the panes go *distributed*: the partial
      ships per-pane delta increments (``paned_ship = "delta"``), the
      exchange tags every batch with its pane, tree combiners merge
      same-pane partials mid-route, and the final assembles each
      epoch's window from pane partials at the group's owner -- so the
      overlap never crosses the wire again. The ``paned_exchange``
      query option set False keeps the node-local discipline (the
      benchmarks' ablation knob: full window states ship every epoch).
    * ``topk`` -- PR 3's node-local panes.
    * a ``join`` lowered with Bloom stages -- the entered side's
      ``bloom_stage`` keeps per-pane filter partials and row buffers,
      OR-merging the window's pane filters each epoch instead of
      rebuilding the filter from a re-scan (the join above stays
      from-scratch).

    Returns the first marked geometry, or None when the plan keeps
    from-scratch evaluation (the ``paned`` query option forces that).
    """
    if lq.options.get("paned") is False:
        return None
    every = lq.every
    if every is None:
        return None
    consumers = logical.consumers()
    marked = None
    for node in logical.nodes:
        if node.kind != "scan":
            continue
        table_def = node.attrs["table_def"]
        if table_def.source != "stream":
            continue
        window = lq.window if lq.window is not None else table_def.window
        if window is None or window <= every:
            continue
        width = pane_width(window, every)
        if width is None:
            continue
        geometry = {
            "width": width,
            "every": round(every / width),
            "window": round(window / width),
        }
        chain = _pane_chain(b, consumers, lowered, node)
        if chain is None:
            continue
        transparent, terminal_node, terminal_spec = chain
        b.spec(lowered[id(node)]["op"]).params["paned"] = geometry
        for spec in transparent:
            if spec.kind == "fetch_matches":
                spec.params["paned"] = geometry
        terminal_spec.params["paned"] = geometry
        if (terminal_spec.kind == "groupby_partial"
                and lq.options.get("paned_exchange") is not False):
            _mark_paned_exchange(b, lowered[id(terminal_node)], geometry)
        if marked is None:
            marked = geometry
    return marked


def _pane_chain(b, consumers, lowered, scan_node):
    """Walk from a scan's logical node to its pane-aware consumer.

    Returns ``(transparent_specs, terminal_node, terminal_spec)`` or
    None when the rows do not reach a pane-aware operator (e.g. they
    cross a symmetric-hash exchange, whose rehash scatters a pane's
    rows across owners mid-epoch).
    """
    transparent = []
    node = scan_node
    while True:
        downstream = consumers.get(node, ())
        if len(downstream) != 1:
            return None
        parent = downstream[0]
        info = lowered[id(parent)]
        if parent.kind in ("filter", "project"):
            transparent.append(b.spec(info["op"]))
            node = parent
            continue
        if parent.kind == "join":
            if info["strategy"] == "fm" and parent.inputs[0] is node:
                transparent.append(b.spec(info["op"]))
                node = parent
                continue
            if info["strategy"] == "bloom":
                side = 0 if parent.inputs[0] is node else 1
                return transparent, parent, b.spec(info["stages"][side])
            return None
        if parent.kind == "aggregate":
            return transparent, parent, b.spec(info["partial"])
        if parent.kind == "topk":
            return transparent, parent, b.spec(info["op"])
        return None


def _mark_paned_exchange(b, agg_info, geometry):
    """Extend panes across the aggregate's exchange to the final.

    The partial switches to shipping per-pane *increments* (each pane's
    partial crosses the wire once, when new rows touched it), the
    exchange stamps batches with their pane so delivery can re-announce
    it, and the final -- which now holds the window's pane partials at
    the group's owner -- gets the geometry to assemble each epoch's
    window. Tree-mode combining merges same-(epoch, pane) partials
    mid-route; its routing keys drop the per-epoch rendezvous salt,
    because a window's panes must accumulate at a *stable* owner across
    the epochs that share them.
    """
    partial = b.spec(agg_info["partial"])
    exchange = b.spec(agg_info["exchange"])
    final = b.spec(agg_info["final"])
    partial.params["paned_ship"] = "delta"
    exchange.params["paned"] = geometry
    if "combine" in exchange.params:
        exchange.params["combine"] = dict(
            exchange.params["combine"], paned=True
        )
    final.params["paned"] = geometry


def _lower_join(b, lq, node, lowered, ready, timing):
    """Lower one logical join; returns (ready, lowered-info)."""
    left_op = lowered[id(node.inputs[0])]["op"]
    right_op = lowered[id(node.inputs[1])]["op"]
    pairs = node.attrs["pairs"]
    residual = node.attrs["residual"]
    left_schema = node.attrs["left_schema"]
    right_schema = node.attrs["right_schema"]
    right_def = node.attrs["right_def"]
    left_keys = [ColumnRef(left) for left, _right in pairs]
    right_keys = [ColumnRef(right) for _left, right in pairs]
    strategy = lq.options.get("join_strategy", "auto")
    if strategy == "auto":
        strategy = "fm" if _fm_applicable(right_def, pairs, right_schema) else "shj"

    if strategy == "fm":
        if not _fm_applicable(right_def, pairs, right_schema):
            raise PlanError(
                "fetch-matches needs {} partitioned on the join column".format(
                    right_def.name
                )
            )
        join_id = b.add("fetch_matches", {
            "probe_schema": left_schema,
            "table": right_def.name,
            "table_schema": right_schema,
            "probe_key": left_keys[0],
            "residual": residual,
        }, [left_op])
        ready = ready + timing.rehash_xfer  # one get round-trip
        return ready, {"op": join_id, "strategy": "fm"}

    stages = None
    if strategy == "bloom":
        left_op, right_op, ready = _plan_bloom_stages(
            b, left_op, left_schema, left_keys,
            right_op, right_schema, right_keys, ready, timing,
        )
        stages = [left_op, right_op]

    left_ex = b.add("exchange", {
        "mode": "rehash",
        "key": {"kind": "exprs", "exprs": left_keys, "schema": left_schema},
    }, [left_op])
    right_ex = b.add("exchange", {
        "mode": "rehash",
        "key": {"kind": "exprs", "exprs": right_keys, "schema": right_schema},
    }, [right_op])
    join_id = b.add("shj", {
        "left_schema": left_schema,
        "right_schema": right_schema,
        "left_keys": left_keys,
        "right_keys": right_keys,
        "residual": residual,
    }, [left_ex, right_ex])
    ready = ready + timing.rehash_xfer
    info = {"op": join_id, "strategy": strategy}
    if stages is not None:
        info["stages"] = stages
    return ready, info


def _plan_bloom_stages(b, left_op, left_schema, left_keys,
                       right_op, right_schema, right_keys, ready, timing):
    """Insert bloom_stage ops on both legs; returns new legs + ready."""
    filter_flush = ready + 0.3
    merge_at = filter_flush + timing.bloom_merge
    release_at = merge_at + timing.bloom_release
    stages = []
    # Both stages share a filter group so the query site merges their
    # partials together and each side receives the *other's* filter.
    group = "bloom:{}".format(left_op)
    for side, op, schema, keys in (
        ("left", left_op, left_schema, left_keys),
        ("right", right_op, right_schema, right_keys),
    ):
        stage = b.add("bloom_stage", {
            "side": side, "key_exprs": keys, "schema": schema,
            "capacity": 512, "fp_rate": 0.02, "group": group,
        }, [op])
        b.flush_at(stage, filter_flush)
        stages.append(stage)
    b.bloom_broadcast_offset = merge_at
    return stages[0], stages[1], release_at


def _fm_applicable(right_def, pairs, right_schema):
    if right_def.source != "dht" or len(pairs) != 1:
        return False
    partition_index = right_def.schema.index_of(right_def.partition_key)
    join_index = right_schema.index_of(pairs[0][1])
    return partition_index == join_index


def _lower_aggregation(b, lq, node, lowered, ready, timing):
    group_exprs = list(node.attrs["group_by"])
    agg_specs = []
    for item, name in lq.select_items:
        if isinstance(item, AggCall):
            agg_specs.append(AggSpec(item.func_name, item.arg, name,
                                     item.params))

    child = lowered[id(node.inputs[0])]["op"]
    schema = node.inputs[0].schema
    partial_id = b.add("groupby_partial", {
        "group_exprs": group_exprs, "agg_specs": agg_specs, "schema": schema,
    }, [child])
    ready += timing.hold
    b.flush_at(partial_id, ready)

    # The ablation knob: aggregation_tree=False ships partials straight
    # to each group's owner with no in-network combining (same answer,
    # more messages converging on the owner).
    use_tree = lq.options.get("aggregation_tree", True)
    exchange_params = {"mode": "tree" if use_tree else "rehash",
                       "key": {"kind": "group"}}
    if use_tree:
        exchange_params["combine"] = {"agg_specs": agg_specs}
    exchange_id = b.add("exchange", exchange_params, [partial_id])
    ready += timing.tree_xfer if use_tree else timing.rehash_xfer

    final_id = b.add("groupby_final", {"agg_specs": agg_specs}, [exchange_id])
    ready += timing.hold
    b.flush_at(final_id, ready)

    # Final operators emit mergeable (group_values, states) rows; the
    # query site reconciles owners (ring healing can split a group
    # across two acting owners), finalizes, applies HAVING and projects
    # into SELECT order -- all over a handful of group rows.
    internal_schema = _aggregation_internal_schema(lq, group_exprs, agg_specs)
    select_exprs = []
    for item, name in lq.select_items:
        if isinstance(item, AggCall):
            select_exprs.append(ColumnRef(name))
        else:
            rewritten = _rewrite_group_expr(item, group_exprs, internal_schema)
            try:
                rewritten.compile(internal_schema)
            except CatalogError:
                raise PlanError(
                    "SELECT item {!r} is neither an aggregate nor derivable "
                    "from the GROUP BY columns".format(item.display())
                )
            select_exprs.append(rewritten)
    agg_finishing = {
        "agg_specs": agg_specs,
        "internal_schema": internal_schema,
        "select_exprs": select_exprs,
        "having": lq.having,
    }
    info = {"op": final_id, "partial": partial_id,
            "exchange": exchange_id, "final": final_id}
    return ready, agg_finishing, info


def _aggregation_internal_schema(lq, group_exprs, agg_specs):
    """Schema of final group-by output rows: group cols then agg cols."""
    columns = []
    for i, expr in enumerate(group_exprs):
        if isinstance(expr, ColumnRef):
            name = expr.name
        else:
            name = "__group{}".format(i)
        columns.append(Column(name, ANY))
    for spec in agg_specs:
        columns.append(Column(spec.output_name, ANY))
    return Schema(columns)


def _rewrite_group_expr(expr, group_exprs, internal_schema):
    """Map a SELECT-list group expression onto the internal schema."""
    for i, g in enumerate(group_exprs):
        if g.display() == expr.display():
            return ColumnRef(internal_schema.columns[i].name)
    # Not literally a group expression: compile as-is; it may still
    # reference group columns by name (e.g. an arithmetic over them).
    return expr


def _output_schema(lq):
    return Schema(Column(name, ANY) for _item, name in lq.select_items)


def _compile_order_by(lq, schema):
    sort_keys = []
    for expr, desc in lq.order_by:
        sort_keys.append((expr, desc))
    # Validate references now so a bad ORDER BY fails at plan time.
    for expr, _desc in sort_keys:
        expr.compile(schema)
    return sort_keys


# ----------------------------------------------------------------------
# Recursive planning (transitive-closure shape)
# ----------------------------------------------------------------------
def _plan_recursive(lq, catalog, timing):
    spec = lq.recursive
    base, step = spec.base, spec.step
    b = _Builder(timing)

    # --- base leg: scan -> select -> project into the recursive shape
    if len(base.tables) != 1:
        raise PlanError("recursive base must read exactly one table")
    base_table, base_alias = base.tables[0]
    base_def = catalog.lookup(base_table)
    base_schema = base_def.schema.qualify(base_alias or base_table)
    base_scan = b.add("scan", {"table": base_table, "alias": base_alias})
    op = base_scan
    if base.where is not None:
        op = b.add("select", {"predicate": base.where, "schema": base_schema}, [op])
    base_exprs = [item for item, _n in base.select_items]
    op = b.add("project", {"exprs": base_exprs, "schema": base_schema}, [op])

    rec_columns = [name for _i, name in base.select_items]
    rec_schema = Schema(Column(n, ANY) for n in rec_columns)

    # --- the fixpoint core: row-partitioned distinct
    to_distinct = b.add("exchange", {"mode": "rehash", "key": {"kind": "row"}}, [op])
    distinct_id = b.add("distinct", {"report_progress": True}, [to_distinct])

    # --- result branch
    out_exprs = [item for item, _n in lq.select_items]
    out_schema_in = rec_schema.qualify(spec.name)
    result_chain = distinct_id
    if lq.where is not None:
        result_chain = b.add("select", {
            "predicate": lq.where, "schema": out_schema_in,
        }, [result_chain])
    result_chain = b.add("project", {
        "exprs": out_exprs, "schema": out_schema_in,
    }, [result_chain])
    result_id = b.add("result", {}, [result_chain])

    # --- recursive step: join novel rows with the edge table
    rec_alias, edge_table, edge_alias = _recursive_step_shape(step, spec.name)
    edge_def = catalog.lookup(edge_table)
    edge_schema = edge_def.schema.qualify(edge_alias or edge_table)
    probe_schema = rec_schema.qualify(rec_alias)
    conjuncts = _split_where(step.where)
    pred = _and_all(conjuncts)
    pairs, residual = equi_join_pairs(pred, probe_schema, edge_schema)
    if not pairs:
        raise PlanError("recursive step needs an equi-join with the edge table")
    step_exprs = [item for item, _n in step.select_items]
    out_schema = probe_schema.concat(edge_schema)

    if _fm_applicable(edge_def, pairs, edge_schema):
        join_id = b.add("fetch_matches", {
            "probe_schema": probe_schema,
            "table": edge_table,
            "table_schema": edge_schema,
            "probe_key": ColumnRef(pairs[0][0]),
            "residual": residual,
            "dedup_keys": True,
        }, [distinct_id])
    else:
        left_keys = [ColumnRef(left) for left, _right in pairs]
        right_keys = [ColumnRef(right) for _left, right in pairs]
        left_ex = b.add("exchange", {
            "mode": "rehash",
            "key": {"kind": "exprs", "exprs": left_keys, "schema": probe_schema},
        }, [distinct_id])
        edge_scan = b.add("scan", {"table": edge_table, "alias": edge_alias})
        right_ex = b.add("exchange", {
            "mode": "rehash",
            "key": {"kind": "exprs", "exprs": right_keys, "schema": edge_schema},
        }, [edge_scan])
        join_id = b.add("shj", {
            "left_schema": probe_schema,
            "right_schema": edge_schema,
            "left_keys": left_keys,
            "right_keys": right_keys,
            "residual": residual,
        }, [left_ex, right_ex])

    step_project = b.add("project", {
        "exprs": step_exprs, "schema": out_schema,
    }, [join_id])
    back_ex = b.add("exchange", {"mode": "rehash", "key": {"kind": "row"}},
                    [step_project])
    # Close the cycle: the back edge feeds the same distinct operator.
    for s in b.specs:
        if s.op_id == distinct_id:
            s.inputs.append(back_ex)

    deadline = lq.options.get("recursion_deadline", 45.0)
    metadata = {
        "columns": [name for _item, name in lq.select_items],
        "quiet_period": lq.options.get("quiet_period", 3.0),
        "min_runtime": lq.options.get("min_runtime", 3.0),
    }
    return QueryPlan(
        b.specs, result_id, mode="recursive", flush_offsets={},
        deadline=deadline, finishing={}, metadata=metadata,
    )


def _recursive_step_shape(step, rec_name):
    """Identify which FROM entry is the recursive table; return aliases."""
    if len(step.tables) != 2:
        raise PlanError("recursive step must join the recursive table with one table")
    (t1, a1), (t2, a2) = step.tables
    if t1 == rec_name:
        return (a1 or t1), t2, a2
    if t2 == rec_name:
        return (a2 or t2), t1, a1
    raise PlanError("recursive step does not reference {!r}".format(rec_name))
