"""Columnar hot path: RowBatch mechanics and operator kernels vs oracles.

Two layers:

* :class:`repro.core.batch.RowBatch` unit tests -- lazy rows<->columns
  duality, truthy ``take``, ``project``, the dict adapter seam, and the
  ``columnar_wire`` encoder's uniform-arity gate;
* the kernel contract: every operator's ``push_batch`` is checked
  against a plain-Python reference written here -- a filter or map
  comprehension, a fold calling ``agg.add`` once per row, a
  nested-loop join, a sort-and-cut top-k, first-occurrence distinct
  and per-row exchange bucketing -- on randomized batches including
  empty and single-row ones, and under pane/epoch-tagged delivery.
  Rows are fed both as one batch and as one-row batches (how most
  deliveries reach an owner). The Select cases pin the null-semantics
  path: a predicate evaluating to None, False or 0 filters the row out
  (SQL three-valued logic must survive vectorization).
"""

import random

import pytest

from repro.core.aggregates import AggSpec
from repro.core.batch import RowBatch, columnar_wire
from repro.core.dataflow import Operator
from repro.core.exchange import payload_rows
from repro.core.opgraph import OpSpec
from repro.core.operators import create_operator
from repro.db.expressions import BinaryOp, FuncCall, col, lit
from repro.db.schema import Schema
from repro.db.types import INT, STR
from repro.db.window import window_pane_range
from repro.dht.chord import storage_key
from repro.util.bloom import BloomFilter

SCHEMA = Schema.of(("a", INT), ("b", INT), ("s", STR))


class Sink(Operator):
    """Consumer recording rows and how many batches carried them."""

    def __init__(self):
        self.rows = []
        self.batches = 0
        self.consumers = []
        self.resets = 0

    def push_batch(self, batch, port=0):
        self.batches += 1
        self.rows.extend(batch.rows())

    def reset_batch(self):
        self.resets += 1


class StubDht:
    def set_timer(self, delay, callback, *args):
        return object()

    def cancel_timer(self, timer):
        pass


class StubCtx:
    """Network-free operator context; standing/epoch knobs per test."""

    def __init__(self, standing=False):
        self.engine = None
        self.dht = StubDht()
        self.plan = None
        self.query_id = "q"
        self.epoch = 0
        self.active_epoch = 0
        self.t0 = 0.0
        self.standing = standing


def make(kind, params, standing=False):
    ctx = StubCtx(standing=standing)
    op = create_operator(ctx, OpSpec("x", kind, params))
    sink = Sink()
    op.wire(sink, 0)
    return op, sink


def feed(op, rows, split=False, port=0, schema=SCHEMA):
    """Push ``rows`` as one batch, or as one-row batches with ``split``."""
    if split:
        for row in rows:
            op.push_batch(RowBatch.from_rows([row], schema), port)
    else:
        op.push_batch(RowBatch.from_rows(rows, schema), port)


def random_rows(rng, n):
    return [
        (
            rng.choice([None, 0, 1, 2, 3, rng.randint(-50, 50)]),
            rng.randint(0, 9),
            rng.choice(["x", "y", "z", ""]),
        )
        for _ in range(n)
    ]


# Batch sizes the contract must survive: empty, single-row, small, odd.
SIZES = (0, 1, 2, 5, 17)


# ----------------------------------------------------------------------
# Plain-Python references
# ----------------------------------------------------------------------
def ref_fold(rows, key, specs, args):
    """Group-by partial states: one ``agg.add`` per row, arrival order."""
    groups = {}
    for row in rows:
        states = groups.get(key(row))
        if states is None:
            states = groups[key(row)] = [s.agg.init() for s in specs]
        for i, spec in enumerate(specs):
            states[i] = spec.agg.add(states[i], args[i](row))
    return sorted((gvals, tuple(states)) for gvals, states in groups.items())


def ref_topk(rows, limit=3):
    """Sort by b descending (stable: ties keep arrival order), cut."""
    return sorted(rows, key=lambda r: -r[1])[:limit]


def ref_distinct(rows):
    """First occurrence of each row, in arrival order."""
    return list(dict.fromkeys(rows))


# ----------------------------------------------------------------------
# RowBatch mechanics
# ----------------------------------------------------------------------
class TestRowBatch:
    def test_rows_columns_round_trip(self):
        rows = [(1, 2, "x"), (3, 4, "y")]
        by_rows = RowBatch.from_rows(rows, SCHEMA)
        assert by_rows.columns() == [[1, 3], [2, 4], ["x", "y"]]
        by_cols = RowBatch.from_columns([[1, 3], [2, 4], ["x", "y"]])
        assert by_cols.rows() == rows
        assert list(by_rows.iter_rows()) == rows
        assert len(by_rows) == len(by_cols) == 2

    def test_needs_rows_or_columns(self):
        with pytest.raises(ValueError):
            RowBatch()

    def test_empty_batch_transposes_per_schema(self):
        batch = RowBatch.from_rows([], SCHEMA)
        assert len(batch) == 0
        assert batch.columns() == [[], [], []]
        assert RowBatch.from_rows([]).columns() == []

    def test_take_is_truthy_not_is_true(self):
        batch = RowBatch.from_rows([(1, 0, "a"), (2, 0, "b"), (3, 0, "c")])
        kept = batch.take([None, False, 7])
        assert kept.rows() == [(3, 0, "c")]
        assert batch.take([0, "", None]).rows() == []

    def test_take_all_pass_returns_self(self):
        batch = RowBatch.from_columns([[1, 2], [3, 4]])
        assert batch.take([1, True]) is batch

    def test_take_on_column_built_batch(self):
        batch = RowBatch.from_columns([[1, 2, 3], ["a", "b", "c"]])
        kept = batch.take([True, None, True])
        assert kept.rows() == [(1, "a"), (3, "c")]

    def test_project_by_name_and_position(self):
        batch = RowBatch.from_rows([(1, 2, "x"), (3, 4, "y")], SCHEMA)
        assert batch.project(["s", "a"]).rows() == [("x", 1), ("y", 3)]
        assert batch.project([1]).rows() == [(2,), (4,)]
        # Projection shares column lists with the source batch.
        assert batch.project(["a"]).column(0) is batch.column(0)

    def test_dict_adapters(self):
        dicts = [{"a": 1, "b": 2, "s": "x"}, {"a": 3, "b": 4, "s": "y"}]
        batch = RowBatch.from_dicts(dicts, SCHEMA)
        assert batch.rows() == [(1, 2, "x"), (3, 4, "y")]
        assert batch.to_dicts() == dicts

    def test_columnar_wire_uniform_tuples_only(self):
        assert columnar_wire([(1, "a"), (2, "b")]) == [[1, 2], ["a", "b"]]
        assert columnar_wire([(1, 2), (3,)]) is None  # ragged
        assert columnar_wire([(1, 2), [3, 4]]) is None  # not all tuples
        assert columnar_wire([(), ()]) is None  # zero arity
        assert columnar_wire([]) is None


# ----------------------------------------------------------------------
# Select null semantics: None / False / 0 filter the row out
# ----------------------------------------------------------------------
class TestSelectNullSemantics:
    def _run(self, predicate, rows, whole_batch):
        op, sink = make("select", {"predicate": predicate, "schema": SCHEMA})
        feed(op, rows, split=not whole_batch)
        return sink.rows

    @pytest.mark.parametrize("whole_batch", [False, True])
    def test_null_comparison_filters(self, whole_batch):
        # a > NULL is NULL for every row: nothing may pass.
        predicate = BinaryOp(">", col("a"), lit(None))
        rows = [(5, 0, ""), (None, 0, ""), (-5, 0, "")]
        assert self._run(predicate, rows, whole_batch) == []

    @pytest.mark.parametrize("whole_batch", [False, True])
    def test_none_false_and_zero_all_filter(self, whole_batch):
        # A bare column predicate exposes raw values to the truth test:
        # None (SQL NULL), False and 0 must all drop the row; any other
        # value passes it. ``is True`` filtering would wrongly keep
        # None/0 rows or drop truthy non-bool values.
        rows = [
            (None, 1, "null"),
            (False, 2, "false"),
            (0, 3, "zero"),
            (1, 4, "one"),
            (-7, 5, "neg"),
            (True, 6, "true"),
        ]
        kept = self._run(col("a"), rows, whole_batch)
        assert [r[2] for r in kept] == ["one", "neg", "true"]

    def test_row_and_batch_agree_on_random_predicates(self):
        # One-row batches and one whole batch both keep exactly the
        # rows a plain comprehension keeps (NULL AND x never passes).
        rng = random.Random(77)
        predicate = BinaryOp(
            "AND",
            BinaryOp(">", col("a"), lit(0)),
            BinaryOp("<", col("b"), lit(7)),
        )
        for n in SIZES:
            rows = random_rows(rng, n)
            want = [r for r in rows
                    if r[0] is not None and r[0] > 0 and r[1] < 7]
            assert self._run(predicate, rows, False) == want
            assert self._run(predicate, rows, True) == want


# ----------------------------------------------------------------------
# Kernels vs references, every operator
# ----------------------------------------------------------------------
def drive(make_op, rows, split=False, flush=True, epochs=None):
    """Feed rows through one operator instance and return the sink rows.

    ``epochs`` optionally tags each row: the rows are split into
    per-epoch chunks fed in order, mimicking epoch-tagged
    deliver_batch.
    """
    op, sink = make_op()
    chunks = [(None, rows)]
    if epochs is not None:
        chunks = []
        for row, epoch in zip(rows, epochs):
            if chunks and chunks[-1][0] == epoch:
                chunks[-1][1].append(row)
            else:
                chunks.append((epoch, [row]))
    for epoch, chunk in chunks:
        if epoch is not None:
            op.ctx.epoch = op.ctx.active_epoch = epoch
        feed(op, chunk, split=split)
    if flush:
        op.flush()
    return sink.rows


def drive_panes(op, rows, panes, split=False):
    """Feed each pane's rows under its ``open_pane`` marker."""
    for pane in sorted(set(panes)):
        op.open_pane(pane)
        feed(op, [r for r, p in zip(rows, panes) if p == pane], split=split)


class TestPushBatchParity:
    @pytest.mark.parametrize("n", SIZES)
    def test_select_override(self, n):
        rows = random_rows(random.Random(100 + n), n)

        def build():
            return make("select", {
                "predicate": BinaryOp(">", col("a"), lit(0)),
                "schema": SCHEMA,
            })

        want = [r for r in rows if r[0] is not None and r[0] > 0]
        for split in (False, True):
            assert drive(build, rows, split, flush=False) == want

    @pytest.mark.parametrize("n", SIZES)
    def test_project_override(self, n):
        rows = random_rows(random.Random(200 + n), n)

        def build():
            return make("project", {
                "exprs": [BinaryOp("+", col("b"), lit(1)),
                          FuncCall("LENGTH", [col("s")]), col("a")],
                "schema": SCHEMA,
            })

        want = [(b + 1, len(s), a) for a, b, s in rows]
        for split in (False, True):
            assert drive(build, rows, split, flush=False) == want

    @pytest.mark.parametrize("n", SIZES)
    def test_topk_override(self, n):
        rows = random_rows(random.Random(300 + n), n)

        def build():
            return make("topk", {
                "sort_keys": [(col("b"), True)], "limit": 3,
                "schema": SCHEMA,
            })

        for split in (False, True):
            assert drive(build, rows, split) == ref_topk(rows)

    def test_topk_paned_override(self):
        rng = random.Random(301)
        rows = random_rows(rng, 12)
        panes = sorted(rng.randint(0, 2) for _ in rows)
        lo, hi = window_pane_range(3, 1, 3)

        for split in (False, True):
            op, sink = make("topk", {
                "sort_keys": [(col("b"), True)], "limit": 3,
                "schema": SCHEMA,
                "paned": {"width": 1.0, "every": 1, "window": 3},
            }, standing=True)
            drive_panes(op, rows, panes, split)
            op.ctx.epoch = op.ctx.active_epoch = 3
            op.flush()
            # Rows in pane order (the scan emits panes in order).
            window = [r for p in range(lo, hi)
                      for r, rp in zip(rows, panes) if rp == p]
            assert sink.rows == ref_topk(window)

    SPECS = [AggSpec("SUM", col("b"), "total"),
             AggSpec("COUNT", col("a"), "n"),
             AggSpec("COUNT", None, "rows"),
             AggSpec("AVG", col("b"), "mean")]
    ARGS = [lambda r: r[1], lambda r: r[0], lambda r: None, lambda r: r[1]]

    @pytest.mark.parametrize("n", SIZES)
    def test_groupby_partial_override(self, n):
        rows = random_rows(random.Random(400 + n), n)

        def build():
            return make("groupby_partial", {
                "group_exprs": [col("s")], "agg_specs": self.SPECS,
                "schema": SCHEMA,
            })

        want = ref_fold(rows, lambda r: (r[2],), self.SPECS, self.ARGS)
        for split in (False, True):
            assert sorted(drive(build, rows, split)) == want

    @pytest.mark.parametrize("n", SIZES)
    def test_groupby_partial_global_aggregate(self, n):
        # Zero group exprs: every row folds into the single () group
        # (the regression the monitoring workload exercises).
        rows = random_rows(random.Random(450 + n), n)
        specs = [AggSpec("SUM", col("b"), "total"),
                 AggSpec("COUNT", None, "n")]

        def build():
            return make("groupby_partial", {
                "group_exprs": [], "agg_specs": specs, "schema": SCHEMA,
            })

        want = ref_fold(rows, lambda r: (), specs,
                        [lambda r: r[1], lambda r: None])
        for split in (False, True):
            assert drive(build, rows, split) == want

    @pytest.mark.parametrize("ship", ["local", "delta"])
    def test_groupby_partial_paned_modes(self, ship):
        rng = random.Random(17 if ship == "local" else 18)
        rows = random_rows(rng, 14)
        panes = sorted(rng.randint(0, 2) for _ in rows)
        specs = [AggSpec("SUM", col("b"), "total"),
                 AggSpec("COUNT", None, "n")]
        args = [lambda r: r[1], lambda r: None]
        params = {
            "group_exprs": [col("s")], "agg_specs": specs,
            "schema": SCHEMA,
            "paned": {"width": 1.0, "every": 1, "window": 3},
        }
        if ship == "delta":
            params["paned_ship"] = "delta"
        lo, hi = window_pane_range(3, 1, 3)
        by_pane = {p: [r for r, rp in zip(rows, panes) if rp == p]
                   for p in range(lo, hi)}
        if ship == "delta":
            # Each pane's increment ships once, under its own pane.
            want = sorted(
                state for p in range(lo, hi)
                for state in ref_fold(by_pane[p], lambda r: (r[2],),
                                      specs, args))
        else:
            # The partial assembles the whole window itself.
            want = ref_fold([r for p in range(lo, hi) for r in by_pane[p]],
                            lambda r: (r[2],), specs, args)

        for split in (False, True):
            op, sink = make("groupby_partial", dict(params), standing=True)
            drive_panes(op, rows, panes, split)
            op.ctx.epoch = op.ctx.active_epoch = 3
            op.flush()
            assert sorted(sink.rows) == want

    @pytest.mark.parametrize("n", SIZES)
    def test_groupby_partial_epoch_tagged_batches(self, n):
        # Standing epoch-ring mode: batches arriving under different
        # active epochs accumulate into their own epoch's states.
        rows = random_rows(random.Random(500 + n), n)
        epochs = [1 + (i % 2) for i in range(n)]
        specs = [AggSpec("SUM", col("b"), "total")]
        want = [
            ref_fold([r for r, e in zip(rows, epochs) if e == epoch],
                     lambda r: (r[2],), specs, [lambda r: r[1]])
            for epoch in (1, 2)
        ]

        for split in (False, True):
            op, sink = make("groupby_partial", {
                "group_exprs": [col("s")], "agg_specs": specs,
                "schema": SCHEMA,
            }, standing=True)
            for epoch in (1, 2):
                op.ctx.epoch = op.ctx.active_epoch = epoch
                feed(op, [r for r, e in zip(rows, epochs) if e == epoch],
                     split=split)
            got = []
            for epoch in (1, 2):
                op.ctx.epoch = op.ctx.active_epoch = epoch
                sink.rows = []
                op.flush()
                got.append(sorted(sink.rows))
            assert got == want

    @pytest.mark.parametrize("kind,params", [
        ("distinct", {}),
        ("limit", {"limit": 4}),
    ])
    @pytest.mark.parametrize("n", SIZES)
    def test_default_loop_operators(self, kind, params, n):
        # Distinct keeps first occurrences; limit cuts to its count
        # however the rows are split into batches.
        rows = random_rows(random.Random(600 + n), n)
        want = ref_distinct(rows) if kind == "distinct" else rows[:4]

        def build():
            return make(kind, dict(params))

        for split in (False, True):
            assert drive(build, rows, split, flush=False) == want

    def test_limit_slices_across_batches(self):
        op, sink = make("limit", {"limit": 3})
        feed(op, [(1, 0, ""), (2, 0, "")])
        feed(op, [(3, 0, ""), (4, 0, ""), (5, 0, "")])
        feed(op, [(6, 0, "")])
        assert [r[0] for r in sink.rows] == [1, 2, 3]
        assert sink.batches == 2  # the exhausted limit emits nothing

    @pytest.mark.parametrize("n", SIZES)
    def test_distinct_override_duplicate_heavy(self, n):
        # Most of the batch is repeats (tiny value pool).
        rng = random.Random(700 + n)
        rows = [(rng.randint(0, 2), rng.randint(0, 1),
                 rng.choice(["x", "y"])) for _ in range(n)]

        def build():
            return make("distinct", {})

        for split in (False, True):
            assert drive(build, rows, split, flush=False) == (
                ref_distinct(rows))

    def test_distinct_epoch_tagged_batches(self):
        # Standing mode: each epoch's seen-set is its own; a row
        # deduped in epoch 1 is novel again in epoch 2.
        rng = random.Random(701)
        rows = [(rng.randint(0, 2), 0, "x") for _ in range(12)]
        epochs = [1 + (i // 6) for i in range(12)]

        def build():
            return make("distinct", {}, standing=True)

        want = ref_distinct(rows[:6]) + ref_distinct(rows[6:])
        for split in (False, True):
            assert drive(build, rows, split, flush=False,
                         epochs=epochs) == want

    def test_distinct_seal_epoch_releases_state(self):
        op, sink = make("distinct", {}, standing=True)
        op.ctx.epoch = op.ctx.active_epoch = 1
        op.push_batch(RowBatch.from_rows(
            [(1, 1, "x"), (1, 1, "x"), (2, 2, "y")], SCHEMA))
        assert len(sink.rows) == 2
        op.seal_epoch(1)
        op.ctx.epoch = op.ctx.active_epoch = 2
        op.push_batch(RowBatch.from_rows([(1, 1, "x")], SCHEMA))
        assert len(sink.rows) == 3  # sealed epoch's memory is gone

    def test_distinct_batch_progress_notes_aggregate(self):
        # One progress note per wave, counting every novel row -- the
        # quiescence accounting recursive plans depend on.
        class Eng:
            def __init__(self):
                self.notes = []

            def note_progress(self, qid, epoch, n):
                self.notes.append(n)

        op, sink = make("distinct", {"report_progress": True})
        op.ctx.engine = Eng()
        op.push_batch(RowBatch.from_rows(
            [(1, 1, "x"), (1, 1, "x"), (2, 2, "y"), (3, 3, "z")], SCHEMA))
        assert sink.rows == [(1, 1, "x"), (2, 2, "y"), (3, 3, "z")]
        assert op.ctx.engine.notes == [3]

    def test_distinct_emission_granularity(self):
        # Novel rows leave as ONE batch per wave, a lone novel row as a
        # one-row batch; a wave of repeats emits nothing.
        op, sink = make("distinct", {})
        op.push_batch(RowBatch.from_rows([(1, 1, "x"), (1, 1, "x")], SCHEMA))
        assert sink.rows == [(1, 1, "x")]
        assert sink.batches == 1
        op.push_batch(RowBatch.from_rows([(2, 1, "x"), (3, 1, "x")], SCHEMA))
        assert sink.batches == 2
        op.push_batch(RowBatch.from_rows([(2, 1, "x")], SCHEMA))
        assert sink.batches == 2
        assert sink.rows == [(1, 1, "x"), (2, 1, "x"), (3, 1, "x")]

    def test_default_push_batch_preserves_port(self):
        # emit_batch hands each consumer the port it was wired on.
        class TwoPort(Operator):
            def __init__(self):
                self.got = []
                self.consumers = []

            def push_batch(self, batch, port=0):
                self.got.append((port, batch.rows()))

        op, _sink = make("union", {})
        op.consumers = []
        consumer = TwoPort()
        op.wire(consumer, 1)
        op.push_batch(RowBatch.from_rows([(1,), (2,)]), port=0)
        assert consumer.got == [(1, [(1,), (2,)])]

    def test_emit_batch_feeds_batch_consumers_whole(self):
        class Source(Operator):
            def __init__(self):
                self.consumers = []

        source = Source()
        sink = Sink()
        source.wire(sink, 0)
        source.emit_batch(RowBatch.from_rows([(1,), (2,), (3,)]))
        assert sink.batches == 1
        assert sink.rows == [(1,), (2,), (3,)]


# ----------------------------------------------------------------------
# Symmetric hash join: build+probe kernel vs a nested-loop join
# ----------------------------------------------------------------------
def ref_nested_loop_join(feeds, residual=None):
    """Each arriving row joins every earlier opposite-side row with an
    equal key (left b = right k), oldest first; columns left-then-right."""
    seen = ([], [])
    out = []
    for port, chunk in feeds:
        for row in chunk:
            for other in seen[1 - port]:
                left, right = (row, other) if port == 0 else (other, row)
                if left[1] == right[0]:
                    joined = left + right
                    if residual is None or residual(joined):
                        out.append(joined)
            seen[port].append(row)
    return out


class TestSymmetricHashJoinParity:
    RIGHT = Schema.of(("k", INT), ("t", STR))

    def _build(self, residual=None):
        params = {
            "left_schema": SCHEMA, "right_schema": self.RIGHT,
            "left_keys": [col("b")], "right_keys": [col("k")],
        }
        if residual is not None:
            params["residual"] = residual
        return make("shj", params)

    def _random_feeds(self, rng, n):
        """Interleaved per-port chunks totalling ``n`` rows."""
        feeds, remaining = [], n
        while remaining > 0:
            m = min(remaining, rng.randint(1, 5))
            if rng.random() < 0.5:
                feeds.append((0, random_rows(rng, m)))
            else:
                feeds.append((1, [
                    (rng.randint(0, 9), rng.choice(["p", "q"]))
                    for _ in range(m)
                ]))
            remaining -= m
        return feeds

    def _run(self, feeds, split=False, residual=None):
        op, sink = self._build(residual)
        for port, chunk in feeds:
            schema = SCHEMA if port == 0 else self.RIGHT
            feed(op, chunk, split=split, port=port, schema=schema)
        return sink.rows

    @pytest.mark.parametrize("with_residual", [False, True])
    @pytest.mark.parametrize("n", SIZES)
    def test_interleaved_port_parity(self, n, with_residual):
        # Keys overlap heavily (b and k both draw from 0..9), so the
        # probe loop fires constantly. Exact equality: emission ORDER
        # is part of the contract, not just the multiset.
        feeds = self._random_feeds(random.Random(800 + n), n)
        residual = (BinaryOp(">", col("a"), lit(0))
                    if with_residual else None)
        want = ref_nested_loop_join(
            feeds,
            (lambda r: r[0] is not None and r[0] > 0)
            if with_residual else None,
        )
        assert self._run(feeds, False, residual) == want
        assert self._run(feeds, True, residual) == want

    def test_duplicate_key_probe_order(self):
        # Two matches already built under key 3, then a left batch with
        # two rows of the same key: joins come out row-major (each left
        # row against the matches in table insertion order).
        feeds = [
            (1, [(3, "p"), (3, "q")]),
            (0, [(10, 3, "x"), (20, 3, "y")]),
        ]
        expected = [
            (10, 3, "x", 3, "p"), (10, 3, "x", 3, "q"),
            (20, 3, "y", 3, "p"), (20, 3, "y", 3, "q"),
        ]
        assert self._run(feeds) == expected
        assert self._run(feeds, split=True) == expected

    def test_build_side_batch_probes_later(self):
        # A batch on the right port both builds its table and probes
        # the left side built earlier -- column order stays
        # left-then-right even when the right row arrives second.
        feeds = [(0, [(1, 7, "x")]), (1, [(7, "p"), (7, "q")])]
        expected = [(1, 7, "x", 7, "p"), (1, 7, "x", 7, "q")]
        assert self._run(feeds) == expected
        assert self._run(feeds, split=True) == expected

    def test_emission_granularity(self):
        # All joins of one arriving batch leave as ONE batch; a single
        # join leaves as a one-row batch; no join, no batch.
        op, sink = self._build()
        op.push_batch(RowBatch.from_rows([(7, "p"), (7, "q")], self.RIGHT),
                      port=1)
        assert sink.batches == 0
        op.push_batch(RowBatch.from_rows([(1, 7, "x")], SCHEMA), port=0)
        assert sink.batches == 1
        assert sink.rows == [(1, 7, "x", 7, "p"), (1, 7, "x", 7, "q")]
        op.push_batch(RowBatch.from_rows([(8, "p")], self.RIGHT), port=1)
        op.push_batch(RowBatch.from_rows([(2, 8, "y")], SCHEMA), port=0)
        assert sink.batches == 2
        assert sink.rows[-1] == (2, 8, "y", 8, "p")


# ----------------------------------------------------------------------
# Fetch-matches: probe kernel vs a per-release nested-loop join
# ----------------------------------------------------------------------
class FetchDht(StubDht):
    """DHT stub capturing ``get`` calls for deterministic release."""

    def __init__(self, table_rows):
        self.table_rows = table_rows  # key -> [row tuples]
        self.pending = []  # (key, callback) in dispatch order
        self.gets = 0

    def get(self, table, key, callback):
        self.gets += 1
        self.pending.append((key, callback))

    def release_all(self):
        """Answer every outstanding fetch in dispatch order."""
        pending, self.pending = self.pending, []
        for key, callback in pending:
            rows = self.table_rows.get(key, [])
            callback([(i, row) for i, row in enumerate(rows)])


class PaneSink(Sink):
    """Sink recording pane announcements interleaved with rows."""

    def __init__(self):
        super().__init__()
        self.events = []

    def open_pane(self, pane):
        self.events.append(("pane", pane))

    def push_batch(self, batch, port=0):
        super().push_batch(batch, port)
        self.events.extend(("row", row) for row in batch.rows())


def ref_fetch(windows, table_rows, residual=None):
    """Joins and get count when each window of probe rows is released
    together: one get per distinct key (first-seen order), each key's
    probes in arrival order, each probe against its key's table rows."""
    out, gets = [], 0
    for window in windows:
        waiting = {}
        for row in window:
            waiting.setdefault(row[1], []).append(row)
        gets += len(waiting)
        for key, probes in waiting.items():
            for probe in probes:
                for table_row in table_rows.get(key, []):
                    joined = probe + table_row
                    if residual is None or residual(joined):
                        out.append(joined)
    return out, gets


class TestFetchMatchesParity:
    TABLE = Schema.of(("k", INT), ("t", STR))

    def _build(self, table_rows, residual=None, dedup=False, paned=False):
        params = {
            "probe_schema": SCHEMA, "table": "inner",
            "table_schema": self.TABLE,
            "probe_key": col("b"),
        }
        if residual is not None:
            params["residual"] = residual
        if dedup:
            params["dedup_keys"] = True
        if paned:
            params["paned"] = {"width": 1.0, "every": 1, "window": 3}
        ctx = StubCtx(standing=paned)
        ctx.dht = FetchDht(table_rows)
        op = create_operator(ctx, OpSpec("x", "fetch_matches", params))
        sink = PaneSink()
        op.wire(sink, 0)
        return op, sink, ctx.dht

    @staticmethod
    def _table_for(rng):
        # Keys 0..9 (matching column b's range); some keys have several
        # matches, some none at all.
        return {
            k: [(k, "t{}".format(j)) for j in range(rng.randint(0, 2))]
            for k in range(10)
        }

    def _run(self, rows, table_rows, release="end", split=False, **kwargs):
        op, sink, dht = self._build(table_rows, **kwargs)
        chunks = ([rows[i:i + 4] for i in range(0, len(rows), 4)]
                  if rows else [[]])
        for chunk in chunks:
            feed(op, chunk, split=split)
            if release == "eager":
                dht.release_all()
        dht.release_all()
        return op, sink, dht

    @pytest.mark.parametrize("release", ["end", "eager"])
    @pytest.mark.parametrize("n", SIZES)
    def test_parity_random(self, n, release):
        # Exact equality: join release order (waiting lists drained in
        # arrival order per fetched key) is part of the contract, and
        # repeats of an in-flight key piggyback instead of re-fetching.
        rng = random.Random(980 + n)
        table_rows = self._table_for(rng)
        rows = random_rows(rng, n)
        windows = ([rows[i:i + 4] for i in range(0, n, 4)]
                   if release == "eager" else [rows])
        want_rows, want_gets = ref_fetch(windows, table_rows)
        for split in (False, True):
            _op, sink, dht = self._run(rows, table_rows, release=release,
                                       split=split)
            assert sink.rows == want_rows
            assert dht.gets == want_gets

    @pytest.mark.parametrize("n", SIZES)
    def test_parity_with_residual(self, n):
        rng = random.Random(990 + n)
        table_rows = self._table_for(rng)
        rows = random_rows(rng, n)
        residual = BinaryOp(">", col("a"), lit(0))
        want, _gets = ref_fetch(
            [rows], table_rows, lambda r: r[0] is not None and r[0] > 0)
        for split in (False, True):
            _op, sink, _ = self._run(rows, table_rows, split=split,
                                     residual=residual)
            assert sink.rows == want

    def test_waiting_lists_identical_before_release(self):
        # The state left behind mid-flight: repeats of a key queue
        # behind the first probe in arrival order, one get per key.
        rows = [(1, 3, "x"), (2, 3, "y"), (3, 5, "z"), (4, 3, "w")]
        table_rows = {3: [(3, "p")], 5: []}
        want = {3: [((1, 3, "x"), None), ((2, 3, "y"), None),
                    ((4, 3, "w"), None)],
                5: [((3, 5, "z"), None)]}
        for split in (False, True):
            op, _sink, dht = self._build(table_rows)
            feed(op, rows, split=split)
            assert op._epochs.peek(0)["waiting"] == want
            assert dht.gets == 2  # keys 3 and 5, once each

    def test_dedup_cache_hits_skip_refetch(self):
        table_rows = {7: [(7, "p")]}
        op, sink, dht = self._build(table_rows, dedup=True)
        op.push_batch(RowBatch.from_rows([(1, 7, "x")], SCHEMA))
        dht.release_all()
        assert sink.rows == [(1, 7, "x", 7, "p")]
        # Second batch on the same key: joined straight from the cache,
        # no new get dispatched, every hit in ONE batch.
        op.push_batch(RowBatch.from_rows(
            [(2, 7, "y"), (3, 7, "z")], SCHEMA))
        assert dht.gets == 1
        assert sink.batches == 2
        assert sink.rows == [(1, 7, "x", 7, "p"), (2, 7, "y", 7, "p"),
                             (3, 7, "z", 7, "p")]

    def test_cache_hits_announce_their_pane(self):
        # A paned, deduplicating probe: joins served from the cache
        # land under the pane of the batch that probed for them.
        op, sink, dht = self._build({7: [(7, "p")]}, dedup=True, paned=True)
        op.open_pane(0)
        op.push_batch(RowBatch.from_rows([(1, 7, "x")], SCHEMA))
        dht.release_all()
        op.open_pane(1)
        op.push_batch(RowBatch.from_rows([(2, 7, "y"), (3, 7, "z")],
                                         SCHEMA))
        assert dht.gets == 1
        assert sink.events == [
            ("pane", 0), ("row", (1, 7, "x", 7, "p")),
            ("pane", 1), ("row", (2, 7, "y", 7, "p")),
            ("row", (3, 7, "z", 7, "p")),
        ]

    def test_pane_announcements_replay_parity(self):
        # Paned standing plan: joins released by an async reply are
        # announced under their probe row's pane before they land.
        rng = random.Random(995)
        table_rows = self._table_for(rng)
        rows = random_rows(rng, 10)
        panes = sorted(rng.randint(0, 2) for _ in rows)
        waiting = {}
        for row, pane in zip(rows, panes):
            waiting.setdefault(row[1], []).append((row, pane))
        want = []
        for key, probes in waiting.items():
            announced = None
            for row, pane in probes:
                if pane != announced:
                    want.append(("pane", pane))
                    announced = pane
                want.extend(("row", row + t) for t in table_rows[key])

        for split in (False, True):
            op, sink, dht = self._build(table_rows, paned=True)
            drive_panes(op, rows, panes, split)
            dht.release_all()
            assert sink.events == want

    def test_empty_batch_is_inert(self):
        op, sink, dht = self._build({})
        op.push_batch(RowBatch.from_rows([], SCHEMA))
        assert dht.gets == 0 and sink.rows == []

    def test_sealed_epoch_drops_late_reply(self):
        op, sink, dht = self._build({3: [(3, "p")]})
        op.ctx.epoch = op.ctx.active_epoch = 1
        op.push_batch(RowBatch.from_rows([(1, 3, "x")], SCHEMA))
        op.seal_epoch(1)
        dht.release_all()  # reply lands after the epoch closed
        assert sink.rows == []


# ----------------------------------------------------------------------
# Bloom stage: buffer/fold kernel + batch-granularity release
# ----------------------------------------------------------------------
class TestBloomStageParity:
    def _build(self, paned=False):
        params = {
            "side": "left", "key_exprs": [col("s")], "schema": SCHEMA,
            "capacity": 64, "fp_rate": 0.01, "group": "g",
        }
        if paned:
            params["paned"] = {"every": 1, "window": 3}
        return make("bloom_stage", params, standing=paned)

    @staticmethod
    def _filter_of(values):
        other = BloomFilter.for_capacity(64, 0.01)
        for v in values:
            other.add((v,))  # key tuples, matching the stage's keys
        return other

    @pytest.mark.parametrize("n", SIZES)
    def test_release_parity(self, n):
        rows = random_rows(random.Random(900 + n), n)
        other = self._filter_of(["x", "z"])
        want = [r for r in rows if (r[2],) in other]
        for split in (False, True):
            op, sink = self._build()
            feed(op, rows, split=split)
            op.control({"filters": {"right": other}})
            assert sink.rows == want

    @pytest.mark.parametrize("n", SIZES)
    def test_filter_bits_identical(self, n):
        # The fold must set exactly the bits one ``add`` per row sets
        # -- the filter goes on the wire, so bit identity matters.
        rows = random_rows(random.Random(950 + n), n)
        want = self._filter_of([r[2] for r in rows])
        for split in (False, True):
            op, _sink = self._build()
            feed(op, rows, split=split)
            state = op._epochs.peek(0)
            if n == 0:
                assert state is None  # an untouched epoch costs nothing
            else:
                assert state["filter"]._bits == want._bits

    def test_paned_release_parity(self):
        rng = random.Random(960)
        rows = random_rows(rng, 14)
        panes = sorted(rng.randint(0, 2) for _ in rows)
        other = self._filter_of(["y", ""])
        lo, hi = window_pane_range(2, 1, 3)
        want = [r for p in range(lo, hi)
                for r, rp in zip(rows, panes)
                if rp == p and (r[2],) in other]

        for split in (False, True):
            op, sink = self._build(paned=True)
            drive_panes(op, rows, panes, split)
            op.ctx.epoch = op.ctx.active_epoch = 2
            op._epochs.state(2)  # arm the epoch (flush would do this)
            op.control({"filters": {"right": other}})
            assert sink.rows == want

    def test_missing_opposite_filter_releases_all(self):
        rows = random_rows(random.Random(970), 6)
        op, sink = self._build()
        op.push_batch(RowBatch.from_rows(rows, SCHEMA))
        op.control({"filters": {}})
        assert sink.rows == rows

    def test_release_granularity(self):
        # Every passing row of one release leaves in ONE batch.
        other = self._filter_of(["x"])
        op, sink = self._build()
        op.push_batch(RowBatch.from_rows(
            [(1, 1, "x"), (2, 2, "q"), (3, 3, "x")], SCHEMA))
        op.control({"filters": {"right": other}})
        assert sink.batches == 1
        assert sink.rows == [(1, 1, "x"), (3, 3, "x")]


# ----------------------------------------------------------------------
# Exchange: batched pushes ship the messages per-row bucketing predicts
# ----------------------------------------------------------------------
MAX_BATCH_ROWS = 4


def ref_exchange_messages(rows):
    """Per-row bucketing by routing id ``(s,)``: a bucket ships when it
    reaches the row cap; the flush ships the rest in bucket order."""
    held, shipped = {}, []
    for row in rows:
        rid = (row[2],)
        bucket = held.setdefault(rid, [])
        bucket.append(row)
        if len(bucket) >= MAX_BATCH_ROWS:
            del held[rid]
            shipped.append((rid, bucket))
    shipped.extend(held.items())
    return [
        (storage_key("ns|sink|x", rid),
         "deliver" if len(bucket) == 1 else "deliver_batch", rid, bucket)
        for rid, bucket in shipped
    ]


class TestExchangeBatchParity:
    def _exchange(self, sent, flush_delay=5.0):
        from repro.core.engine import EngineConfig
        from repro.core.exchange import Exchange

        class CaptureDht:
            def route(self, key, payload, upcall=None):
                sent.append((key, payload))

            def set_timer(self, delay, callback, *args):
                return object()

            def cancel_timer(self, timer):
                pass

        class StubPlan:
            def consumers_of(self, op_id):
                return [("sink", 0)]

        class Engine:
            config = EngineConfig(
                flush_delay=flush_delay, max_batch_rows=MAX_BATCH_ROWS,
            )

        class Ctx:
            plan = StubPlan()
            dht = CaptureDht()
            engine = Engine()

            def namespace(self, op_id, port):
                return "ns|{}|{}".format(op_id, port)

            def upcall_name(self, op_id, port):
                return "up|{}|{}".format(op_id, port)

        class Spec:
            op_id = "x1"
            params = {"mode": "rehash",
                      "key": {"kind": "exprs", "exprs": [col("s")],
                              "schema": SCHEMA}}

        return Exchange(Ctx(), Spec())

    @staticmethod
    def _normalize(sent):
        return [
            (key, payload["op"], payload.get("rid"),
             [tuple(r) for r in payload_rows(payload)])
            for key, payload in sent
        ]

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("n", SIZES)
    def test_push_batch_ships_identical_messages(self, uniform, n):
        # Uniform rows ship multi-row messages column-wise; ragged rows
        # (every other row one column longer) keep the row shape.
        rows = random_rows(random.Random(700 + n), n)
        if not uniform:
            rows = [r + ("extra",) if i % 2 else r
                    for i, r in enumerate(rows)]
        want = ref_exchange_messages(rows)
        for split in (False, True):
            sent = []
            exchange = self._exchange(sent)
            feed(exchange, rows, split=split)
            exchange.flush()
            assert self._normalize(sent) == want
            for _key, payload in sent:
                if payload["op"] != "deliver_batch":
                    continue
                shipped = payload_rows(payload)
                ragged = len({len(r) for r in shipped}) > 1
                assert ("rows" in payload) == ragged
                assert ("cols" in payload) == (not ragged)

    def test_columnar_wire_shape_decodes(self):
        rows = [(1, 2, "x"), (3, 4, "y"), (5, 6, "x")]
        sent = []
        exchange = self._exchange(sent)
        exchange.push_batch(RowBatch.from_rows(rows, SCHEMA))
        exchange.flush()
        shapes = {p["op"] for _k, p in sent}
        assert "deliver_batch" in shapes
        for _key, payload in sent:
            if payload["op"] == "deliver_batch":
                assert "cols" in payload and "rows" not in payload
        decoded = [r for _k, p in sent for r in payload_rows(p)]
        assert sorted(decoded) == sorted(rows)

    def test_ragged_rows_ship_row_shape(self):
        rows = [(1, 2, "x"), (3, 4, "x", "extra")]
        sent = []
        exchange = self._exchange(sent)
        exchange.push_batch(RowBatch.from_rows(rows, SCHEMA))
        exchange.flush()
        [(_key, payload)] = sent
        assert payload["op"] == "deliver_batch"
        assert payload["rows"] == rows and "cols" not in payload

    def test_unbatched_exchange_routes_batch_rows_singly(self):
        rows = [(1, 2, "x"), (3, 4, "y")]
        sent = []
        exchange = self._exchange(sent, flush_delay=0.0)
        exchange.push_batch(RowBatch.from_rows(rows, SCHEMA))
        assert [p["op"] for _k, p in sent] == ["deliver", "deliver"]
        assert [p["data"] for _k, p in sent] == rows


# ----------------------------------------------------------------------
# End to end: multi-row exchange messages reach a standing join whole
# ----------------------------------------------------------------------
class TestStandingJoinDelivery:
    EVERY = 10.0

    def test_every_epoch_equals_the_reference_join(self):
        # Co-keyed samples rehash as multi-row messages; every row of
        # every message must reach the owner's join, so each epoch
        # equals the join of the window's samples.
        from repro.core.network import PierNetwork

        net = PierNetwork(nodes=6, seed=11)
        for table in ("lt", "rt"):
            net.create_stream_table(table, [("k", "INT"), ("v", "INT")],
                                    window=2 * self.EVERY)
        samples = []

        def ticker(address, table, key, base):
            step = [0]

            def tick():
                step[0] += 1
                for j in range(3):
                    row = (key, base + 10 * step[0] + j)
                    net.node(address).engine.stream_append(table, row)
                    samples.append((table, net.now, row))
                net.node(address).engine.set_timer(2.0, tick)

            return tick

        for i, address in enumerate(net.addresses()):
            engine = net.node(address).engine
            engine.set_timer(0.1, ticker(address, "lt", i % 3, 1000 * i))
            engine.set_timer(0.1, ticker(address, "rt", i % 2, 50000 + i))
        net.advance(self.EVERY)
        before = dict(net.message_counters())
        results = []
        handle = net.submit_sql(
            "SELECT l.k AS k, l.v AS lv, r.v AS rv FROM lt l, rt r "
            "WHERE l.k = r.k EVERY 10 SECONDS WINDOW 10 SECONDS "
            "LIFETIME 30 SECONDS", on_epoch=results.append)
        net.advance(30.0 + handle.plan.deadline + 5.0)
        after = net.message_counters()

        def delta(key):
            return after.get(key, 0) - before.get(key, 0)

        assert delta("exchange_rows") > delta("exchange_messages")
        assert len(results) >= 2

        def window(table, t_k):
            return [row for name, ts, row in samples
                    if name == table and t_k - self.EVERY < ts <= t_k]

        for result in results:
            want = sorted(
                (lk, lv, rv) for lk, lv in window("lt", result.t0)
                for rk, rv in window("rt", result.t0) if lk == rk)
            assert want and sorted(result.rows) == want, result.epoch
