"""Scan: emit one node's fragment of a relation.

Dissemination turns one logical scan into N local scans -- every node
that receives the plan scans what *it* has:

* ``local`` tables: the node's private rows,
* ``dht`` tables: the items this node stores for the table's namespace
  (PIER's ``lscan`` access path),
* ``stream`` tables: the rows in this epoch's window
  ``(t0 - window, t0]``.

Under a disposable per-epoch execution the scan runs once, at start.
Under a :class:`~repro.core.dataflow.StandingExecution` it *subscribes*
instead of re-scanning:

* stream tables: an append hook on the fragment feeds a pending buffer;
  each ``open_epoch`` emits the buffered rows falling in the new
  epoch's window and prunes what can never appear in a later one, so a
  row is touched O(1) times instead of once per epoch it survives in
  the retention deque;
* dht tables: a TTL'd ``newData`` subscription (renewed every epoch)
  tracks arriving items by reference; each epoch emits the tracked
  items still live -- identical to a fresh ``lscan`` because renewals
  and re-puts update the shared :class:`StoredItem` in place -- and
  prunes the dead;
* local tables: rows never age, every epoch reads all of them, so the
  scan simply re-reads the fragment (there is no delta to exploit).

When the planner marked the plan *paned* (``WINDOW > EVERY`` above a
pane-aware aggregate), the standing stream scan goes one step further:
instead of re-emitting the window overlap every epoch, it buckets its
delta into panes of width ``plan.pane``, announces each bucket with an
``open_pane`` marker, and emits every row exactly once. The pane-aware
operator downstream keeps the pane partials and assembles each epoch's
window from them, so nothing in the overlap is ever re-scanned *or*
re-aggregated.

Params: ``table`` (catalog name). The optional ``alias`` only matters
at planning time (column qualification); at runtime rows are positional.
``paned`` carries the pane geometry (``{"width", "every", "window"}``,
width in seconds, the others in panes) and switches on the pane-emission
mode described above.
"""

import zlib

from repro.core.dataflow import Operator
from repro.core.operators import register_operator
from repro.db.window import pane_index, window_pane_range


def _sample_keep(row, threshold):
    """Deterministic Bernoulli sampling by row content.

    Admission-degraded plans (``params["sample"]``) keep a row iff its
    content hash falls under the rate threshold. CRC32 of the repr is
    stable across nodes and processes (unlike ``hash()`` under hash
    randomization), so every replica of a row makes the same keep/drop
    decision and joins stay consistent across fragments.
    """
    return zlib.crc32(repr(row).encode("utf-8")) % 1000000 < threshold


@register_operator("scan")
class Scan(Operator):
    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        self._standing = bool(getattr(ctx, "standing", False))
        self._paned = bool(spec.params.get("paned")) and self._standing
        # Admission-control sampling: emit only a deterministic
        # hash-sampled fraction of scanned rows. Every row is still
        # *examined* (and charged to rows_scanned) -- sampling sheds
        # downstream exchange and fold load, not scan effort -- which
        # is exactly how the planner's cost bounder models it.
        sample = spec.params.get("sample")
        self._sample_threshold = (
            int(float(sample) * 1000000) if sample is not None else None
        )
        # Prefix-fed: a shared scan stage feeds this execution via
        # StandingExecution.deliver_scan; this scan goes passive (no
        # subscription, no per-epoch emission) and only relays injected
        # waves. Examinations are charged once at the stage.
        self._prefix_fed = (
            self._standing and bool(getattr(ctx, "prefix_fed", False))
        )
        self._table_def = None
        self._pending = []  # stream mode: [(ts, row)] not yet aged out
        self._tracked = {}  # dht mode: item key -> StoredItem (by ref)
        self._sub_token = None
        self._append_token = None
        self._share_token = None  # SharedScanRegistry subscription
        if self._paned:
            geometry = spec.params["paned"]  # set by the planner
            self._pane = geometry["width"]
            self._panes_per_every = geometry["every"]
            self._panes_per_window = geometry["window"]
            # Pane indices are aligned to the query's submission time,
            # recovered from the epoch the execution joined at.
            self._pane_origin = ctx.t0 - ctx.epoch * ctx.plan.every

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------
    def _count(self, n):
        self.ctx.engine.note_rows_scanned(n)

    def _emit_wave(self, rows):
        """Emit one scan wave (sampled, when the plan samples) as one
        batch; ``rows`` is taken over."""
        if self._sample_threshold is not None and rows:
            threshold = self._sample_threshold
            rows = [r for r in rows if _sample_keep(r, threshold)]
        self.emit_rows(rows, self._table_def.schema)

    def _window(self):
        window = self.spec.params.get("window") or self.ctx.plan.window
        if window is None:
            window = self._table_def.window
        return window

    def start(self):
        table_name = self.spec.params["table"]
        self._table_def = self.ctx.engine.catalog.lookup(table_name)
        if self._prefix_fed:
            return  # passive: the prefix stage injects our rows
        if self._standing:
            self._start_standing(table_name)
            return
        if self._table_def.source == "dht":
            items = self.ctx.dht.lscan(table_name)
            self._count(len(items))
            self._emit_wave([tuple(item.value) for item in items])
            return
        fragment = self.ctx.fragment(table_name)
        if self._table_def.source == "stream":
            # The whole retention deque is examined to select the window.
            self._count(len(fragment))
            rows = fragment.scan_window(self.ctx.t0 - self._window(), self.ctx.t0)
        else:
            rows = fragment.scan()
            self._count(len(rows))
        self._emit_wave(list(rows))

    # ------------------------------------------------------------------
    # Standing (subscription) mode
    # ------------------------------------------------------------------
    def _start_standing(self, table_name):
        source = self._table_def.source
        if source == "stream":
            fragment = self.ctx.fragment(table_name)
            registry = getattr(self.ctx.engine, "shared_scans", None)
            share_key = self.spec.params.get("share_scan")
            config = getattr(self.ctx.engine, "config", None)
            if not getattr(config, "shared_dataflows", True):
                share_key = None  # ablation: fully private plumbing
            if share_key and registry is not None:
                # Shared host: ONE append hook per table per node fans
                # rows to every subscribed standing scan, and the host
                # charges the seed/append examinations once however
                # many queries listen. Per-epoch window examinations
                # below still count per scan. The host hands over the
                # retained history as one batch to seed the buffer.
                self._share_token = registry.acquire(
                    share_key, fragment, self._on_shared_append
                )
                self._pending = registry.seed_rows(share_key)
            else:
                # Seed with history already retained, then hear about
                # each future append exactly once.
                self._pending = fragment.items()
                self._count(len(self._pending))
                self._append_token = fragment.on_append(self._on_append)
            if self._paned:
                self._emit_paned_epoch(self.ctx.epoch)
            else:
                self._emit_stream_epoch(self.ctx.t0)
        elif source == "dht":
            for item in self.ctx.dht.lscan(table_name):
                self._tracked[item.key()] = item
            self._sub_token = self.ctx.dht.new_data(
                table_name, self._on_new_item, ttl=self._sub_ttl()
            )
            self._emit_dht_epoch()
        else:
            rows = self.ctx.fragment(table_name).scan()
            self._count(len(rows))
            self._emit_wave(list(rows))

    def _sub_ttl(self):
        # Outlive one missed boundary, not a dead query: the next
        # advance renews; a crashed execution lets it age out.
        return 2.0 * (self.ctx.plan.every or 30.0)

    def _on_append(self, timestamp, row):
        self._pending.append((timestamp, row))
        self._count(1)

    def _on_shared_append(self, timestamp, row):
        # The shared host already charged the examination.
        self._pending.append((timestamp, row))

    def _on_new_item(self, item):
        self._tracked[item.key()] = item
        self._count(1)

    def open_epoch(self, k, t_k):
        """Emit epoch ``k``'s delta (subscription mode only)."""
        if not self._standing or self._prefix_fed:
            return
        source = self._table_def.source
        if source == "stream":
            if self._paned:
                self._emit_paned_epoch(k)
            else:
                self._emit_stream_epoch(t_k)
        elif source == "dht":
            if self._sub_token is not None:
                table = self.spec.params["table"]
                if not self.ctx.dht.renew_new_data(
                    table, self._sub_token, self._sub_ttl()
                ):
                    # The subscription aged out (e.g. this node crashed
                    # and recovered): re-seed from the store, exactly
                    # like a fresh adoption.
                    self._tracked = {
                        i.key(): i for i in self.ctx.dht.lscan(table)
                    }
                    self._sub_token = self.ctx.dht.new_data(
                        table, self._on_new_item, ttl=self._sub_ttl()
                    )
            self._emit_dht_epoch()
        else:
            rows = self.ctx.fragment(self.spec.params["table"]).scan()
            self._count(len(rows))
            self._emit_wave(list(rows))

    def _emit_stream_epoch(self, t_k):
        window = self._window()
        lo = t_k - window
        every = self.ctx.plan.every or window
        # Rows at or before the *next* window's low edge can never be
        # scanned again; keep the overlap (window > every) for re-emission.
        keep_after = t_k + every - window
        kept, out = [], []
        for ts, row in self._pending:
            if lo < ts <= t_k:
                out.append(row)
            if ts > keep_after:
                kept.append((ts, row))
        self._count(len(self._pending))
        self._pending = kept
        self._emit_wave(out)

    def _emit_paned_epoch(self, k):
        """Bucket the delta by pane and emit each row exactly once.

        Panes up to (but excluding) ``k * panes_per_every`` close with
        epoch ``k``'s window; rows older than the window (panes below
        ``lo``) can never be scanned again and are dropped. A row can
        land in an already-emitted pane that is *still inside the
        window* -- an append stamped exactly on the previous boundary
        whose event fired just after that boundary's emission wave --
        and is emitted into its true pane now: the pane's partials stay
        live downstream for every window that still covers it, exactly
        as the from-scratch path would keep re-scanning the row. Rows
        for still-open panes stay pending for the next epoch.
        """
        lo, hi = window_pane_range(
            k, self._panes_per_every, self._panes_per_window
        )
        kept, buckets = [], {}
        examined = 0
        for ts, row in self._pending:
            p = pane_index(ts, self._pane_origin, self._pane)
            if p >= hi:
                kept.append((ts, row))
                continue
            examined += 1
            if p >= lo:
                buckets.setdefault(p, []).append(row)
        self._count(examined)
        self._pending = kept
        for p in sorted(buckets):
            self.open_pane(p)
            self._emit_wave(buckets[p])

    def inject_rows(self, rows, pane=None):
        """Relay one wave from a shared prefix stage (prefix-fed mode).

        The caller (``StandingExecution.deliver_scan``) has already
        scoped the epoch; rows were examined and charged once at the
        stage, so no ``_count`` here. The pane marker is re-announced
        first so pane-aware consumers bucket the wave correctly.
        """
        if pane is not None:
            self.announce_pane(pane)
        self._emit_wave(list(rows))

    def _emit_dht_epoch(self):
        now = self.ctx.clock.now
        dead, out = [], []
        for key, item in self._tracked.items():
            if item.expires_at > now:
                out.append(tuple(item.value))
            else:
                dead.append(key)
        self._count(len(self._tracked))
        for key in dead:
            del self._tracked[key]
        self._emit_wave(out)

    def teardown(self):
        if self._share_token is not None:
            self.ctx.engine.shared_scans.release(self._share_token)
            self._share_token = None
        if self._append_token is not None:
            fragment = self.ctx.fragment(self.spec.params["table"])
            fragment.remove_append_hook(self._append_token)
            self._append_token = None
        if self._sub_token is not None:
            self.ctx.dht.remove_new_data(
                self.spec.params["table"], self._sub_token
            )
            self._sub_token = None
        self._pending = []
        self._tracked = {}
