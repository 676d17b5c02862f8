"""The benchmark's three workloads and their plain-Python references.

Every workload drives the public :class:`~repro.core.network.PierNetwork`
facade with the default ``EngineConfig`` and is open-loop in sim time:
appends, gets and searches are scheduled on the clock at fixed
instants, whatever the system is doing. Inputs come only from the seed.

A workload has three phases. ``setup()`` builds the testbed and
returns the sim time its warm-up lasts until, ``begin()`` starts the
measured phase and returns the sim time it ends at (the caller advances
the clock in both), and ``answers()`` checks
every answer against a reference computed here in plain Python from the
benchmark's own log of what it put in.
"""

import bisect
import itertools
import random

from repro.apps.filesharing import VOCABULARY, FileSharingApp
from repro.core.network import PierNetwork

# The file-sharing app's vocabulary is the popular head of a longer
# keyword list, so gets and postings spread over many owners.
TERMS = list(VOCABULARY) + [
    "kw{:04d}".format(i) for i in range(len(VOCABULARY), 1000)]

# Epoch and pane edges sit on whole seconds. Every stream append is at
# least this far from one, so the reference needs no convention for
# rows on a window edge.
EDGE_MARGIN = 0.02


class Zipf:
    """Ranks 0..n-1 with probability proportional to 1/(rank+1)^s."""

    def __init__(self, n, exponent, rng):
        weights = list(itertools.accumulate(
            1.0 / (rank + 1) ** exponent for rank in range(n)))
        self._cdf = [w / weights[-1] for w in weights]
        self._rng = rng

    def sample(self):
        return min(bisect.bisect_left(self._cdf, self._rng.random()),
                   len(self._cdf) - 1)


class Query:
    """One standing query: its SQL text and what it means.

    ``where`` is a row predicate, ``group`` the grouping column
    indexes, ``aggs`` a list of ``("SUM", col)`` / ``("COUNT", None)``.
    ``top`` is the LIMIT of a query ordered by its first aggregate,
    descending.
    """

    def __init__(self, sql, where, group, aggs, every, window, top=None):
        self.sql = sql
        self.where = where
        self.group = group
        self.aggs = aggs
        self.every = every
        self.window = window
        self.top = top

    def reference(self, rows):
        """The answer over ``rows`` (already cut to the window)."""
        groups = {}
        for row in rows:
            if self.where is not None and not self.where(row):
                continue
            key = tuple(row[i] for i in self.group)
            acc = groups.get(key)
            if acc is None:
                acc = groups[key] = [0] * len(self.aggs)
            for i, (func, col) in enumerate(self.aggs):
                acc[i] += row[col] if func == "SUM" else 1
        return sorted(key + tuple(acc) for key, acc in groups.items())

    def matches(self, got, want):
        """Does the engine's epoch answer ``got`` equal ``want``?"""
        got = sorted(tuple(r) for r in got)
        if self.top is None:
            return got == want
        # Ties at the cut may be broken either way: every returned group
        # must carry its true value, and the returned values must be
        # exactly the top values.
        width = len(self.group)
        truth = {row[:width]: row for row in want}
        if any(truth.get(row[:width]) != row for row in got):
            return False
        best = sorted((row[width] for row in want), reverse=True)
        return (sorted((row[width] for row in got), reverse=True)
                == best[:self.top])


class Workload:
    """What every workload shares: the query site and its result probe.

    The probe sits in front of the site coordinator's ``on_result``. It
    counts result rows, and rows that reach an epoch the coordinator
    has already closed (``late``). For continuous queries it times
    each row from its epoch end ``t0 + k * every`` to its arrival.
    """

    def __init__(self, seed):
        self.seed = seed
        self.samples = []  # sim seconds, one per timed answer row or get
        self.rows_received = 0
        self.late_rows = 0

    def _install_probe(self):
        net = self.net
        self.site = net.any_address()
        coordinator = net.node(self.site).coordinator
        on_result = coordinator.on_result
        clock = net.clock

        def probe(payload):
            handle = coordinator.active.get(payload["qid"])
            if handle is not None and not handle.finished:
                n = len(payload["rows"])
                epoch = payload["epoch"]
                self.rows_received += n
                if epoch in handle.results:
                    self.late_rows += n
                elif handle.plan.mode == "continuous" and epoch >= 1:
                    due = handle.t0 + epoch * handle.plan.every
                    self.samples.extend([clock.now - due] * n)
            on_result(payload)

        coordinator.on_result = probe

    def counters(self):
        """Whole-network traffic so far, and bytes into the query site."""
        c = self.net.message_counters()
        return {
            "messages_sent": c.get("messages_sent", 0),
            "bytes_sent": c.get("bytes_sent", 0),
            "cross_region_bytes": c.get("cross_region_bytes", 0),
            "messages_delivered": c.get("messages_delivered", 0),
            "exchange_rows": c.get("exchange_rows", 0),
            "exchange_messages": c.get("exchange_messages", 0),
            "route_messages": c.get("messages_kind_route", 0),
            "site_inbound_bytes": self.net.inbound_bytes(self.site),
        }


class StreamWorkload(Workload):
    """What the two stream workloads share.

    Subclasses set the topology, the table, the append rate, the row
    generator and the query set. Appends start one second after boot
    and stop at the end of the last epoch's window.
    """

    table = None
    columns = None
    period = None  # seconds between one node's appends
    warmup = 20.0  # sim seconds of appends before the queries start
    lifetime = None
    every = 5
    slack = 5.0  # sim seconds after the last epoch's close

    def __init__(self, seed):
        super().__init__(seed)
        self.appends = []  # (ts, row)

    def make_net(self):
        raise NotImplementedError

    def make_generator(self, rng):
        """A function of no arguments returning this node's next row."""
        raise NotImplementedError

    def make_queries(self):
        raise NotImplementedError

    def setup(self):
        self.net = net = self.make_net()
        self.queries = self.make_queries()
        horizon = max(q.window for q in self.queries) + 10.0
        net.create_stream_table(self.table, self.columns, window=horizon)
        start = float(int(net.now)) + 1.0
        self.t0 = start + self.warmup
        self.t_end = self.t0 + self.lifetime
        addresses = net.addresses()
        for i, address in enumerate(addresses):
            # Whole seconds are multiples of the period, so an offset in
            # [EDGE_MARGIN, period - EDGE_MARGIN] keeps every append off
            # the edges.
            offset = EDGE_MARGIN + (self.period - 2 * EDGE_MARGIN) * (
                (i + 0.5) / len(addresses))
            rng = random.Random("{}/{}/{}".format(self.seed, self.name, i))
            net.clock.schedule_at(start + offset, self._append,
                                  net.node(address).engine,
                                  self.make_generator(rng), start + offset, 0)
        return self.t0

    def _append(self, engine, generator, base, n):
        clock = self.net.clock
        if clock.now > self.t_end:
            return
        row = generator()
        engine.stream_append(self.table, row)
        self.appends.append((clock.now, row))
        clock.schedule_at(base + (n + 1) * self.period, self._append,
                          engine, generator, base, n + 1)

    def begin(self):
        self._install_probe()
        self.before = self.counters()
        self.handles = [self.net.submit_sql(q.sql, node=self.site)
                        for q in self.queries]
        deadline = max(h.plan.deadline for h in self.handles)
        return self.t_end + deadline + self.slack

    def answers(self):
        """[(answer id, ok, answer)] for every (query, epoch)."""
        appends = sorted(self.appends, key=lambda a: a[0])
        times = [ts for ts, _row in appends]
        out = []
        for i, (query, handle) in enumerate(zip(self.queries, self.handles)):
            for k in range(1, int(self.lifetime / query.every + 1e-9) + 1):
                t_k = handle.t0 + k * query.every
                lo = bisect.bisect_right(times, t_k - query.window)
                hi = bisect.bisect_right(times, t_k)
                want = query.reference([row for _ts, row in appends[lo:hi]])
                result = handle.results.get(k)
                got = None if result is None else sorted(result.rows)
                ok = got is not None and query.matches(got, want)
                out.append(("q{}/e{}".format(i, k), ok, got))
        return out


class MonitorFleet(StreamWorkload):
    """PIER's headline use: a fleet of standing queries over flow samples.

    Every node samples (host, port, kbps) four times a second with Zipf
    hosts and ports. One site submits near-duplicates that share one
    spine, different-predicate GROUP BYs that share one prefix stage,
    and paned top-k queries (WINDOW > EVERY).
    """

    name = "monitor_fleet"
    nodes = 24
    table = "flows"
    columns = [("host", "INT"), ("port", "INT"), ("kbps", "INT")]
    period = 0.25
    lifetime = 15.0
    per_kind = 10  # queries of each of the three kinds

    def make_net(self):
        return PierNetwork(nodes=self.nodes, seed=self.seed)

    def make_generator(self, rng):
        hosts = Zipf(64, 1.0, rng)
        ports = Zipf(16, 1.0, rng)
        return lambda: (hosts.sample(), ports.sample(), rng.randint(1, 1000))

    def make_queries(self):
        tail = " EVERY {} SECONDS WINDOW {{}} SECONDS LIFETIME {} SECONDS".format(
            self.every, int(self.lifetime))
        tumbling = tail.format(self.every)
        paned = tail.format(3 * self.every)
        # Surface variants of one query: they canonicalize to one spine.
        near_duplicates = (
            "SELECT port, SUM(kbps) AS total, COUNT(*) AS n FROM flows "
            "WHERE kbps > 100 GROUP BY port",
            "SELECT f.port, SUM(f.kbps) AS t, COUNT(*) AS c FROM flows f "
            "WHERE 100 < f.kbps GROUP BY f.port",
            "SELECT port, SUM(kbps) AS s, COUNT(*) AS cnt FROM flows "
            "WHERE kbps > 100 GROUP BY port",
        )
        out = []
        for i in range(self.per_kind):
            out.append(Query(
                near_duplicates[i % len(near_duplicates)] + tumbling,
                lambda r: r[2] > 100, (1,), [("SUM", 2), ("COUNT", None)],
                self.every, self.every))
        for i in range(self.per_kind):
            threshold = 50 * (i + 1)
            out.append(Query(
                "SELECT host, SUM(kbps) AS total FROM flows "
                "WHERE kbps > {} GROUP BY host".format(threshold) + tumbling,
                lambda r, t=threshold: r[2] > t, (0,), [("SUM", 2)],
                self.every, self.every))
        for i in range(self.per_kind):
            port = i % 8
            out.append(Query(
                "SELECT host, SUM(kbps) AS total FROM flows WHERE port = {} "
                "GROUP BY host ORDER BY total DESC LIMIT 5".format(port)
                + paned,
                lambda r, p=port: r[1] == p, (0,), [("SUM", 2)],
                self.every, 3 * self.every, top=5))
        return out


class SkewedIngest(StreamWorkload):
    """The write-heavy workload: many rows, few queries, skewed keys.

    Four regions of eight nodes each append 12 rows/s with Zipf(1.2)
    keys over 500 groups, under a tumbling GROUP BY, a paned top-10
    and a filtered SUM.
    """

    name = "skewed_ingest"
    regions = ("us", "eu", "ap", "sa")
    per_region = 8
    table = "events"
    columns = [("g", "INT"), ("v", "INT")]
    period = 1.0 / 12
    lifetime = 10.0

    def make_net(self):
        return PierNetwork(seed=self.seed, regions={
            "{}{}".format(region, i): region
            for region in self.regions for i in range(self.per_region)
        })

    def make_generator(self, rng):
        keys = Zipf(500, 1.2, rng)
        return lambda: (keys.sample(), rng.randint(1, 1000))

    def make_queries(self):
        tail = " EVERY {} SECONDS WINDOW {{}} SECONDS LIFETIME {} SECONDS".format(
            self.every, int(self.lifetime))
        return [
            Query("SELECT g, SUM(v) AS s, COUNT(*) AS n FROM events GROUP BY g"
                  + tail.format(self.every),
                  None, (0,), [("SUM", 1), ("COUNT", None)],
                  self.every, self.every),
            Query("SELECT g, SUM(v) AS s FROM events GROUP BY g "
                  "ORDER BY s DESC LIMIT 10" + tail.format(4 * self.every),
                  None, (0,), [("SUM", 1)], self.every, 4 * self.every, top=10),
            Query("SELECT SUM(v) AS s FROM events WHERE v > 500"
                  + tail.format(self.every),
                  lambda r: r[1] > 500, (), [("SUM", 1)],
                  self.every, self.every),
        ]


class KeywordSearch(Workload):
    """Routing-heavy: DHT gets over the file-sharing inverted index.

    A Zipf-keyword corpus is published into the demo file-sharing app's
    inverted index, a DHT table partitioned on the term, two terms per
    file and four files per node. Then further publishes interleave
    with an open-loop stream of single-term gets, half from the query
    site and half from random nodes, and a few two-term AND searches
    from the query site run through the distributed join.
    """

    name = "keyword_search"
    nodes = 128
    files_per_node = 4
    gets_per_second = 40.0
    publishes_per_second = 10.0
    duration = 60.0
    searches = 4
    # A posting published this long before a read must be visible to
    # it: longer than any route plus reply on this topology.
    settle = 3.0

    def __init__(self, seed):
        super().__init__(seed)
        self.gets = []  # [due, term, file ids or None]
        self.search_log = []  # (due, terms, handle)
        self.published = []  # (ts, term, file_id)

    @property
    def handles(self):
        return [handle for _due, _terms, handle in self.search_log]

    def setup(self):
        # One fixed placement of the hosts for every seed: where the
        # query site sits would otherwise set half the get latencies.
        place = random.Random("{}/placement".format(self.name))
        addresses = ["node{}".format(i) for i in range(self.nodes)]
        self.net = net = PierNetwork(
            seed=self.seed, addresses=addresses,
            placements={a: (place.random(), place.random()) for a in addresses})
        self.app = FileSharingApp(net)
        # The corpus is the benchmark's own: each file's terms are
        # published in sorted order, so the run replays exactly under
        # any PYTHONHASHSEED.
        rng = random.Random("{}/{}/corpus".format(self.seed, self.name))
        terms = Zipf(len(TERMS), 0.8, rng)
        for address in net.addresses():
            for i in range(self.files_per_node):
                picked = set()
                while len(picked) < 2:
                    picked.add(TERMS[terms.sample()])
                self._publish(address, sorted(picked),
                              "{}/file{}".format(address, i))
        return net.now + 10.0

    def begin(self):
        self._install_probe()
        self.before = self.counters()
        rng = random.Random("{}/{}".format(self.seed, self.name))
        terms = Zipf(len(TERMS), 0.5, rng)
        addresses = self.net.addresses()
        clock = self.net.clock
        start = clock.now + 0.5
        for n in range(int(self.duration * self.gets_per_second)):
            due = start + n / self.gets_per_second
            # Every other get comes from the query site, so the bytes
            # into it average over many replies; the rest come from
            # random nodes.
            source = self.site if n % 2 == 0 else rng.choice(addresses)
            clock.schedule_at(due, self._get, source, TERMS[terms.sample()],
                              due)
        for n in range(int(self.duration * self.publishes_per_second)):
            due = start + (n + 0.5) / self.publishes_per_second
            owner = rng.choice(addresses)
            picked = sorted({TERMS[terms.sample()] for _ in range(2)})
            clock.schedule_at(due, self._publish, owner, picked,
                              "{}/new{}".format(owner, n))
        for n in range(self.searches):
            due = start + (n + 1) * self.duration / (self.searches + 1)
            clock.schedule_at(due, self._search,
                              (TERMS[n], TERMS[n + 1]), due)
        return start + self.duration + 15.0

    def _get(self, address, term, due):
        entry = [due, term, None]
        self.gets.append(entry)

        def done(values):
            entry[2] = sorted({row[1] for _iid, row in values})
            self.samples.append(self.net.now - due)

        self.net.node(address).chord.get(self.app.table, term, done)

    def _publish(self, owner, terms, file_id):
        for term in terms:
            self.net.publish(owner, self.app.table, (term, file_id, owner))
            self.published.append((self.net.now, term, file_id))

    def _search(self, terms, due):
        sql = (
            "SELECT i1.file_id AS file_id, i1.owner AS owner "
            "FROM {t} AS i1, {t} AS i2 WHERE i1.file_id = i2.file_id "
            "AND i1.term = '{a}' AND i2.term = '{b}'".format(
                t=self.app.table, a=terms[0], b=terms[1]))
        handle = self.net.submit_sql(sql, node=self.site)
        self.search_log.append((due, terms, handle))

    def answers(self):
        """[(answer id, ok, answer)]: each get, then each search.

        An answer must hold every posting published ``settle`` seconds
        before it was due, and nothing that was never published.
        """
        by_term = {}  # term -> [(ts, file_id)] in publish order
        for ts, term, file_id in self.published:
            by_term.setdefault(term, []).append((ts, file_id))

        def postings(term, until=float("inf")):
            return {f for ts, f in by_term.get(term, ()) if ts <= until}

        out = []
        for n, (due, term, got) in enumerate(self.gets):
            ok = (got is not None
                  and postings(term, due - self.settle).issubset(got)
                  and postings(term).issuperset(got))
            out.append(("get{}".format(n), ok, got))
        for n, (due, (a, b), handle) in enumerate(self.search_log):
            early = due - self.settle
            must = postings(a, early) & postings(b, early)
            may = postings(a) & postings(b)
            result = handle.result(0)
            got = None if result is None else sorted({r[0] for r in result.rows})
            ok = got is not None and must.issubset(got) and set(got) <= may
            out.append(("search{}".format(n), ok, got))
        return out


WORKLOADS = {w.name: w for w in (MonitorFleet, SkewedIngest, KeywordSearch)}
