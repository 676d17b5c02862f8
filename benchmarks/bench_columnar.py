"""Ext-J: the columnar wire shape on a standing stream join.

Operators receive and pass rows only as
:class:`~repro.core.batch.RowBatch` units, and multi-row exchange
messages whose rows share one arity ship per-column value lists
instead of row tuples (ragged rows keep the row shape). This bench
runs a standing stream join on a small simulated network -- raw rows
rehash on the join key every epoch, so a sender's co-keyed samples
ship as multi-row exchange messages -- checks every epoch's answer
against a join computed directly from the appended samples, and gates
the exchange traffic (bytes, messages, rows) exactly.

Recorded ablation (retired). Until the row-at-a-time operator path and
the engine-wide switch selecting it were deleted, this bench compared
both paths. The last smoke-scale numbers (Python 3.11.7, 2-core Xeon):

* operator throughput, select -> groupby_partial spine over 60,000
  rows in 512-row batches: 563k rows/s row-at-a-time vs 1.73M rows/s
  in RowBatch units, a 3.1x median speedup over 8 runs (range
  1.7x-4.2x), with identical aggregate states;
* wire: 47,175 exchange bytes with the row shape vs 44,151 with the
  columnar shape (1.068x fewer), both legs 129 messages carrying 1,014
  rows, every epoch's answer identical.

The columnar leg's counts are the gated baseline below.

Run standalone with ``python benchmarks/bench_columnar.py``
(``--smoke`` runs the same single configuration; the flag is kept so
every bench shares one CI invocation).
"""

import sys

NODES = 8
EVERY = 10.0
WINDOW = 10.0
LIFETIME = 40.0
SAMPLE_PERIOD = 2.0
SAMPLES_PER_TICK = 3
KEY_DOMAIN = 8
SEED = 11

SQL = (
    "SELECT l.k AS k, l.v AS lv, r.v AS rv FROM lt l, rt r "
    "WHERE l.k = r.k "
    "EVERY {} SECONDS WINDOW {} SECONDS LIFETIME {} SECONDS".format(
        int(EVERY), int(WINDOW), int(LIFETIME)
    )
)


def _build_net(seed, nodes, samples):
    from repro.core.network import PierConfig, PierNetwork

    net = PierNetwork(nodes=nodes, seed=seed, config=PierConfig())
    net.create_stream_table("lt", [("k", "INT"), ("v", "INT")],
                            window=2 * WINDOW)
    net.create_stream_table("rt", [("k", "INT"), ("v", "INT")],
                            window=2 * WINDOW)

    # Each node samples a handful of keys several rows at a time, like
    # a host reporting a few attributes per period: a sender's rows
    # cluster on few join keys, so the rehash exchange ships multi-row
    # co-keyed batches -- the shape the columnar wire encodes.
    def make_ticker(address, table, keys, base):
        step = [0]

        def tick():
            engine = net.node(address).engine
            step[0] += 1
            for j in range(SAMPLES_PER_TICK):
                row = (keys[(step[0] + j) % len(keys)], base + step[0] + j)
                engine.stream_append(table, row)
                samples.append((table, net.now, row))
            engine.set_timer(SAMPLE_PERIOD, tick)

        return tick

    rng = net.rng.fork("samples")
    for i, address in enumerate(net.addresses()):
        keys = [rng.randrange(KEY_DOMAIN) for _ in range(2)]
        tick = make_ticker(address, "lt", keys, 100 * i)
        net.node(address).engine.set_timer(0.1, tick)
        if i % 2 == 0:
            rkeys = [rng.randrange(KEY_DOMAIN) for _ in range(2)]
            rtick = make_ticker(address, "rt", rkeys, 10_000 + 100 * i)
            net.node(address).engine.set_timer(0.1, rtick)
    return net


def reference_join(samples, t_k):
    """The epoch closing at ``t_k``: every (l, r) pair of samples in
    the window ``(t_k - WINDOW, t_k]`` with equal keys."""
    def window(table):
        return [row for name, ts, row in samples
                if name == table and t_k - WINDOW < ts <= t_k]

    return sorted((lk, lv, rv) for lk, lv in window("lt")
                  for rk, rv in window("rt") if lk == rk)


def run_wire(seed, nodes):
    samples = []
    net = _build_net(seed, nodes, samples)
    net.advance(WINDOW)
    before = dict(net.message_counters())
    results = []
    handle = net.submit_sql(SQL, node=net.any_address(),
                            on_epoch=results.append)
    assert handle.plan.standing
    net.advance(LIFETIME + handle.plan.deadline + 5.0)
    after = net.message_counters()
    epochs = {r.epoch: sorted(r.rows) for r in results}
    assert len(epochs) >= 3, "standing query produced too few epochs"
    for r in results:
        want = reference_join(samples, r.t0)
        assert epochs[r.epoch] == want, (
            "epoch {}: join answer {!r} != reference {!r}".format(
                r.epoch, epochs[r.epoch], want)
        )

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    return {
        "epochs": epochs,
        "exchange_bytes": delta("exchange_bytes"),
        "exchange_messages": delta("exchange_messages"),
        "exchange_rows": delta("exchange_rows"),
        "exchange_batches": delta("exchange_batches"),
        "bytes_per_epoch": delta("exchange_bytes") / max(1, len(epochs)),
    }


def exhibit(leg):
    from benchmarks._harness import fmt_table

    text = (
        "Ext-J: the columnar wire shape on a standing stream join\n"
        "({}-node network, key domain {}, epoch {}s, lifetime {}s)\n\n"
        .format(NODES, KEY_DOMAIN, int(EVERY), int(LIFETIME))
    )
    text += fmt_table(
        ["epochs", "exch bytes", "bytes/epoch", "exch msgs", "exch rows"],
        [(len(leg["epochs"]), leg["exchange_bytes"],
          round(leg["bytes_per_epoch"], 1), leg["exchange_messages"],
          leg["exchange_rows"])],
    )
    text += "\n\nevery epoch's join answer equals the reference join\n"
    return text


def test_columnar(benchmark):
    from benchmarks._harness import report, run_once

    leg = run_once(benchmark, lambda: run_wire(SEED, NODES))
    report("columnar", exhibit(leg))
    benchmark.extra_info["exchange_bytes"] = leg["exchange_bytes"]


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="quick CI pass (the same single configuration)",
    )
    args = parser.parse_args(argv)
    leg = run_wire(SEED, NODES)
    print(exhibit(leg))
    from benchmarks._harness import write_metrics

    write_metrics("columnar", {
        "exchange_bytes": leg["exchange_bytes"],
        "exchange_messages": leg["exchange_messages"],
        "exchange_rows": leg["exchange_rows"],
    }, scale="smoke" if args.smoke else "full")
    print("ok: {:,} exchange bytes in {} messages carrying {:,} rows "
          "(answers equal the reference join)".format(
              leg["exchange_bytes"], leg["exchange_messages"],
              leg["exchange_rows"]))
    return 0


if __name__ == "__main__":
    import pathlib

    # Run as a script, ``benchmarks`` is not a package on sys.path yet.
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    sys.exit(main())
