"""Every metric the benchmark reports, with its unit and direction.

End-to-end metrics come from untraced runs; per-layer metrics from a
traced run. Layer span names are ``<module>.<function>``; a span's
``.self_s`` is its duration minus the time covered by its child spans.

Which layer metric should move which end-to-end metric, on which
workload -- written down before measuring, to be checked against it:

- ``sim.clock.*`` (heap self time, events scheduled and fired):
  ``run_cpu_s`` on every workload, most on keyword_search.
- ``sim.network.max_node_inbound_share`` (partition skew):
  ``answer_latency_p99_s`` on skewed_ingest.
- ``util.serde.wire_size.*``: ``run_cpu_s`` on every workload, most on
  skewed_ingest; ``bytes_sent`` must stay identical.
- ``dht.chord.*`` and ``dht.chord.hops_per_route``: ``run_cpu_s``,
  ``messages_sent`` and ``answer_latency_p99_s`` on keyword_search.
- ``db.window.TimeWindow.*``, ``core.engine.stream_append`` and
  ``core.catalog.note_append`` (the write path): ``run_cpu_s`` on
  skewed_ingest.
- ``core.sql.parse_query``, ``core.planner.plan_query``,
  ``core.dataflow.executions_started`` and ``core.dataflow.sharing_ratio``
  (queries x nodes / executions): ``run_cpu_s`` and ``peak_rss_mb`` on
  monitor_fleet, nothing elsewhere.
- ``core.dataflow.*`` and ``core.operators.<kind>.*``: ``run_cpu_s`` on
  skewed_ingest and monitor_fleet, about nothing on keyword_search.
- ``core.exchange.*`` and ``core.aggregation_tree.*``: ``messages_sent``,
  ``bytes_sent``, ``site_inbound_bytes`` and
  ``sim.network.cross_region_bytes`` on skewed_ingest.
- ``core.coordinator.late_rows``: rows that reach an epoch the query
  site has already closed, on the stream workloads.
"""

# name, unit, better, bound (share of the parent's median it may worsen)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_cpu_s", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("answer_latency_p50_s", "s", "lower", 0.1),
    ("answer_latency_p99_s", "s", "lower", 0.1),
    ("messages_sent", "count", "lower", 0.15),
    ("bytes_sent", "bytes", "lower", 0.15),
    ("site_inbound_bytes", "bytes", "lower", 0.25),
)

# Spans reported as ``<name>.calls`` and ``<name>.self_s``.
SPANS = (
    "sim.network.send",
    "dht.chord.closest_preceding",
    "dht.chord.handle_message",
    "dht.chord.route",
    "dht.chord.forward_route",
    "dht.chord.lookup",
    "dht.chord.get",
    "dht.chord.put",
    "dht.chord.broadcast",
    "db.window.TimeWindow.append",
    "db.window.TimeWindow.scan_window",
    "core.engine.stream_append",
    "core.catalog.note_append",
    "core.sql.parse_query",
    "core.planner.plan_query",
    "core.dataflow.deliver_batch",
    "core.dataflow.deliver_scan",
    "core.dataflow.advance_epoch",
    "core.aggregation_tree.TreeCombiner.handler",
)

WIRE_SIZE_CALLERS = ("from_network", "from_engine", "from_exchange",
                     "from_dht_messages")

OPERATOR_KINDS = (
    "bloom_stage", "demux", "distinct", "exchange", "fetch_matches",
    "groupby_final", "groupby_partial", "limit", "project", "result",
    "scan", "select", "shj", "topk", "union",
)


def _per_layer():
    out = [
        ("sim.clock.events_scheduled", "count", "lower"),
        ("sim.clock.events_fired", "count", "lower"),
        ("sim.clock.fired_ratio", "ratio", "higher"),
        ("sim.clock.heap_self_s", "s", "lower"),
        ("sim.clock.heap_share", "ratio", "lower"),
        ("sim.clock.schedule_at.self_s", "s", "lower"),
        ("sim.network.deliver.self_s", "s", "lower"),
        ("sim.network.delivered_ratio", "ratio", "higher"),
        ("sim.network.max_node_inbound_share", "ratio", "lower"),
        ("sim.network.cross_region_bytes", "bytes", "lower"),
        ("util.serde.wire_size.calls", "count", "lower"),
        ("util.serde.wire_size.self_s", "s", "lower"),
        ("util.serde.wire_size.share", "ratio", "lower"),
    ]
    for caller in WIRE_SIZE_CALLERS:
        out.append(("util.serde.wire_size.{}.calls".format(caller),
                    "count", "lower"))
        out.append(("util.serde.wire_size.{}.self_s".format(caller),
                    "s", "lower"))
    for span in SPANS:
        out.append((span + ".calls", "count", "lower"))
        out.append((span + ".self_s", "s", "lower"))
    out += [
        ("dht.chord.closest_preceding.share", "ratio", "lower"),
        ("dht.chord.hops_per_route", "hops", "lower"),
        ("core.dataflow.executions_started", "count", "lower"),
        ("core.dataflow.sharing_ratio", "ratio", "higher"),
    ]
    for kind in OPERATOR_KINDS:
        out.append(("core.operators.{}.rows_in".format(kind), "count", "lower"))
        out.append(("core.operators.{}.self_s".format(kind), "s", "lower"))
    out += [
        ("core.exchange.push_batch.rows", "count", "lower"),
        ("core.exchange.flush.calls", "count", "lower"),
        ("core.exchange.rows_per_message", "ratio", "higher"),
        ("core.coordinator.on_result.calls", "count", "lower"),
        ("core.coordinator.rows_received", "count", "lower"),
        ("core.coordinator.late_rows", "count", "lower"),
        ("other.self_s", "s", "lower"),
        ("trace.run_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return tuple(out)


# name, unit, better
PER_LAYER = _per_layer()


def layer_metrics(rec):
    """Per-layer values from one traced repetition's record."""
    calls = rec["spans"]["calls"]
    self_s = rec["spans"]["self_s"]
    rows = rec["spans"]["rows"]
    traffic = rec["traffic"]
    run_s = sum(wall for _cpu, wall, _speed in rec["run"])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "sim.clock.events_scheduled": calls.get("sim.clock.schedule_at", 0),
        "sim.clock.events_fired": calls.get("callback", 0),
        "sim.clock.heap_self_s": self_s.get("sim.clock.run_until", 0.0),
        "sim.clock.schedule_at.self_s": self_s.get("sim.clock.schedule_at", 0.0),
        "sim.network.deliver.self_s": self_s.get("sim.network.deliver", 0.0),
        "sim.network.delivered_ratio": ratio(traffic["messages_delivered"],
                                             traffic["messages_sent"]),
        "sim.network.max_node_inbound_share": rec["max_node_inbound_share"],
        "sim.network.cross_region_bytes": traffic["cross_region_bytes"],
    }
    m["sim.clock.fired_ratio"] = ratio(m["sim.clock.events_fired"],
                                       m["sim.clock.events_scheduled"])
    for caller in WIRE_SIZE_CALLERS:
        name = "util.serde.wire_size." + caller
        m[name + ".calls"] = calls.get(name, 0)
        m[name + ".self_s"] = self_s.get(name, 0.0)
    m["util.serde.wire_size.calls"] = sum(
        m["util.serde.wire_size.{}.calls".format(c)] for c in WIRE_SIZE_CALLERS)
    m["util.serde.wire_size.self_s"] = sum(
        m["util.serde.wire_size.{}.self_s".format(c)] for c in WIRE_SIZE_CALLERS)
    for span in SPANS:
        m[span + ".calls"] = calls.get(span, 0)
        m[span + ".self_s"] = self_s.get(span, 0.0)
    routes = sum(calls.get("dht.chord." + f, 0)
                 for f in ("route", "route_via", "route_through"))
    m["dht.chord.hops_per_route"] = ratio(traffic["route_messages"], routes)
    started = calls.get("core.dataflow.start", 0)
    m["core.dataflow.executions_started"] = started
    m["core.dataflow.sharing_ratio"] = ratio(rec["queries"] * rec["nodes"],
                                             started)
    for kind in OPERATOR_KINDS:
        name = "core.operators." + kind
        m[name + ".rows_in"] = rows.get(name, 0)
        m[name + ".self_s"] = self_s.get(name, 0.0)
    m["core.exchange.push_batch.rows"] = rows.get("core.exchange.push_batch", 0)
    m["core.exchange.flush.calls"] = calls.get("core.exchange.flush", 0)
    m["core.exchange.rows_per_message"] = ratio(traffic["exchange_rows"],
                                                traffic["exchange_messages"])
    m["core.coordinator.on_result.calls"] = calls.get(
        "core.coordinator.on_result", 0)
    m["core.coordinator.rows_received"] = rec["rows_received"]
    m["core.coordinator.late_rows"] = rec["late_rows"]
    # Every reported self time, each span counted once; what is left of
    # the traced phase ran outside them.
    accounted = (m["sim.clock.heap_self_s"] + m["sim.clock.schedule_at.self_s"]
                 + m["sim.network.deliver.self_s"]
                 + m["util.serde.wire_size.self_s"]
                 + sum(m[span + ".self_s"] for span in SPANS)
                 + sum(m["core.operators.{}.self_s".format(k)]
                       for k in OPERATOR_KINDS))
    m["other.self_s"] = run_s - accounted
    m["trace.run_s"] = run_s
    m["sim.clock.heap_share"] = ratio(m["sim.clock.heap_self_s"], run_s)
    m["util.serde.wire_size.share"] = ratio(m["util.serde.wire_size.self_s"],
                                            run_s)
    m["dht.chord.closest_preceding.share"] = ratio(
        m["dht.chord.closest_preceding.self_s"], run_s)
    return m
