"""Standing continuous queries: long-lived executions, subscriptions,
epoch tags, stop tombstones, and NACKed early rows."""

import pytest

from repro.core.batch import RowBatch
from repro.core.network import PierNetwork
from repro.dht.chord import NodeRef, node_id_for


def install_ticker(net, address, value, period=2.0, table="s"):
    """Append ``value`` every ``period`` seconds at ``address``."""

    def tick():
        engine = net.node(address).engine
        engine.stream_append(table, (value,))
        engine.set_timer(period, tick)

    net.node(address).engine.set_timer(0.1, tick)


@pytest.fixture
def net():
    n = PierNetwork(nodes=8, seed=321)
    n.create_stream_table("s", [("v", "FLOAT")], window=30.0)
    for i, address in enumerate(n.addresses()):
        install_ticker(n, address, float(i + 1))
    return n


CONTINUOUS_SQL = (
    "SELECT SUM(v) AS total, COUNT(*) AS n FROM s EVERY 10 SECONDS "
    "WINDOW 4 SECONDS LIFETIME 40 SECONDS"
)


class TestStandingLifecycle:
    def test_plan_marked_standing(self, net):
        plan = net.compile_sql(CONTINUOUS_SQL)
        assert plan.standing
        for spec in plan.ops_of_kind("scan") + plan.ops_of_kind("exchange"):
            assert spec.params.get("standing")
        # One-shot plans never are.
        assert not net.compile_sql("SELECT COUNT(*) AS n FROM s").standing

    def test_overlapping_flush_schedule_still_standing(self, net):
        # Flushes stretch past a 5s period but fit within two: the plan
        # stays standing with an epoch ring of two live states.
        plan = net.compile_sql(
            "SELECT SUM(v) AS total FROM s EVERY 5 SECONDS "
            "WINDOW 4 SECONDS LIFETIME 40 SECONDS"
        )
        assert plan.standing
        assert plan.epoch_overlap == 2
        # Within one period: one live epoch state.
        assert net.compile_sql(CONTINUOUS_SQL).epoch_overlap == 1

    def test_overlong_flush_schedule_widens_the_ring(self, net):
        # Flushes stretch past two 4s periods: the ring simply widens
        # to three live epoch states instead of falling back to the
        # disposable per-epoch path.
        plan = net.compile_sql(
            "SELECT SUM(v) AS total FROM s EVERY 4 SECONDS "
            "WINDOW 4 SECONDS LIFETIME 40 SECONDS"
        )
        assert plan.standing
        assert plan.epoch_overlap == 3

    def test_standing_option_is_ignored(self, net):
        # The rebuild-per-epoch path is retired: every continuous plan
        # runs standing, and the legacy ``standing`` query option is
        # accepted but changes nothing.
        plan = net.compile_sql(CONTINUOUS_SQL, options={"standing": False})
        assert plan.standing
        # ``shared`` is the option that still means something: it keeps
        # the query off the subscription spine (private execution).
        private = net.compile_sql(CONTINUOUS_SQL, options={"shared": False})
        assert private.standing
        assert private.metadata.get("spine") is None

    def test_one_execution_reused_across_epochs(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(12)  # inside epoch 1
        engine = net.node(net.addresses()[3]).engine
        record = engine.queries[handle.qid]
        first = record.execution
        assert first is not None
        # The plan is shareable, so the execution lives on a spine; the
        # record points at the spine's one standing execution.
        assert record.spine is not None
        assert engine._spines[record.spine].execution is first
        net.advance(10)  # inside epoch 2
        assert engine.queries[handle.qid].execution is first
        assert engine._spines[record.spine].execution is first

    def test_delivery_registered_once_per_query(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(12)
        engine = net.node(net.addresses()[2]).engine
        spine_key = engine.queries[handle.qid].spine
        assert spine_key is not None
        chord = net.node(net.addresses()[2]).chord
        prefix = "s|{}|".format(spine_key)
        standing_ns = [
            ns for ns in chord._delivery_handlers if ns.startswith(prefix)
        ]
        assert standing_ns, "standing exchange input not registered"
        # Epoch-free namespace: no epoch component between the spine
        # key and the op id.
        for ns in standing_ns:
            parts = ns.split("|")
            assert parts[0] == "s" and parts[1] == spine_key
            assert not parts[2].isdigit()  # would be the epoch in rebuild
        handler_before = {ns: chord._delivery_handlers[ns] for ns in standing_ns}
        net.advance(10)  # next epoch: same registration must persist
        for ns, handler in handler_before.items():
            assert chord._delivery_handlers.get(ns) is handler

    def test_results_match_private_execution(self):
        # Same deterministic workload through the shared spine and a
        # ``shared: False`` private standing execution.
        per_path = []
        for shared in (True, False):
            n = PierNetwork(nodes=8, seed=321)
            n.create_stream_table("s", [("v", "FLOAT")], window=30.0)
            for i, address in enumerate(n.addresses()):
                install_ticker(n, address, float(i + 1))
            results = []
            options = None if shared else {"shared": False}
            handle = n.submit_sql(CONTINUOUS_SQL, on_epoch=results.append,
                                  options=options)
            assert (handle.plan.metadata.get("spine") is not None) == shared
            n.advance(60)
            per_path.append([
                (r.epoch, r.rows[0][1], round(r.rows[0][0], 6))
                for r in results
            ])
        assert per_path[0] == per_path[1]
        # And the values are the known ground truth: 8 tickers, window 4,
        # period 2 => 16 samples summing to 2 * (1 + ... + 8).
        for _epoch, count, total in per_path[0]:
            assert count == 16
            assert total == pytest.approx(2 * sum(range(1, 9)))

    def test_lifetime_closes_standing_execution(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(60)
        for address in net.addresses():
            engine = net.node(address).engine
            assert handle.qid not in engine.queries
            assert not any(qid == handle.qid for qid, _e in engine.executions)
            chord = net.node(address).chord
            assert not any(handle.qid in ns for ns in chord._delivery_handlers)

    def test_refresh_during_final_epoch_is_not_readopted(self):
        # Lifetime 65 with a 60s refresh: the refresh broadcast lands
        # while the final epoch (t0+60..) is in flight. The record must
        # stay adopted until that epoch settles, so the refresh hits the
        # duplicate guard instead of spawning a second standing
        # execution over the same epoch-free namespaces (which would
        # double-count the final epoch).
        n = PierNetwork(nodes=8, seed=321)
        n.create_stream_table("s", [("v", "FLOAT")], window=30.0)
        for i, address in enumerate(n.addresses()):
            install_ticker(n, address, float(i + 1))
        results = []
        n.submit_sql(
            "SELECT SUM(v) AS total, COUNT(*) AS n FROM s "
            "EVERY 10 SECONDS WINDOW 4 SECONDS LIFETIME 65 SECONDS",
            on_epoch=results.append,
        )
        n.advance(90)
        assert len(results) == 6
        for r in results:
            total, count = r.rows[0]
            assert count == 16
            assert total == pytest.approx(2 * sum(range(1, 9)))

    def test_stop_unsubscribes_append_hooks(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(12)
        fragment = net.node(net.addresses()[1]).engine.fragment("s")
        assert fragment._hooks  # the standing scan subscribed
        handle.stop()
        net.advance(3)
        assert not fragment._hooks


def final_groups(execution, op_id, epoch):
    """A groupby_final's held groups for one epoch (empty if none)."""
    entry = execution.ops[op_id]._epochs.peek(epoch)
    return dict(entry["groups"]) if entry else {}


class TestEpochTags:
    def test_late_epoch_rows_dropped(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(22)  # inside epoch 2
        engine = net.node(net.addresses()[4]).engine
        execution = engine.queries[handle.qid].execution
        assert execution.current_epoch == 2
        op_id = next(
            spec.op_id for spec in handle.plan.ops_of_kind("groupby_final")
        )
        before = final_groups(execution, op_id, 2)
        execution.deliver_batch(op_id, 0, [((), (99.0,))], epoch=1)
        assert final_groups(execution, op_id, 2) == before  # late: dropped
        assert final_groups(execution, op_id, 1) == {}

    def test_early_epoch_rows_parked_until_advance(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(12)
        engine = net.node(net.addresses()[4]).engine
        execution = engine.queries[handle.qid].execution
        op_id = next(
            spec.op_id for spec in handle.plan.ops_of_kind("groupby_final")
        )
        execution.deliver_batch(op_id, 0, [(("x",), (7.0, 1))], epoch=2)
        assert final_groups(execution, op_id, 2) == {}  # parked, not pushed
        net.advance(10)  # boundary: epoch 2 begins and drains the parking
        assert ("x",) in final_groups(execution, op_id, 2)


class TestChurn:
    def test_subscriber_crash_successor_serves_next_epoch(self):
        # A standing query over a DHT table: the storing node's standing
        # scan subscribed to newData. When it crashes, the publisher's
        # keep-alive re-put lands at the successor, whose own standing
        # subscription wakes for the handed-off key, so the next epoch's
        # answer still includes the row.
        net = PierNetwork(nodes=8, seed=77)
        net.create_dht_table("kv", [("k", "STR"), ("v", "INT")],
                             partition_key="k", ttl=12.0)
        net.publish("node2", "kv", ("alpha", 5), keep_alive=True)
        net.advance(2)
        owner = next(
            a for a in net.addresses() if net.node(a).chord.lscan("kv")
        )
        assert owner != "node2"  # key ownership is address-hash determined
        results = []
        handle = net.submit_sql(
            "SELECT COUNT(*) AS n FROM kv EVERY 10 SECONDS "
            "LIFETIME 60 SECONDS",
            node="node2", on_epoch=results.append,
        )
        assert handle.plan.standing
        net.advance(22)  # two full epochs with the original owner
        assert results and results[0].rows[0][0] == 1
        net.crash_node(owner)
        net.advance(40)
        counts = [r.rows[0][0] if r.rows else 0 for r in results]
        # The final epochs see the row again at its new home.
        assert counts[-1] == 1

    def test_late_joiner_delivers_from_next_boundary(self, net):
        victim = net.addresses()[5]
        net.crash_node(victim)
        results = []
        handle = net.submit_sql(
            "SELECT COUNT(*) AS n FROM s EVERY 10 SECONDS "
            "WINDOW 4 SECONDS LIFETIME 200 SECONDS",
            node=net.addresses()[0], on_epoch=results.append,
        )
        assert handle.plan.standing
        net.advance(15)
        net.recover_node(victim)
        install_ticker(net, victim, 99.0)
        net.advance(90)  # past the 60s plan refresh
        engine = net.node(victim).engine
        record = engine.queries[handle.qid]
        assert record.execution is not None
        counts = [r.rows[0][0] for r in results if r.rows]
        assert counts[0] == 14  # victim missing
        assert counts[-1] == 16  # victim's delta flows after adoption
        handle.stop()

    def test_crash_drops_standing_registrations(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(12)
        victim = net.addresses()[6]
        assert net.node(victim).chord._delivery_handlers
        net.crash_node(victim)
        # Zombie handlers must not survive into the recovered node.
        assert not net.node(victim).chord._delivery_handlers
        assert not net.node(victim).chord._intercepts


class TestStopTombstone:
    def test_stale_refresh_cannot_readopt(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(12)
        engine = net.node(net.addresses()[2]).engine
        assert handle.qid in engine.queries
        handle.stop()
        net.advance(3)
        assert handle.qid not in engine.queries
        # A refresh broadcast that was in flight when the stop landed:
        engine._adopt_query({
            "qid": handle.qid, "plan": handle.plan,
            "t0": handle.t0, "origin": net.addresses()[0],
        })
        assert handle.qid not in engine.queries  # tombstoned
        net.advance(30)
        assert not any(
            qid == handle.qid for qid, _e in engine.executions
        )

    def test_tombstone_expires(self, net):
        engine = net.node(net.addresses()[2]).engine
        engine._stop_query("ghost#1")
        assert "ghost#1" in engine._stop_tombstones
        net.advance(engine.config.stop_tombstone_ttl + 1)
        # After the TTL a (hypothetical) fresh adoption is allowed again.
        plan = net.compile_sql(CONTINUOUS_SQL)
        engine._adopt_query({
            "qid": "ghost#1", "plan": plan, "t0": net.now,
            "origin": net.addresses()[0],
        })
        assert "ghost#1" in engine.queries
        engine._stop_query("ghost#1")


class TestNack:
    def _route_msg_from(self, address):
        class Msg:
            origin = NodeRef(node_id_for(address), address)

        return Msg()

    def test_stop_nacks_buffered_namespaces(self, net):
        sender = net.node(net.addresses()[0]).engine
        receiver = net.node(net.addresses()[5]).engine
        # The sender missed the stop broadcast and still runs the query
        # (that is exactly who the NACK exists for); mutes for queries a
        # sender does not run are dropped as useless.
        sender.queries["dead#9"] = object()
        ns = "q|dead#9|op3|0"
        receiver._on_unclaimed_delivery(
            {"ns": ns, "rid": ("k",), "rows": [(1,), (2,)], "epoch": 3},
            self._route_msg_from(sender.address),
        )
        receiver._stop_query("dead#9")  # authoritative: stop arrived
        net.advance(2)  # let the direct NACK travel
        assert sender.exchange_muted(ns, ("k",))

    def test_ttl_expiry_nacks_tombstoned_query(self, net):
        sender = net.node(net.addresses()[0]).engine
        receiver = net.node(net.addresses()[5]).engine
        sender.queries["dead#10"] = object()  # sender missed the stop
        receiver._stop_query("dead#10")  # stop seen before the rows
        ns = "q|dead#10|op3|0"
        receiver._on_unclaimed_delivery(
            {"ns": ns, "rid": ("z",), "data": (1,), "epoch": 2},
            self._route_msg_from(sender.address),
        )
        net.advance(receiver.config.undelivered_ttl + 2)
        assert ns not in receiver._undelivered
        assert sender.exchange_muted(ns, ("z",))
        # The mute itself ages out.
        net.advance(sender.config.nack_mute_ttl + 1)
        assert not sender.exchange_muted(ns, ("z",))

    def test_missed_plan_is_not_nacked(self, net):
        # No tombstone: the query may be live and merely not yet adopted
        # here, so dropping the buffer must stay silent.
        sender = net.node(net.addresses()[0]).engine
        receiver = net.node(net.addresses()[5]).engine
        ns = "q|live#11|op3|0"
        receiver._on_unclaimed_delivery(
            {"ns": ns, "rid": ("q",), "data": (1,)},
            self._route_msg_from(sender.address),
        )
        net.advance(receiver.config.undelivered_ttl + 2)
        assert ns not in receiver._undelivered
        assert not sender.exchange_muted(ns, ("q",))

    def test_muted_exchange_drops_rows_at_source(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(12)
        engine = net.node(net.addresses()[3]).engine
        execution = engine.queries[handle.qid].execution
        exchange = next(
            op for op in execution.ops.values()
            if type(op).__name__ == "Exchange"
        )
        engine._exchange_mutes[(exchange._ns, ())] = net.now + 30.0
        exchange.push_batch(RowBatch.from_rows([((), (1.0, 1))]))  # keyed ()
        assert len(exchange._pending) == 0  # dropped before buffering


class TestPlanFetch:
    def test_planless_node_pulls_plan_on_standing_rows(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL, node=net.addresses()[0])
        net.advance(12)
        victim = net.addresses()[5]
        net.crash_node(victim)
        net.advance(5)
        net.recover_node(victim)
        net.advance(2)
        engine = net.node(victim).engine
        assert handle.qid not in engine.queries
        # Evidence of the standing query arrives (an epoch-tagged row
        # for its epoch-free namespace): the engine asks the site.
        ns = "q|{}|op4|0".format(handle.qid)
        engine._on_unclaimed_delivery(
            {"ns": ns, "rid": (), "data": ((), (1.0, 1)), "epoch": 1},
            None,
        )
        net.advance(2)  # request + reply round-trip
        assert handle.qid in engine.queries
        handle.stop()
