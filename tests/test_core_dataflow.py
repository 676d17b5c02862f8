"""EpochExecution wiring and lifecycle (unit level, real engines)."""

import pytest

from repro.core.network import PierNetwork
from repro.util.errors import PlanError


@pytest.fixture
def net():
    n = PierNetwork(nodes=4, seed=910)
    n.create_local_table("t", [("v", "INT")])
    n.insert("node0", "t", [(1,), (2,)])
    return n


class TestWiring:
    def test_instantiates_all_ops(self, net):
        plan = net.compile_sql("SELECT v FROM t WHERE v > 1")
        handle = net.submit_plan(plan)
        net.advance(0.5)
        execution = net.node("node0").engine.executions[(handle.qid, 0)]
        assert set(execution.ops) == set(plan.specs)

    def test_consumers_wired_per_plan(self, net):
        plan = net.compile_sql("SELECT v FROM t WHERE v > 1")
        handle = net.submit_plan(plan)
        net.advance(0.5)
        execution = net.node("node0").engine.executions[(handle.qid, 0)]
        for op_id, spec in plan.specs.items():
            produced_to = [
                (c_id, port) for c_id, port in plan.consumers_of(op_id)
            ]
            op = execution.ops[op_id]
            wired = [
                (consumer.spec.op_id, port) for consumer, port in op.consumers
            ]
            assert sorted(wired) == sorted(produced_to)

    def test_exchange_must_have_single_consumer(self, net):
        from repro.core.opgraph import OpSpec, QueryPlan
        from repro.core.dataflow import EpochExecution

        specs = [
            OpSpec("scan", "scan", {"table": "t"}),
            OpSpec("ex", "exchange", {
                "mode": "rehash",
                "key": {"kind": "row"},
            }, ["scan"]),
            OpSpec("d1", "distinct", {}, ["ex"]),
            OpSpec("d2", "distinct", {}, ["ex"]),
            OpSpec("res", "result", {}, ["d1"]),
        ]
        plan = QueryPlan(specs, "res")
        engine = net.node("node0").engine
        with pytest.raises(PlanError):
            EpochExecution(engine, plan, "qx", 0, net.now, "node0").start()


class TestLifecycle:
    def test_close_cancels_flush_timers(self, net):
        plan = net.compile_sql("SELECT SUM(v) AS s FROM t")
        handle = net.submit_plan(plan)
        net.advance(0.5)
        execution = net.node("node1").engine.executions[(handle.qid, 0)]
        assert execution._flush_timers
        execution.close()
        assert execution.closed
        assert not execution._flush_timers
        # Deliveries after close are ignored, not errors.
        execution.deliver_batch(plan.root_id, 0, [(1,)])

    def test_double_close_is_noop(self, net):
        plan = net.compile_sql("SELECT v FROM t")
        handle = net.submit_plan(plan)
        net.advance(0.5)
        execution = net.node("node0").engine.executions[(handle.qid, 0)]
        execution.close()
        execution.close()

    def test_namespaces_unregistered_on_close(self, net):
        plan = net.compile_sql("SELECT SUM(v) AS s FROM t")
        handle = net.submit_plan(plan)
        net.advance(0.5)
        engine = net.node("node2").engine
        execution = engine.executions[(handle.qid, 0)]
        chord = net.node("node2").chord
        assert chord._delivery_handlers  # exchange input registered
        execution.close()
        assert not chord._delivery_handlers

    def test_unclaimed_rows_buffered_then_drained(self, net):
        # Simulate a row arriving before the plan: the engine buffers it
        # under the namespace and hands it over at registration.
        engine = net.node("node0").engine
        engine._on_unclaimed_delivery(
            {"ns": "q|fake|0|op9|0", "data": (42,)}, None
        )
        assert engine._undelivered["q|fake|0|op9|0"] == [(42,)]

        class FakeExecution:
            delivered = []

            def deliver_batch(self, op_id, port, rows):
                self.delivered.extend((op_id, port, row) for row in rows)

        fake = FakeExecution()
        engine.register_exchange_input("q|fake|0|op9|0", fake, "op9", 0)
        assert fake.delivered == [("op9", 0, (42,))]
        engine.unregister_exchange_input("q|fake|0|op9|0")

    def test_context_namespace_format(self, net):
        plan = net.compile_sql("SELECT SUM(v) AS s FROM t")
        handle = net.submit_plan(plan)
        net.advance(0.5)
        execution = net.node("node0").engine.executions[(handle.qid, 0)]
        ns = execution.ctx.namespace("opX", 1)
        assert handle.qid in ns and "opX" in ns and ns.endswith("|1")
        upcall = execution.ctx.upcall_name("opX", 1)
        assert upcall != ns and upcall.startswith("t|")
