"""Multi-query sharing: logical canonicalization, subscription spines,
prefix (scan-stage) sharing across different queries, shared-scan
refcounts, and parity with private executions."""

import collections
import math

import pytest

from repro.core.dataflow import StandingExecution
from repro.core.engine import EngineConfig
from repro.core.exchange import Exchange
from repro.core.network import PierConfig, PierNetwork
from repro.dht.chord import storage_key
from repro.dht.messages import Direct


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


TAIL = "EVERY 10 SECONDS WINDOW 10 SECONDS LIFETIME 40 SECONDS"

# One query, four surface forms: alias renames, flipped comparisons,
# reordered conjuncts, different output names.
VARIANTS = (
    "SELECT SUM(v) AS total, COUNT(*) AS n FROM s "
    "WHERE v > 2 AND v < 100 " + TAIL,
    "SELECT SUM(t.v) AS sum_v, COUNT(*) AS cnt FROM s t "
    "WHERE t.v < 100 AND t.v > 2 " + TAIL,
    "SELECT SUM(x.v) AS a, COUNT(*) AS b FROM s x "
    "WHERE 2 < x.v AND 100 > x.v " + TAIL,
    "SELECT SUM(v) AS grand_total, COUNT(*) AS how_many FROM s "
    "WHERE 100 > v AND 2 < v " + TAIL,
)


def _rows_match(a, b):
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(a, b):
        for va, vb in zip(row_a, row_b):
            if isinstance(va, float) or isinstance(vb, float):
                if not math.isclose(va, vb, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif va != vb:
                return False
    return True


class TestCanonicalization:
    def test_surface_forms_share_one_signature(self, net):
        sigs = {net.compile_sql(v).metadata["spine"] for v in VARIANTS}
        assert len(sigs) == 1
        assert None not in sigs

    def test_epoch_geometry_splits_the_signature(self, net):
        base = net.compile_sql(VARIANTS[0]).metadata["spine"]
        other_window = net.compile_sql(
            VARIANTS[0].replace("WINDOW 10", "WINDOW 20")
        ).metadata["spine"]
        other_every = net.compile_sql(
            VARIANTS[0].replace("EVERY 10", "EVERY 5")
        ).metadata["spine"]
        assert other_window != base
        assert other_every != base

    def test_lifetime_does_not_split_the_signature(self, net):
        # LIFETIME is per-subscriber (spine fan-out handles it); the
        # in-network body is identical.
        base = net.compile_sql(VARIANTS[0]).metadata["spine"]
        longer = net.compile_sql(
            VARIANTS[0].replace("LIFETIME 40", "LIFETIME 80")
        ).metadata["spine"]
        assert longer == base

    def test_semantic_options_split_the_signature(self, net):
        base = net.compile_sql(VARIANTS[0]).metadata["spine"]
        rehash = net.compile_sql(
            VARIANTS[0], options={"aggregation_tree": False}
        ).metadata["spine"]
        assert rehash != base
        # ``shared: False`` is the opt-out, not a semantic knob: the
        # plan is left unstamped entirely.
        private = net.compile_sql(VARIANTS[0], options={"shared": False})
        assert private.standing
        assert private.metadata.get("spine") is None

    def test_predicate_differences_split_the_signature(self, net):
        base = net.compile_sql(VARIANTS[0]).metadata["spine"]
        tighter = net.compile_sql(
            VARIANTS[0].replace("v > 2", "v > 3")
        ).metadata["spine"]
        assert tighter != base

    def test_sketch_params_are_semantic(self, net):
        sketch = ("SELECT APPROX_COUNT_DISTINCT(v, {}) AS d FROM s "
                  "GROUP BY v " + TAIL)
        p12 = net.compile_sql(sketch.format(12)).metadata["spine"]
        p12_again = net.compile_sql(sketch.format(12)).metadata["spine"]
        p14 = net.compile_sql(sketch.format(14)).metadata["spine"]
        assert p12 == p12_again
        # Different sketch geometry means different in-network state:
        # never share it.
        assert p14 != p12


class TestSpineRuntime:
    def test_fleet_rides_one_spine(self, net):
        site = net.any_address()
        fleet = [
            net.submit_sql(VARIANTS[i % len(VARIANTS)], node=site)
            for i in range(5)
        ]
        assert len({h.plan.metadata["spine"] for h in fleet}) == 1
        net.advance(12.0)  # inside epoch 1
        for address in net.addresses():
            engine = net.node(address).engine
            assert len(engine._spines) == 1
            (srec,) = engine._spines.values()
            assert isinstance(srec.execution, StandingExecution)
            assert set(srec.subscribers) == {h.qid for h in fleet}
            # One append hook on the stream table, however many queries.
            assert engine.shared_scans.host_count("s") == 1
            for handle in fleet:
                assert engine.queries[handle.qid].execution is srec.execution

    def test_fleet_results_match_private_twin(self, net):
        site = net.any_address()
        outs = []
        fleet = []
        for i in range(3):
            results = []
            fleet.append(net.submit_sql(VARIANTS[i], node=site,
                                        on_epoch=results.append))
            outs.append(results)
        private_results = []
        private = net.submit_sql(VARIANTS[0], node=site,
                                 on_epoch=private_results.append,
                                 options={"shared": False})
        assert private.plan.metadata.get("spine") is None
        net.advance(40.0 + private.plan.deadline + 5.0)
        reference = {r.epoch: sorted(r.rows) for r in private_results}
        assert len(reference) >= 3
        for results in outs:
            epochs = {r.epoch: sorted(r.rows) for r in results}
            assert set(epochs) == set(reference)
            for k in reference:
                assert _rows_match(epochs[k], reference[k])

    def test_different_geometry_control_gets_its_own_spine(self, net):
        site = net.any_address()
        fleet_results = []
        fleet = net.submit_sql(VARIANTS[0], node=site,
                               on_epoch=fleet_results.append)
        control_results = []
        control = net.submit_sql(
            VARIANTS[0].replace("WINDOW 10", "WINDOW 20"), node=site,
            on_epoch=control_results.append,
        )
        assert (control.plan.metadata["spine"]
                != fleet.plan.metadata["spine"])
        net.advance(12.0)
        engine = net.node(site).engine
        assert len(engine._spines) == 2
        keys = {engine.queries[fleet.qid].spine,
                engine.queries[control.qid].spine}
        assert len(keys) == 2
        net.advance(40.0 + control.plan.deadline + 5.0 - 12.0)
        assert len({r.epoch for r in fleet_results}) >= 3
        assert len({r.epoch for r in control_results}) >= 3

    def test_stop_peels_subscribers_then_closes_the_spine(self, net):
        site = net.any_address()
        outs = []
        fleet = []
        for i in range(3):
            results = []
            fleet.append(net.submit_sql(VARIANTS[i], node=site,
                                        on_epoch=results.append))
            outs.append(results)
        net.advance(12.0)
        engine = net.node(site).engine
        (srec,) = engine._spines.values()
        assert len(srec.subscribers) == 3

        # Two members leave mid-flight: the spine survives for the
        # remaining co-tenant and keeps answering.
        fleet[0].stop()
        fleet[1].stop()
        net.advance(2.0)
        assert len(engine._spines) == 1
        (srec,) = engine._spines.values()
        assert set(srec.subscribers) == {fleet[2].qid}
        assert engine.shared_scans.host_count("s") == 1
        epochs_before = {r.epoch for r in outs[2]}
        net.advance(10.0)
        assert {r.epoch for r in outs[2]} - epochs_before, (
            "surviving subscriber stopped receiving epochs"
        )

        # The last member leaving closes the execution and releases the
        # scan host on every node.
        fleet[2].stop()
        net.advance(2.0)
        for address in net.addresses():
            eng = net.node(address).engine
            assert not eng._spines
            assert eng.shared_scans.host_count("s") == 0

    def test_staggered_submission_joins_by_epoch_phase(self, net):
        # A near-duplicate submitted whole periods later lands on the
        # same grid phase, so it joins the existing spine at an offset;
        # one submitted off-phase must get its own spine.
        site = net.any_address()
        first = net.submit_sql(VARIANTS[0], node=site)
        net.advance(10.0)  # exactly one period: same phase
        second = net.submit_sql(VARIANTS[1], node=site)
        engine = net.node(site).engine
        assert engine.queries[first.qid].spine == engine.queries[second.qid].spine
        sub = engine._spines[engine.queries[second.qid].spine]
        assert sub.subscribers[second.qid].offset == 1
        assert sub.subscribers[first.qid].offset == 0
        net.advance(3.3)  # mid-period: different phase
        third = net.submit_sql(VARIANTS[2], node=site)
        assert (engine.queries[third.qid].spine
                != engine.queries[first.qid].spine)
        assert len(engine._spines) == 2


def predicate_sql(threshold):
    """Same scan + geometry as VARIANTS, different WHERE predicate:
    never spine-shareable with the others, always stage-shareable."""
    return ("SELECT SUM(v) AS total, COUNT(*) AS n FROM s "
            "WHERE v > {} ".format(threshold) + TAIL)


def twin_net(shared):
    """A network identical to the ``net`` fixture, with sharing on/off."""
    n = PierNetwork(nodes=8, seed=321, config=PierConfig(
        engine=EngineConfig(shared_dataflows=shared)))
    n.create_stream_table("s", [("v", "FLOAT")], window=30.0)
    for i, address in enumerate(n.addresses()):
        install_ticker(n, address, float(i + 1))
    return n


class TestPrefixSignatures:
    """The prefix signature hashes only the common SUBPLAN -- the scan
    and its epoch geometry -- so plans that cannot share a whole spine
    can still share the scan stage. It must be exactly as coarse as
    the stage is reusable: blind to predicates and select lists,
    split by anything that changes what the scan produces."""

    def test_surface_forms_share_one_prefix(self, net):
        sigs = {net.compile_sql(v).metadata["prefix"] for v in VARIANTS}
        assert len(sigs) == 1
        assert None not in sigs

    def test_predicates_do_not_split_the_prefix(self, net):
        base = net.compile_sql(VARIANTS[0])
        tighter = net.compile_sql(VARIANTS[0].replace("v > 2", "v > 3"))
        assert base.metadata["prefix"] == tighter.metadata["prefix"]
        # ...even though the whole-plan signatures rightly differ.
        assert base.metadata["spine"] != tighter.metadata["spine"]

    def test_select_list_does_not_split_the_prefix(self, net):
        base = net.compile_sql(VARIANTS[0])
        other = net.compile_sql(
            "SELECT MAX(v) AS top FROM s WHERE v > 7 " + TAIL
        )
        assert base.metadata["prefix"] == other.metadata["prefix"]
        assert base.metadata["spine"] != other.metadata["spine"]

    def test_epoch_geometry_splits_the_prefix(self, net):
        base = net.compile_sql(VARIANTS[0]).metadata["prefix"]
        other_window = net.compile_sql(
            VARIANTS[0].replace("WINDOW 10", "WINDOW 20")
        ).metadata["prefix"]
        other_every = net.compile_sql(
            VARIANTS[0].replace("EVERY 10", "EVERY 5")
        ).metadata["prefix"]
        assert other_window != base
        assert other_every != base

    def test_scanned_table_splits_the_prefix(self, net):
        net.create_stream_table("s2", [("v", "FLOAT")], window=30.0)
        base = net.compile_sql(VARIANTS[0]).metadata["prefix"]
        other = net.compile_sql(
            "SELECT SUM(v) AS total, COUNT(*) AS n FROM s2 "
            "WHERE v > 2 AND v < 100 " + TAIL
        ).metadata["prefix"]
        assert other != base

    def test_opt_out_unstamps_the_prefix(self, net):
        private = net.compile_sql(VARIANTS[0], options={"shared": False})
        assert private.standing
        assert private.metadata.get("prefix") is None

    def test_lifetime_does_not_split_the_prefix(self, net):
        base = net.compile_sql(VARIANTS[0]).metadata["prefix"]
        longer = net.compile_sql(
            VARIANTS[0].replace("LIFETIME 40", "LIFETIME 80")
        ).metadata["prefix"]
        assert longer == base


class TestPrefixStageRuntime:
    def test_different_predicate_fleet_rides_one_stage(self, net):
        site = net.any_address()
        fleet = [
            net.submit_sql(predicate_sql(1.5 + i), node=site)
            for i in range(4)
        ]
        # Four different predicates: four spines, ONE prefix.
        assert len({h.plan.metadata["spine"] for h in fleet}) == 4
        assert len({h.plan.metadata["prefix"] for h in fleet}) == 1
        net.advance(12.0)  # inside epoch 1
        for address in net.addresses():
            engine = net.node(address).engine
            assert len(engine._spines) == 4
            assert len(engine._prefixes) == 1
            (prec,) = engine._prefixes.values()
            assert isinstance(prec.execution, StandingExecution)
            # Every spine is enrolled as a stage member...
            assert set(prec.subscribers) == {
                "s|" + key for key in engine._spines
            }
            # ...runs its own (passively scanned) execution...
            for srec in engine._spines.values():
                assert srec.execution is not None
                assert srec.execution is not prec.execution
                assert srec.execution.ctx.prefix_fed
            # ...and the table carries ONE append hook: the stage's.
            assert engine.shared_scans.host_count("s") == 1

    def test_fleet_results_match_ablation_twin(self):
        thresholds = (1.5, 2.5, 3.5, 4.5)
        legs = []
        for shared in (True, False):
            n = twin_net(shared)
            site = n.any_address()
            outs = []
            for thr in thresholds:
                results = []
                n.submit_sql(predicate_sql(thr), node=site,
                             on_epoch=results.append)
                outs.append(results)
            deadline = n.compile_sql(predicate_sql(0)).deadline
            n.advance(12.0)  # mid-flight: the stage (only) exists when shared
            assert bool(n.node(site).engine._prefixes) == shared
            n.advance(40.0 + deadline + 5.0 - 12.0)
            legs.append([
                {r.epoch: sorted(r.rows) for r in results}
                for results in outs
            ])
        staged, private = legs
        for i in range(len(thresholds)):
            assert set(staged[i]) == set(private[i])
            assert len(staged[i]) >= 3
            for k in private[i]:
                assert _rows_match(staged[i][k], private[i][k])

    def test_stop_peels_members_then_closes_the_stage(self, net):
        site = net.any_address()
        outs = []
        fleet = []
        for i in range(3):
            results = []
            fleet.append(net.submit_sql(predicate_sql(1.5 + i), node=site,
                                        on_epoch=results.append))
            outs.append(results)
        net.advance(12.0)
        engine = net.node(site).engine
        (prec,) = engine._prefixes.values()
        assert len(prec.subscribers) == 3

        # Two members leave mid-flight: their spines close and leave
        # the stage; the survivor keeps being fed.
        fleet[0].stop()
        fleet[1].stop()
        net.advance(2.0)
        assert len(engine._prefixes) == 1
        (prec,) = engine._prefixes.values()
        assert len(prec.subscribers) == 1
        assert engine.shared_scans.host_count("s") == 1
        epochs_before = {r.epoch for r in outs[2]}
        net.advance(10.0)
        assert {r.epoch for r in outs[2]} - epochs_before, (
            "surviving stage member stopped receiving epochs"
        )

        # The last member leaving tears the stage down everywhere.
        fleet[2].stop()
        net.advance(2.0)
        for address in net.addresses():
            eng = net.node(address).engine
            assert not eng._spines
            assert not eng._prefixes
            assert eng.shared_scans.host_count("s") == 0

    def test_staggered_join_lands_on_the_running_stage(self, net):
        site = net.any_address()
        first_results = []
        net.submit_sql(predicate_sql(1.5), node=site,
                       on_epoch=first_results.append)
        net.advance(10.0)  # one whole period: same grid phase
        second_results = []
        net.submit_sql(predicate_sql(4.5), node=site,
                       on_epoch=second_results.append)
        engine = net.node(site).engine
        assert len(engine._spines) == 2
        assert len(engine._prefixes) == 1
        net.advance(3.3)  # mid-period: different phase
        net.submit_sql(predicate_sql(6.5), node=site)
        assert len(engine._prefixes) == 2, (
            "off-phase query must get its own stage grid"
        )
        net.advance(45.0)
        assert len({r.epoch for r in first_results}) >= 3
        assert len({r.epoch for r in second_results}) >= 3

    def test_ablation_runs_every_query_private(self):
        n = twin_net(False)
        site = n.any_address()
        results = []
        handle = n.submit_sql(predicate_sql(1.5), node=site,
                              on_epoch=results.append)
        # The planner still stamps the plan; the engine opts out.
        assert handle.plan.metadata.get("prefix")
        n.advance(20.0 + handle.plan.deadline + 2.0)
        for address in n.addresses():
            engine = n.node(address).engine
            assert not engine._prefixes
            assert not engine._spines
        assert {r.epoch for r in results} >= {1, 2}


def grouped_sql(threshold):
    """A stage-shareable GROUP BY: its exchange routes one key per group."""
    return ("SELECT v, COUNT(*) AS n FROM s WHERE v > {} GROUP BY v "
            .format(threshold) + TAIL)


def record_sends(net, op, seen):
    """Record ``(send time, src, dst, payload)`` for every ``op`` direct
    message as it is sent (delivery times carry per-message jitter)."""
    send = net.net.send

    def recording_send(src, dst, message):
        payload = getattr(message, "payload", None)
        if (isinstance(message, Direct) and isinstance(payload, dict)
                and payload.get("op") == op):
            seen.append((net.now, src, dst, payload))
        return send(src, dst, message)

    net.net.send = recording_send


class TestFleetPaysOnce:
    """Members of one fleet share owner learning and result messages:
    the learned-owner cache is keyed by the routing key the owner
    terminates, and a spine ships each epoch's rows once per site."""

    def test_prefix_fleet_learns_each_routing_key_once(self, net):
        replies = []
        record_sends(net, "xowner", replies)
        site = net.any_address()
        fleet = [net.submit_sql(grouped_sql(1.5 + i), node=site)
                 for i in range(4)]
        assert len({h.plan.metadata["prefix"] for h in fleet}) == 1
        assert len({h.plan.metadata["spine"] for h in fleet}) == 4
        net.advance(35.0)
        per_key = collections.Counter(
            (dst, payload.get("key")) for _t, _src, dst, payload in replies
        )
        assert len(per_key) >= 4
        # One reply per (origin, routing key), not one per member.
        assert set(per_key.values()) == {1}

    def test_mux_bundle_of_learning_parts_draws_one_reply(self, net):
        replies = []
        record_sends(net, "xowner", replies)
        origin, owner = (net.node(a).chord for a in net.addresses()[:2])
        delivered = []
        parts = []
        for i in range(3):
            ns = "q|probe{}|op5|x".format(i)
            owner.register_delivery(
                ns, lambda payload, _msg: delivered.append(payload["ns"]))
            parts.append({"op": "deliver", "ns": ns, "rid": ("g",),
                          "data": (1.0,), "mid": origin.fresh_mid(),
                          "learn": True})
        origin.route(owner.id, {"op": "deliver_mux", "parts": parts,
                                "mid": origin.fresh_mid()})
        net.advance(2.0)
        assert sorted(delivered) == sorted(p["ns"] for p in parts)
        assert len(replies) == 1
        _t, src, dst, payload = replies[0]
        assert (src, dst) == (owner.address, origin.address)
        assert payload["key"] == owner.id
        assert payload["ref"].address == owner.address

    def test_stale_reply_clears_the_entry_for_every_member(self, net):
        site = net.any_address()
        for i in range(3):
            net.submit_sql(grouped_sql(1.5 + i), node=site)
        net.advance(25.0)
        for address in net.addresses():
            engine = net.node(address).engine
            members = [
                op for srec in engine._spines.values()
                for op in srec.execution.ops.values()
                if isinstance(op, Exchange)
            ]
            assert len(members) == 3
            # Every member routes under the stage's one namespace.
            (route_ns,) = {x._route_ns for x in members}
            learned = [
                storage_key(route_ns, (float(v),)) for v in range(1, 9)
                if engine.cached_owner(storage_key(route_ns, (float(v),)))
            ]
            if learned:
                break
        else:
            pytest.fail("no node learned an owner for the fleet")
        key = learned[0]
        assert all(x._owner_fn(key) is not None for x in members)
        engine._on_direct({"op": "xowner_stale", "key": key}, site)
        assert all(x._owner_fn(key) is None for x in members)

    def test_spine_ships_one_result_message_per_site(self, net):
        results = collections.defaultdict(list)
        sent = []
        record_sends(net, "qres", sent)
        site = net.any_address()
        first = [net.submit_sql(VARIANTS[i % len(VARIANTS)], node=site,
                                on_epoch=results[i].append)
                 for i in range(5)]
        net.advance(10.0)  # one period: the rest join at offset 1
        later = [net.submit_sql(VARIANTS[i % len(VARIANTS)], node=site,
                                on_epoch=results[5 + i].append)
                 for i in range(5)]
        fleet = first + later
        assert len({h.plan.metadata["spine"] for h in fleet}) == 1
        coordinator = net.node(site).coordinator
        handed = []
        on_result = coordinator.on_result

        def probe(payload):
            handed.append(payload)
            on_result(payload)

        coordinator.on_result = probe
        net.advance(40.0)

        # Each subscriber is listed under its own epoch number: one
        # spine epoch, shifted by the subscriber's offset.
        offsets = {h.qid: (0 if h in first else 1) for h in fleet}
        per_send = collections.Counter()
        for t, src, dst, payload in sent:
            subs = dict(payload["subs"])
            assert set(subs) <= set(offsets)
            (spine_epoch,) = {subs[q] + offsets[q] for q in subs}
            per_send[(t, src, dst, spine_epoch)] += 1
        assert set(per_send.values()) == {1}
        assert max(len(payload["subs"]) for *_rest, payload in sent) == 10
        # ...in its own list: changing one handle's rows leaves the
        # others unchanged.
        fanned = [p for p in handed if p["node"] == handed[0]["node"]
                  and p["rows"] == handed[0]["rows"]][:2]
        assert len(fanned) == 2 and fanned[0]["qid"] != fanned[1]["qid"]
        fanned[0]["rows"].append(("junk",))
        assert fanned[1]["rows"] != fanned[0]["rows"]
        # Aligned epochs agree across the two submission waves.
        early, late = results[0], results[5]
        early_rows = {r.epoch: sorted(r.rows) for r in early}
        late_rows = {r.epoch: sorted(r.rows) for r in late}
        shared = [j for j in late_rows if j + 1 in early_rows]
        assert shared
        for j in shared:
            assert _rows_match(late_rows[j], early_rows[j + 1])
