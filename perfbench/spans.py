"""Spans around the calls into each layer, installed from outside.

The traced run wraps public functions of the program's layers (and the
few call sites the per-layer metrics need) in spans. A span records its
call count and its *self* time: its duration minus the time covered by
its child spans. Spans are kept in memory and summarised at the end.

The wrappers change no behaviour; the replay check compares the traced
run's answers and sim counters with the untraced run's.
"""

import sys
import types
from time import perf_counter

# Module, attribute, span name: functions wrapped where they are defined.
_CLASS_SPANS = (
    ("repro.sim.clock", "SimClock.run_until", "sim.clock.run_until"),
    ("repro.sim.network", "Network.send", "sim.network.send"),
    ("repro.sim.network", "Network._deliver", "sim.network.deliver"),
    ("repro.dht.chord", "ChordNode.closest_preceding",
     "dht.chord.closest_preceding"),
    ("repro.dht.chord", "ChordNode.handle_message", "dht.chord.handle_message"),
    ("repro.dht.chord", "ChordNode.route", "dht.chord.route"),
    ("repro.dht.chord", "ChordNode.route_via", "dht.chord.route_via"),
    ("repro.dht.chord", "ChordNode.route_through", "dht.chord.route_through"),
    ("repro.dht.chord", "ChordNode.forward_route", "dht.chord.forward_route"),
    ("repro.dht.chord", "ChordNode.lookup", "dht.chord.lookup"),
    ("repro.dht.chord", "ChordNode.get", "dht.chord.get"),
    ("repro.dht.chord", "ChordNode.put", "dht.chord.put"),
    ("repro.dht.chord", "ChordNode.broadcast", "dht.chord.broadcast"),
    ("repro.db.window", "TimeWindow.append", "db.window.TimeWindow.append"),
    ("repro.db.window", "TimeWindow.scan_window",
     "db.window.TimeWindow.scan_window"),
    ("repro.core.engine", "PierEngine.stream_append",
     "core.engine.stream_append"),
    ("repro.core.catalog", "StatsCatalog.note_append",
     "core.catalog.note_append"),
    ("repro.core.dataflow", "_ExecutionBase.start", "core.dataflow.start"),
    ("repro.core.dataflow", "StandingExecution.deliver_batch",
     "core.dataflow.deliver_batch"),
    ("repro.core.dataflow", "_ExecutionBase.deliver_batch",
     "core.dataflow.deliver_batch"),
    ("repro.core.dataflow", "StandingExecution.deliver_scan",
     "core.dataflow.deliver_scan"),
    ("repro.core.dataflow", "StandingExecution.advance_epoch",
     "core.dataflow.advance_epoch"),
    ("repro.core.exchange", "Exchange.flush", "core.exchange.flush"),
    ("repro.core.aggregation_tree", "TreeCombiner.handler",
     "core.aggregation_tree.TreeCombiner.handler"),
    ("repro.core.coordinator", "Coordinator.on_result",
     "core.coordinator.on_result"),
)

# Module-level names looked up at call time by the facade.
_GLOBAL_SPANS = (
    ("repro.core.network", "parse_query", "core.sql.parse_query"),
    ("repro.core.network", "plan_query", "core.planner.plan_query"),
)

# Where wire_size is called from: the module whose global is replaced.
# messages.py imports ``repro.util.serde.wire_size`` at call time, so
# its calls go through the serde module attribute.
_WIRE_SIZE_CALLERS = (
    ("repro.sim.network", "from_network"),
    ("repro.core.engine", "from_engine"),
    ("repro.core.exchange", "from_exchange"),
    ("repro.util.serde", "from_dht_messages"),
)

_OPERATOR_METHODS = ("start", "push", "push_batch", "flush", "control",
                     "open_epoch", "seal_epoch", "open_pane", "teardown")


class Tracer:
    """In-memory spans and counts for one traced run."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.rows = {}
        # Time covered by child spans, one accumulator per open span;
        # the bottom entry collects the top-level spans.
        self._stack = [0.0]
        # Span name -> the object whose span of that name is open.
        self._current = {}

    def reset(self):
        """Forget everything recorded so far (no span may be open)."""
        for table in (self.calls, self.self_s, self.rows):
            for name in table:
                table[name] = type(table[name])()

    def span(self, name, fn, rows=None):
        """``fn`` wrapped in a span called ``name``.

        ``rows(args)`` optionally counts the rows a call carries; a call
        nested directly in a span of the same name is not counted again
        (the base ``push_batch`` unrolls into ``push``).
        """
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        row_counts = self.rows
        current = self._current
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        row_counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            outer = current.get(name)
            if rows is not None and outer is not args[0]:
                row_counts[name] += rows(args)
            current[name] = args[0] if args else None
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                current[name] = outer

        return wrapper

    def install(self):
        """Wrap every boundary that exists in this version of the code."""
        for module, path, name in _CLASS_SPANS:
            owner, attr = _resolve(module, path)
            if owner is not None and attr in owner.__dict__:
                setattr(owner, attr, self.span(name, owner.__dict__[attr]))
        for module, attr, name in _GLOBAL_SPANS:
            mod = sys.modules.get(module)
            if mod is not None and attr in mod.__dict__:
                setattr(mod, attr, self.span(name, mod.__dict__[attr]))
        self._install_clock()
        self._install_wire_size()
        self._install_operators()

    def _install_clock(self):
        """Count scheduled events and time fired callbacks.

        Each scheduled callback is swapped for a trampoline that runs it
        inside a ``callback`` span, so ``run_until``'s self time is the
        scheduler's own work: the heap pops and the loop around them.
        """
        from repro.sim.clock import SimClock

        schedule_at = SimClock.__dict__.get("schedule_at")
        if schedule_at is None:
            return
        callback_span = self.span("callback", _call)

        def traced_schedule_at(clock, time, callback, *args):
            return schedule_at(clock, time, callback_span, callback, *args)

        SimClock.schedule_at = self.span("sim.clock.schedule_at",
                                         traced_schedule_at)

    def _install_wire_size(self):
        """Time only the outermost ``wire_size`` call, split by caller.

        The recursion runs in a private copy of the function whose
        globals point at the copy itself, so nested elements cost no
        wrapper. Calls that re-enter through a message's own size method
        while a span is open are counted but not timed again.
        """
        import repro.util.serde as serde

        original = serde.__dict__.get("wire_size")
        if original is None:
            return
        namespace = dict(serde.__dict__)
        inner = types.FunctionType(original.__code__, namespace, "wire_size")
        namespace["wire_size"] = inner
        depth = [0]
        calls = self.calls

        for module, caller in _WIRE_SIZE_CALLERS:
            mod = sys.modules.get(module)
            if mod is None or "wire_size" not in mod.__dict__:
                continue
            name = "util.serde.wire_size." + caller
            timed = self.span(name, inner)

            def wire_size(value, _timed=timed, _name=name):
                if depth[0]:
                    calls[_name] += 1
                    return inner(value)
                depth[0] = 1
                try:
                    return _timed(value)
                finally:
                    depth[0] = 0

            setattr(mod, "wire_size", wire_size)

    def _install_operators(self):
        import repro.core.operators as operators

        registry = getattr(operators, "_REGISTRY", {})
        def batch_rows(args):
            return len(args[1])

        def one_row(args):
            return 1

        for kind, cls in sorted(registry.items()):
            name = "core.operators.{}".format(kind)
            for method in _OPERATOR_METHODS:
                fn = getattr(cls, method, None)
                if fn is None:
                    continue
                rows = {"push": one_row, "push_batch": batch_rows}.get(method)
                setattr(cls, method, self.span(name, fn, rows))
        exchange = registry.get("exchange")
        if exchange is not None:
            # Rows entering exchanges as batches, counted apart from the
            # per-kind span (which also sees row-at-a-time pushes).
            name = "core.exchange.push_batch"
            self.rows.setdefault(name, 0)
            wrapped = exchange.push_batch

            def push_batch(op, batch, port=0):
                self.rows[name] += len(batch)
                return wrapped(op, batch, port)

            exchange.push_batch = push_batch


def _call(callback, *args):
    return callback(*args)


def _resolve(module, path):
    mod = sys.modules.get(module)
    if mod is None:
        return None, None
    owner_name, attr = path.rsplit(".", 1)
    return getattr(mod, owner_name, None), attr
