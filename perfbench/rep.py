"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py <workload> <seed> <traced: 0|1>

Builds the testbed (set-up), runs the measured phase, checks every
answer, and prints one JSON record on stdout. ``run.py`` starts these
under different ``PYTHONHASHSEED`` values and compares their digests.

CPU time is taken with ``time.process_time``, in chunks of two sim
seconds for the warm-up and the measured phase. The calibration kernel
runs between chunks and is timed on its own: its time is excluded from
both phases, and the kernel times around a chunk are what ``run.py``
normalizes that chunk's CPU time by.
"""

import gc
import hashlib
import heapq
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

# Sim seconds between two runs of the calibration kernel.
CHUNK = 2.0


def kernel():
    """Fixed pure-Python work: the calibration kernel.

    A mix of what the simulator spends its time on -- dict updates,
    tuple-keyed heap pushes and pops, string building and small calls.
    It depends on nothing in the repository, so no change to the
    program can move it.
    """
    table = {}
    heap = []
    acc = 0
    for i in range(9000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, (key, i, "n{}".format(key)))
    while heap:
        key, i, name = heapq.heappop(heap)
        acc += len(name) + table[key] % 7
    return acc


def timed_kernel():
    # The cyclic collector would charge a sweep of the simulation's heap
    # to the kernel; the kernel frees everything it allocates.
    gc.disable()
    try:
        start = time.process_time()
        kernel()
        return time.process_time() - start
    finally:
        gc.enable()


class Meter:
    """CPU and wall time of a phase, excluding the kernel runs in it.

    Each ``with`` block is one chunk; a kernel run follows every chunk.
    ``take()`` returns the phase's chunks as (cpu, wall, speed), where
    speed is the mean of the kernel times just before and just after.
    """

    def __init__(self, kernels):
        self.kernels = kernels
        self.chunks = []

    def __enter__(self):
        self._cpu = time.process_time()
        self._wall = time.perf_counter()

    def __exit__(self, *exc):
        cpu = time.process_time() - self._cpu
        wall = time.perf_counter() - self._wall
        self.kernels.append(timed_kernel())
        self.chunks.append((cpu, wall, sum(self.kernels[-2:]) / 2))

    def take(self):
        chunks, self.chunks = self.chunks, []
        return chunks


def advance(net, until, meter):
    """Run the clock to ``until``, one metered chunk per CHUNK sim seconds."""
    while net.now < until:
        with meter:
            net.advance(min(CHUNK, until - net.now))


def percentile(ordered, q):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv):
    name, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[name](seed)
    gc.collect()
    kernels = [timed_kernel()]
    meter = Meter(kernels)
    with meter:
        warm_until = workload.setup()
    advance(workload.net, warm_until, meter)
    setup = meter.take()

    net = workload.net
    if tracer is not None:
        tracer.reset()
    with meter:
        end = workload.begin()
    advance(net, end, meter)
    run = meter.take()

    answers = workload.answers()
    failed = [answer_id for answer_id, ok, _got in answers if not ok]
    counters = workload.counters()
    traffic = {k: counters[k] - workload.before[k] for k in counters}
    inbound = net.net.inbound_bytes
    samples = sorted(workload.samples)
    record = {
        "setup": setup,
        "run": run,
        "kernel": kernels,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(answers),
        "failed": failed,
        "samples": len(samples),
        "latency_p50": percentile(samples, 0.50) if samples else None,
        "latency_p99": percentile(samples, 0.99) if samples else None,
        "traffic": traffic,
        "events_fired": net.clock.events_fired,
        "queries": len(workload.handles),
        "nodes": len(net.nodes),
        "rows_received": workload.rows_received,
        "late_rows": workload.late_rows,
        "max_node_inbound_share": (
            max(inbound.values()) / sum(inbound.values()) if inbound else 0.0),
    }
    # Everything the simulation decided, for the replay check.
    digest = hashlib.sha256(repr((
        sorted(net.message_counters().items()), record["events_fired"],
        workload.samples, answers, workload.rows_received,
        workload.late_rows,
    )).encode()).hexdigest()
    record["digest"] = digest
    if tracer is not None:
        record["spans"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                           "rows": tracer.rows}
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
