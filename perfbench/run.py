"""The PIER benchmark: one command, every metric, checked answers.

    python3 perfbench/run.py --workload monitor_fleet --seed 1 \\
        --seconds 30 --trace 0 --kernel-ref 0.015

Runs repetitions of one workload (``rep.py``), each in a fresh
interpreter, alternating ``PYTHONHASHSEED`` 0 and 1, until ``--seconds``
of wall time have passed. Every repetition must decide the same thing:
identical sim counters, latency samples and answers, or the run fails
without a result (the replay check). With ``--trace 1`` every other
repetition is traced and the per-layer metrics come from the traced
one with the median run time; end-to-end metrics always come from
untraced repetitions.

CPU seconds are normalized to a reference machine speed: each chunk
of two sim seconds counts ``cpu * kernel_ref / kernel``, where
``kernel`` is the mean time of the calibration kernel in ``rep.py`` run
just before and just after the chunk. ``--kernel-ref`` is the kernel's
time on the reference machine and is fixed in BENCHMARK.json, so no
change to the program can move the normalizer.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics of the chosen mode, each with its unit.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, layer_metrics  # noqa: E402

# A run must end within 180 s whatever happens; leave room to report.
HARD_LIMIT = 170.0
MAX_REPS = 16


def run_rep(workload, seed, traced, hashseed, timeout):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "rep.py"), workload, str(seed),
         "1" if traced else "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError("repetition failed:\n" + proc.stderr)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["traced"] = traced
    record["hashseed"] = hashseed
    return record


def normalize(record, kernel_ref):
    """(set-up, run) CPU seconds at the reference machine speed."""
    return tuple(sum(cpu * kernel_ref / speed for cpu, _wall, speed in chunks)
                 for chunks in (record["setup"], record["run"]))


def collect(args):
    """Repetitions until ``--seconds`` have passed (at least one of each
    hash seed, and one traced with ``--trace 1``)."""
    started = time.monotonic()
    reps = []
    while len(reps) < MAX_REPS:
        i = len(reps)
        elapsed = time.monotonic() - started
        if elapsed >= args.seconds and i >= 2:
            break
        reps.append(run_rep(
            args.workload, args.seed, traced=bool(args.trace and i % 2),
            hashseed=i % 2, timeout=max(1.0, HARD_LIMIT - elapsed)))
    return reps


def end_to_end(untraced, kernel_ref):
    first = untraced[0]
    normalized = [normalize(r, kernel_ref) for r in untraced]
    return {
        "setup_s": statistics.median(s for s, _r in normalized),
        "run_cpu_s": statistics.median(r for _s, r in normalized),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced),
        "answer_latency_p50_s": first["latency_p50"],
        "answer_latency_p99_s": first["latency_p99"],
        "messages_sent": first["traffic"]["messages_sent"],
        "bytes_sent": first["traffic"]["bytes_sent"],
        "site_inbound_bytes": first["traffic"]["site_inbound_bytes"],
    }


def per_layer(reps, kernel_ref):
    untraced = [normalize(r, kernel_ref)[1] for r in reps if not r["traced"]]
    traced = sorted((r for r in reps if r["traced"]),
                    key=lambda r: normalize(r, kernel_ref)[1])
    chosen = traced[(len(traced) - 1) // 2]
    m = layer_metrics(chosen)
    m["trace.overhead_ratio"] = (normalize(chosen, kernel_ref)[1]
                                 / statistics.median(untraced))
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--kernel-ref", type=float, required=True,
                        help="calibration kernel seconds on the reference "
                             "machine")
    args = parser.parse_args(argv)
    # A terminated run raises SystemExit, and subprocess.run kills the
    # repetition it is waiting on before the exception propagates.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("terminated"))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("no program to measure: {} has no src/repro".format(ROOT))

    try:
        reps = collect(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.exit(str(exc))
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        sys.exit("replay check failed: {} repetitions of seed {} under "
                 "PYTHONHASHSEED 0/1 decided {} different runs".format(
                     len(reps), args.seed, len(digests)))

    untraced = [r for r in reps if not r["traced"]]
    first = untraced[0]
    print("workload {} seed {}: {} repetitions ({} traced), {} answers, "
          "{} failed, {} latency samples".format(
              args.workload, args.seed, len(reps), len(reps) - len(untraced),
              first["attempted"], len(first["failed"]), first["samples"]))
    for answer_id in first["failed"][:20]:
        print("  wrong or missing answer:", answer_id)
    if args.trace:
        units = {name: unit for name, unit, _better in PER_LAYER}
        values = per_layer(reps, args.kernel_ref)
    else:
        units = {name: unit for name, unit, _better, _bound in END_TO_END}
        values = end_to_end(untraced, args.kernel_ref)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print("  {:<50} {:>16.6g} {}".format(name, metric["value"],
                                             metric["unit"]))
    print(json.dumps({
        "correct": not first["failed"],
        "attempted": first["attempted"],
        "failed": len(first["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
