"""Runs replay exactly from their seed, whatever ``PYTHONHASHSEED`` is.

Python salts ``str`` hashes per process, so any code path that walks a
set (or anything else ordered by hash) in a way that reaches the
simulation makes a run depend on the interpreter's hash seed. Each case
below runs in fresh interpreters under two hash seeds and must print
exactly the same output; each pair is one that differed before its fix.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Storage order at one node follows the order rows were published in.
LSCAN_PROBE = """
from repro.apps.filesharing import FileSharingApp
from repro.core.network import PierNetwork

net = PierNetwork(nodes=16, seed=7)
app = FileSharingApp(net).publish_corpus()
net.advance(3)
print([tuple(item.value) for item in net.node("node1").chord.lscan(app.table)])
"""

# A plan with two scans starts, opens and seals both sources every
# epoch; the order must be the plan's, not the string-hash order of
# the scans' op ids. Hash seeds 0 and 4 ordered them differently.
JOIN_PROBE = """
from repro.core.network import PierNetwork

net = PierNetwork(nodes=8, seed=5)
for table, col in (("a", "x"), ("b", "y")):
    net.create_stream_table(table, [("k", "INT"), (col, "INT")], window=10.0)


def ticker(engine, i):
    def tick():
        n = int(engine.clock.now * 10)
        engine.stream_append("a", (n % 5, n))
        engine.stream_append("b", ((n + i) % 5, -n))
        engine.set_timer(0.5, tick)
    return tick


for i, address in enumerate(net.addresses()):
    engine = net.node(address).engine
    engine.set_timer(0.1 + 0.01 * i, ticker(engine, i))
results = []
net.submit_sql("SELECT a.x, b.y FROM a, b WHERE a.k = b.k EVERY 5 SECONDS "
               "WINDOW 5 SECONDS LIFETIME 20 SECONDS", on_epoch=results.append)
net.advance(30.0)
print([(r.epoch, r.rows) for r in results])
print(sorted(net.message_counters().items()))
"""


def run(args, hashseed):
    path = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, *args], cwd=str(ROOT), env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("args,other_seed", [
    (["-c", LSCAN_PROBE], 1),
    (["examples/topology_mapping.py"], 1),
    (["examples/filesharing_search.py"], 1),
    (["-c", JOIN_PROBE], 4),
], ids=["lscan_probe", "topology_mapping", "filesharing_search",
        "standing_join_probe"])
def test_output_independent_of_hash_seed(args, other_seed):
    first = run(args, 0)
    assert first.strip()
    assert run(args, other_seed) == first
