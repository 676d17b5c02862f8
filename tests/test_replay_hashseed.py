"""Runs replay exactly from their seed, whatever ``PYTHONHASHSEED`` is.

Python salts ``str`` hashes per process, so any code path that walks a
set (or anything else ordered by hash) in a way that reaches the
simulation makes a run depend on the interpreter's hash seed. Each case
below runs in fresh interpreters under two hash seeds and must print
exactly the same output.
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


@pytest.mark.parametrize("args", [
    ["-c", LSCAN_PROBE],
    ["examples/topology_mapping.py"],
    ["examples/filesharing_search.py"],
], ids=["lscan_probe", "topology_mapping", "filesharing_search"])
def test_output_independent_of_hash_seed(args):
    first = run(args, 0)
    assert first.strip()
    assert run(args, 1) == first
