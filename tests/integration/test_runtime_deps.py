"""The runtime needs numpy only: no entry point may import networkx.

networkx is a test-only dependency (the router oracle in
``tests/network/test_router_oracle.py`` compares against it).  A child
interpreter where ``import networkx`` fails imports ``repro`` and runs a
quickstart-sized fallback — the 4 + 4 AGC testbed, four VMs moved from
InfiniBand to Ethernet while an MPI job keeps exchanging — so any
runtime path that reaches for networkx fails here.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]

_CHILD = """
import sys
sys.modules["networkx"] = None  # any `import networkx` now raises ImportError

import repro
from repro.units import MiB

cluster = repro.build_agc_cluster(ib_nodes=4, eth_nodes=4)
env = cluster.env


def rank_main(proc, comm):
    peer = comm.rank ^ 1
    for _ in range(20):
        yield from comm.sendrecv(peer, 32 * MiB, peer, tag=1)
        yield env.timeout(1.0)


def experiment():
    vms = repro.provision_vms(cluster, ["ib01", "ib02", "ib03", "ib04"])
    job = repro.create_job(cluster, vms, procs_per_vm=1)
    yield from job.init()
    job.launch(rank_main)
    yield env.timeout(2.0)
    scheduler = repro.CloudScheduler(cluster)
    yield from scheduler.run_now("maintenance", scheduler.plan_fallback(vms), job)
    yield job.wait()
    print(sorted(q.node.name for q in vms), sorted(job.comm_stats()))


env.process(experiment())
env.run()
"""


def test_import_and_fallback_run_without_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    child = subprocess.run(
        [sys.executable, "-c", _CHILD],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=100,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == (
        "['eth01', 'eth02', 'eth03', 'eth04'] ['openib', 'tcp']"
    )
