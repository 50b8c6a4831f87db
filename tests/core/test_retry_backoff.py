"""Retry/backoff timing: the simulated-clock delay sequence is exact.

The orchestrator's backoff is a pure function of the attempt index (and,
when jitter is enabled, of the seeded ``ninja.backoff`` RNG stream), so
tests can assert the full delay sequence down to the clock tick.
"""

import pytest

from repro.core.faults import RetryPolicy
from repro.core.ninja import NinjaMigration
from repro.errors import QmpError
from repro.sim.rng import RngRegistry
from repro.testbed import busy_rank, create_job, provision_vms
from repro.units import GiB
from repro.hardware.cluster import build_agc_cluster
from tests.conftest import drive

pytestmark = pytest.mark.faults


def _setup(seed=0):
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2, seed=seed)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=1 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    job.launch(busy_rank)
    return cluster, vms, job


def _run(cluster, ninja, job, plan):
    def main():
        return (yield from ninja.execute(job, plan))

    return drive(cluster.env, main(), name="ninja")


def test_backoff_sequence_on_simulated_clock():
    """Two consecutive transient faults: the retry trace records land
    exactly base_delay apart (first backoff), and the retries dict counts
    both."""
    cluster, vms, job = _setup()
    policy = RetryPolicy(max_attempts=3, base_delay_s=0.5, factor=2.0)
    ninja = NinjaMigration(cluster, retry_policy=policy)
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    # The confirm-phase injection point costs no simulated time itself,
    # so inter-record gaps are purely the backoff delays.
    cluster.faults.arm(
        "ninja.confirm", error=QmpError("GenericError", "flaky"), times=2
    )

    result = _run(cluster, ninja, job, plan)

    assert not result.aborted
    assert result.retries == {"confirm": 2}
    records = list(cluster.tracer.select("ninja", "retry"))
    assert [r.fields["backoff_s"] for r in records] == [0.5, 1.0]
    # Attempt 2 starts exactly 0.5 s after attempt 1 failed and fails
    # instantly, so the second retry record is exactly one backoff later.
    assert records[1].time - records[0].time == pytest.approx(0.5, abs=1e-9)
    # The confirm phase span includes both backoffs plus the real confirm.
    confirm_s = result.timeline.total("confirm")
    expected_confirm = (
        0.5 + 1.0
        + cluster.calibration.hotplug_confirm_s
        * cluster.calibration.migration_noise_factor
    )
    assert confirm_s == pytest.approx(expected_confirm, rel=0.01)


def test_jittered_backoff_matches_seeded_stream():
    """With jitter on, the delays are still deterministic: they equal the
    sequence a fresh RngRegistry with the cluster's seed produces."""
    seed = 42
    cluster, vms, job = _setup(seed=seed)
    policy = RetryPolicy(max_attempts=3, base_delay_s=0.5, factor=2.0, jitter_rel=0.2)
    ninja = NinjaMigration(cluster, retry_policy=policy)
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    cluster.faults.arm(
        "ninja.confirm", error=QmpError("GenericError", "flaky"), times=2
    )

    result = _run(cluster, ninja, job, plan)

    assert not result.aborted
    expected = RetryPolicy(
        max_attempts=3, base_delay_s=0.5, factor=2.0, jitter_rel=0.2
    ).delays(RngRegistry(seed=seed))
    records = list(cluster.tracer.select("ninja", "retry"))
    observed = [r.fields["backoff_s"] for r in records]
    assert observed == [pytest.approx(d, abs=1e-6) for d in expected]
    assert observed != [0.5, 1.0]  # jitter actually perturbed the delays


def test_identical_seeds_produce_identical_runs():
    """End-to-end determinism: same seed, same faults → identical retry
    timestamps and identical total duration."""

    def one(seed):
        cluster, vms, job = _setup(seed=seed)
        ninja = NinjaMigration(
            cluster,
            retry_policy=RetryPolicy(max_attempts=3, jitter_rel=0.3),
        )
        plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
        cluster.faults.arm(
            "ninja.detach", error=QmpError("GenericError", "flaky"), times=2
        )
        result = _run(cluster, ninja, job, plan)
        times = [r.time for r in cluster.tracer.select("ninja", "retry")]
        return result.total_s, times

    assert one(7) == one(7)
    assert one(7) != one(8)
