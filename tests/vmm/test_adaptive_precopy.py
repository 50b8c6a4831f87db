"""Unit tests: adaptive precopy — non-convergence detection, QEMU-style
auto-converge throttling, and the downtime/iteration SLA."""

import pytest

from repro.guestos.process import MemoryWriter
from repro.hardware.calibration import PAPER_CALIBRATION
from repro.units import GiB, MiB
from repro.vmm.guest_memory import PageClass
from repro.vmm.policy import DEFAULT_POLICY, MigrationPolicy
from repro.vmm.qemu import QemuProcess
from repro.vmm.vm import RunState
from tests.conftest import drive


@pytest.fixture
def qemu(cluster):
    q = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    q.boot()
    return q


def _hot_writer(qemu, array_bytes=512 * MiB):
    """A dirtying loop faster than the 1.3 Gbps migration thread: plain
    precopy can never converge on it without throttling."""
    return MemoryWriter(
        qemu.vm,
        array_bytes,
        page_class=PageClass.DATA,
        chunk_bytes=2 * MiB,
        write_Bps=2 * GiB,
    )


def _migrate(cluster, qemu, dst_name, policy, before_s=1.0):
    env = cluster.env

    def main(env):
        yield env.timeout(before_s)
        job = qemu.migrate(cluster.node(dst_name), policy=policy)
        stats = yield job.done
        return stats

    return drive(env, main(env))


def test_policy_validation():
    with pytest.raises(ValueError):
        MigrationPolicy(postcopy="sometimes")
    with pytest.raises(ValueError):
        MigrationPolicy(throttle_max=1.5)
    with pytest.raises(ValueError):
        MigrationPolicy(non_convergence_rounds=0)
    adaptive = MigrationPolicy.adaptive()
    assert adaptive.auto_converge and adaptive.postcopy == "fallback"
    assert not DEFAULT_POLICY.auto_converge
    assert not DEFAULT_POLICY.postcopy_enabled


def test_auto_converge_throttles_until_convergence(cluster, qemu):
    """Auto-converge kicks escalate the vCPU throttle; the throttled
    guest dirties slower, precopy converges, and the forced stop fits the
    downtime budget instead of livelocking at the round cap."""
    writer = _hot_writer(qemu)
    cluster.env.process(writer.run())
    policy = MigrationPolicy.adaptive(
        postcopy="off",
        non_convergence_rounds=1,
        throttle_increment=0.2,
    )
    stats = _migrate(cluster, qemu, "ib02", policy)
    writer.stop()

    assert stats.status == "completed"
    assert stats.mode == "precopy"
    assert stats.auto_converge_kicks >= 2
    assert not stats.sla_violated
    assert stats.iterations < PAPER_CALIBRATION.max_precopy_rounds
    # The throttle actually reached the guest (per-round telemetry) …
    throttles = [r.throttle for r in stats.rounds]
    assert max(throttles) >= policy.throttle_initial
    # … and was dropped again after completion.
    assert qemu.vm.cpu_throttle == 0.0
    assert stats.throttle_pct == 0.0
    assert qemu.vm.state is RunState.RUNNING
    assert qemu.node.name == "ib02"


def test_throttle_feeds_back_into_dirty_rate(cluster, qemu):
    """vm.cpu_throttle dilates the guest's writer loop — the mechanism
    auto-converge relies on."""
    writer = _hot_writer(qemu)
    rate_free = writer.write_Bps * qemu.vm.cpu_share
    qemu.vm.cpu_throttle = 0.9
    rate_throttled = writer.write_Bps * qemu.vm.cpu_share
    assert rate_throttled == pytest.approx(rate_free * 0.1)
    qemu.vm.cpu_throttle = 1.0  # share floors at 1 % — never divides by 0
    assert qemu.vm.cpu_share == pytest.approx(0.01)
    qemu.vm.cpu_throttle = 0.0


def test_round_cap_without_escalation_violates_sla(cluster, qemu):
    """With auto-converge and postcopy both off, a non-convergent guest
    hits the iteration cap and pays the un-bounded stop-and-copy — and
    the stats flag the SLA violation."""
    writer = _hot_writer(qemu)
    cluster.env.process(writer.run())
    policy = MigrationPolicy(max_iterations=4)
    stats = _migrate(cluster, qemu, "ib02", policy)
    writer.stop()

    assert stats.status == "completed"
    assert stats.sla_violated
    assert stats.downtime_s > PAPER_CALIBRATION.max_downtime_s
    assert stats.auto_converge_kicks == 0
    assert qemu.node.name == "ib02"


def test_downtime_limit_policy_overrides_calibration(cluster, qemu):
    """A generous per-policy downtime limit converges immediately where
    the calibration's 30 ms budget would have iterated."""
    writer = _hot_writer(qemu)
    cluster.env.process(writer.run())
    policy = MigrationPolicy(downtime_limit_s=30.0)
    stats = _migrate(cluster, qemu, "ib02", policy)
    writer.stop()

    assert stats.status == "completed"
    assert not stats.sla_violated
    assert stats.downtime_s <= 30.0
    assert stats.iterations <= 3


def test_per_round_downtime_estimates_recorded(cluster, qemu):
    writer = _hot_writer(qemu)
    cluster.env.process(writer.run())
    policy = MigrationPolicy.adaptive(
        postcopy="off", non_convergence_rounds=1, throttle_increment=0.2
    )
    stats = _migrate(cluster, qemu, "ib02", policy)
    writer.stop()

    estimates = [r.est_downtime_s for r in stats.rounds if r.est_downtime_s > 0]
    assert estimates, "no per-round downtime estimates recorded"
    # The unthrottled estimates dwarf the budget; the last ones shrink.
    assert max(estimates) > PAPER_CALIBRATION.max_downtime_s
    # Tracer carries the same per-round telemetry for the figures.
    assert cluster.tracer.series("migration", "round", "throttle")
    kicks = cluster.tracer.count("migration", "auto_converge")
    assert kicks == stats.auto_converge_kicks


def test_default_policy_preserves_plain_precopy(cluster, qemu):
    """No policy and the default policy are byte-identical behaviours."""
    stats = _migrate(cluster, qemu, "ib02", policy=None)
    assert stats.status == "completed"
    assert stats.mode == "precopy"
    assert stats.auto_converge_kicks == 0
    assert stats.switchover_at is None
    assert stats.postcopy_bytes == 0.0


@pytest.mark.parametrize("max_iterations", [1, 2, 3])
def test_stop_and_copy_runs_when_a_kick_lands_on_the_round_cap(cluster, qemu, max_iterations):
    """An auto-converge kick at the round cap buys one more round; the rule
    then stops at the cap, and the guest still gets its stop-and-copy pass
    before it relocates — whatever the cap's parity."""
    writer = _hot_writer(qemu)
    cluster.env.process(writer.run())
    policy = MigrationPolicy.adaptive(
        postcopy="off", non_convergence_rounds=1, max_iterations=max_iterations
    )
    stats = _migrate(cluster, qemu, "ib02", policy)
    writer.stop()

    assert stats.status == "completed"
    assert stats.sla_violated
    assert stats.auto_converge_kicks >= 1
    # The last round is the stop-and-copy: it ran with the guest paused,
    # inside the measured downtime.
    assert stats.downtime_s > PAPER_CALIBRATION.max_downtime_s
    assert stats.downtime_s >= stats.rounds[-1].duration_s
    assert qemu.node.name == "ib02"
