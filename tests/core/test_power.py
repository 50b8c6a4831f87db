"""Unit tests: power model and power-aware placement."""

import pytest

from repro.core.power import PowerAwarePlacer, PowerMeter
from repro.errors import SchedulerError
from repro.hardware.cluster import build_agc_cluster
from repro.sim.core import Environment
from repro.testbed import create_job, provision_vms
from repro.units import GiB
from tests.conftest import drive
from tests.sim.eager_fairshare import EagerFairShare


def _setup(ib=2, eth=2, ppv=8):
    cluster = build_agc_cluster(ib_nodes=ib, eth_nodes=eth)
    hosts = [f"ib{i+1:02d}" for i in range(ib)]
    vms = provision_vms(cluster, hosts, memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=ppv)
    drive(cluster.env, job.init(), name="init")
    return cluster, vms, job


def test_standby_vs_active_power():
    cluster, vms, job = _setup()
    meter = PowerMeter(cluster)
    spec = meter.spec
    # ib01/ib02 host VMs (idle guests): idle draw. eth nodes: standby.
    assert meter.node_power_w(cluster.node("ib01")) == pytest.approx(spec.node_idle_w)
    assert meter.node_power_w(cluster.node("eth01")) == pytest.approx(spec.node_standby_w)


def test_switch_sleeps_when_rack_empty():
    cluster, vms, job = _setup()
    meter = PowerMeter(cluster)
    with_ib = meter.switch_power_w()
    for qemu in vms:
        qemu.shutdown()
    without_ib = meter.switch_power_w()
    assert with_ib - without_ib == pytest.approx(meter.spec.ib_switch_w)


def test_meter_integrates_energy():
    cluster, vms, job = _setup()
    env = cluster.env
    meter = PowerMeter(cluster, period_s=1.0).start()

    def run(env):
        yield vms[0].vm.compute(10.0, nthreads=8)
        meter.stop()

    drive(env, run(env))
    assert meter.energy_j > 0
    # Busy blade draws more than idle: mean power above the all-idle floor.
    idle_floor = (
        2 * meter.spec.node_idle_w
        + 2 * meter.spec.node_standby_w
        + meter.spec.eth_switch_w
        + meter.spec.ib_switch_w
    )
    assert meter.mean_power_w() > idle_floor


def test_meter_invalid_period():
    cluster, _, _ = _setup()
    with pytest.raises(SchedulerError):
        PowerMeter(cluster, period_s=0)


def test_placer_prefers_emptying_ib_rack():
    """With 2x overcommit allowed, two 8-vCPU VMs fit one Ethernet host
    — and parking the IB rack (blades + switch) is the cheapest plan."""
    cluster, vms, job = _setup()
    placer = PowerAwarePlacer(cluster, max_overcommit=2.0)
    plan = placer.plan(vms)
    assert set(plan.dst_hostlist) == {"eth01"}
    assert not any(e.attach_ib for e in plan.entries)


def test_placer_respects_overcommit_bound():
    cluster, vms, job = _setup()
    placer = PowerAwarePlacer(cluster, max_overcommit=1.0)
    plan = placer.plan(vms)
    # 16 vCPUs at 1.0x need two 8-core hosts.
    assert len(set(plan.dst_hostlist)) == 2


def test_placer_invalid_overcommit():
    cluster, _, _ = _setup()
    with pytest.raises(SchedulerError):
        PowerAwarePlacer(cluster, max_overcommit=0.5)


def test_power_saving_end_to_end():
    """Execute the placer's plan and measure the draw drop."""
    from repro.core.scheduler import CloudScheduler

    cluster, vms, job = _setup()
    env = cluster.env
    meter = PowerMeter(cluster, period_s=1.0)

    def busy(proc, comm):
        for _ in range(1_000_000):
            yield proc.vm.compute(0.2, nthreads=1)
            yield from comm.barrier()
        return None

    job.launch(busy)
    placer = PowerAwarePlacer(cluster, max_overcommit=2.0)
    scheduler = CloudScheduler(cluster)
    readings = {}

    def orchestrate(env):
        yield env.timeout(5.0)
        readings["before"] = meter.cluster_power_w()
        plan = placer.plan(vms)
        yield from scheduler.run_now("power", plan, job)
        yield env.timeout(5.0)
        readings["after"] = meter.cluster_power_w()

    drive(env, orchestrate(env))
    # Two loaded IB blades + IB switch → one loaded Ethernet blade.
    assert readings["after"] < readings["before"]
    saved = readings["before"] - readings["after"]
    assert saved > meter.spec.ib_switch_w  # at least the switch + a blade


def test_power_read_in_the_submit_instant_counts_the_new_threads():
    """A node's draw read in the instant threads start counts them, as the
    eager CPU service (one solve per submit) did."""
    cluster = build_agc_cluster(ib_nodes=1, eth_nodes=1)
    provision_vms(cluster, ["ib01"], memory_bytes=4 * GiB)
    node = cluster.node("ib01")
    meter = PowerMeter(cluster)
    spec = meter.spec
    eager = EagerFairShare(Environment(), capacity=node.cpu.cores)
    for _ in range(10):  # the last two overcommit the 8 cores
        node.cpu.run_thread(1.0)
        eager.submit(1.0, cap=1.0)
        expected = spec.node_idle_w + eager.utilization * node.cpu.cores * spec.node_per_core_w
        assert meter.node_power_w(node) == expected
    assert meter.node_power_w(node) == spec.node_idle_w + 8 * spec.node_per_core_w
