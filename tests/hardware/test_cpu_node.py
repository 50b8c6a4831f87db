"""Unit tests: host CPU fair-share and the physical node."""

import pytest

from repro.errors import HardwareError
from repro.hardware.cpu import HostCpu
from repro.hardware.node import PhysicalNode
from repro.hardware.specs import AGC_NODE_SPEC
from repro.sim.core import Environment
from repro.units import GiB
from tests.sim.eager_fairshare import EagerFairShare


# -- HostCpu ------------------------------------------------------------------


def test_single_thread_unit_rate(env):
    cpu = HostCpu(env, cores=8)
    task = cpu.run_thread(4.0)
    env.run()
    assert task.finished_at == pytest.approx(4.0)


def test_thread_capped_at_one_core(env):
    """One thread never exceeds one core even with idle capacity."""
    cpu = HostCpu(env, cores=8)
    task = cpu.run_thread(4.0)
    env.run()
    assert task.finished_at == pytest.approx(4.0)  # not 0.5


def test_load_read_in_the_submit_instant_equals_the_eager_value(env):
    """``load`` solves a share whose rates are stale: a reading in the
    instant of a submit equals the eager service's, which solved at it."""
    cpu = HostCpu(env, cores=2)
    eager = EagerFairShare(Environment(), capacity=2.0)
    loads = []
    for cpu_seconds, max_cores in [(1.0, 1.0), (0.0, 1.0), (3.0, 0.5), (2.0, 1.5), (0.5, 1.0)]:
        cpu.run_task(cpu_seconds, max_cores=max_cores)
        eager.submit(cpu_seconds, weight=max_cores, cap=max_cores)
        loads.append((cpu.load, eager.utilization * 2))
    assert [batched for batched, _ in loads] == [e for _, e in loads]
    assert [batched for batched, _ in loads] == [1.0, 1.0, 1.5, 2.0, 2.0]


def test_overcommit_dilates(env):
    """16 threads on 8 cores run at half speed (Figure 8's contention)."""
    cpu = HostCpu(env, cores=8)
    barrier = cpu.run_parallel(2.0, nthreads=16)
    env.run()
    assert env.now == pytest.approx(4.0)


def test_exact_fit_no_dilation(env):
    cpu = HostCpu(env, cores=8)
    barrier = cpu.run_parallel(2.0, nthreads=8)
    env.run()
    assert env.now == pytest.approx(2.0)


def test_run_task_multi_core(env):
    cpu = HostCpu(env, cores=8)
    task = cpu.run_task(4.0, max_cores=2.0)
    env.run()
    assert task.finished_at == pytest.approx(2.0)


def test_invalid_args(env):
    cpu = HostCpu(env, cores=2)
    with pytest.raises(HardwareError):
        cpu.run_thread(-1.0)
    with pytest.raises(HardwareError):
        cpu.run_parallel(1.0, nthreads=0)
    with pytest.raises(HardwareError):
        cpu.run_task(1.0, max_cores=0)
    with pytest.raises(HardwareError):
        HostCpu(env, cores=0)


# -- PhysicalNode ------------------------------------------------------------------


def test_node_from_agc_spec(env):
    node = PhysicalNode(env, "ib01", AGC_NODE_SPEC)
    assert node.cpu.cores == 8  # 2 sockets x 4 cores, HT off
    assert node.free_memory == 48 * GiB
    assert node.infiniband_hca() is not None
    assert node.ethernet_nic() is not None
    assert str(node.infiniband_hca().address) == "04:00.0"


def test_memory_reservation(env):
    node = PhysicalNode(env, "n", AGC_NODE_SPEC)
    node.reserve_memory(20 * GiB)
    assert node.free_memory == 28 * GiB
    node.reserve_memory(20 * GiB)
    with pytest.raises(HardwareError):
        node.reserve_memory(20 * GiB)
    node.release_memory(20 * GiB)
    assert node.free_memory == 28 * GiB


def test_contention_factor_needs_ranks(env):
    node = PhysicalNode(env, "n", AGC_NODE_SPEC)
    assert node.busy_threads == 0
    assert node.contention_factor(2.8) == 1.0


def test_has_infiniband_requires_cabling(env):
    node = PhysicalNode(env, "n", AGC_NODE_SPEC)
    # HCA present but no fabric port wired:
    assert node.infiniband_hca() is not None
    assert not node.has_infiniband
