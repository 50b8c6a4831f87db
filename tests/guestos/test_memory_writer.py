"""Unit tests: the memtest memory-writer guest process."""

import pytest

from repro.errors import GuestError
from repro.guestos.process import MemoryWriter
from repro.units import GiB, MiB
from repro.vmm.guest_memory import PageClass
from repro.vmm.qemu import QemuProcess
from repro.vmm.vm import RunState
from tests.conftest import drive


@pytest.fixture
def qemu(cluster):
    q = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    q.boot()
    return q


def _sweep(writer, passes):
    """Write chunk by chunk until ``passes`` full sweeps are done."""
    while writer.passes < passes:
        yield from writer.step()
    return writer.passes


def test_write_pass_timing(cluster, qemu):
    env = cluster.env
    writer = MemoryWriter(qemu.vm, 1 * GiB, offset_bytes=1 * GiB)
    passes = drive(env, _sweep(writer, 2))
    assert passes == 2
    expected = 2 * GiB / cluster.calibration.mem_write_Bps
    assert env.now == pytest.approx(expected, rel=0.01)


def test_uniform_pattern_compressible(cluster, qemu):
    env = cluster.env
    writer = MemoryWriter(qemu.vm, 512 * MiB, page_class=PageClass.UNIFORM)
    drive(env, _sweep(writer, 1))
    dup, data = qemu.vm.memory.dup_and_data_pages()
    # Only the OS resident set is incompressible.
    resident_pages = cluster.calibration.guest_os_resident_bytes // 4096
    assert data == pytest.approx(resident_pages, rel=0.05)


def test_data_pattern_incompressible(cluster, qemu):
    env = cluster.env
    writer = MemoryWriter(qemu.vm, 512 * MiB, page_class=PageClass.DATA)
    drive(env, _sweep(writer, 1))
    assert qemu.vm.memory.data_bytes >= 512 * MiB


def test_paused_vm_stops_writer(cluster, qemu):
    env = cluster.env
    writer = MemoryWriter(qemu.vm, 1 * GiB, chunk_bytes=64 * MiB)
    env.process(writer.run())

    def pause_then_check(env):
        yield env.timeout(0.1)
        qemu.vm.set_state(RunState.PAUSED)
        writes_at_pause = qemu.vm.memory.total_writes
        yield env.timeout(10.0)
        # At most one in-flight chunk lands after the pause.
        assert qemu.vm.memory.total_writes - writes_at_pause <= 64 * MiB // 4096
        qemu.vm.set_state(RunState.RUNNING)
        yield env.timeout(0.2)
        assert qemu.vm.memory.total_writes > writes_at_pause
        writer.stop()

    drive(env, pause_then_check(env))


def test_array_exceeding_ram_rejected(cluster, qemu):
    with pytest.raises(GuestError):
        MemoryWriter(qemu.vm, 8 * GiB)  # VM has only 4 GiB


def test_step_returns_chunk(cluster, qemu):
    env = cluster.env
    writer = MemoryWriter(qemu.vm, 256 * MiB, chunk_bytes=128 * MiB)

    def main(env):
        first = yield from writer.step()
        second = yield from writer.step()
        return first, second, writer.passes

    first, second, passes = drive(env, main(env))
    assert first == second == 128 * MiB
    assert passes == 1


def test_duration_limit(cluster, qemu):
    env = cluster.env
    writer = MemoryWriter(qemu.vm, 1 * GiB)
    drive(env, writer.run(duration_s=0.5))
    assert env.now == pytest.approx(0.5, abs=writer.chunk_bytes / writer.write_Bps)
