"""Unit tests: the QMP command surface."""

import pytest

from repro.errors import QmpError
from repro.units import GiB
from repro.vmm.qemu import QemuProcess
from repro.vmm.qmp import QmpClient, _parse_migration_uri
from repro.vmm.vm import RunState
from tests.conftest import drive


@pytest.fixture
def qemu(cluster):
    q = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    q.boot()
    return q


def _execute(cluster, qemu, command, **args):
    client = QmpClient(qemu.qmp)

    def main(env):
        result = yield from client.execute(command, **args)
        return result

    return drive(cluster.env, main(cluster.env))


def test_query_status(cluster, qemu):
    result = _execute(cluster, qemu, "query-status")
    assert result == {"status": "running", "running": True}


def test_stop_cont(cluster, qemu):
    _execute(cluster, qemu, "stop")
    assert qemu.vm.state is RunState.PAUSED
    _execute(cluster, qemu, "cont")
    assert qemu.vm.state is RunState.RUNNING


def test_command_rtt_charged(cluster, qemu):
    t0 = cluster.env.now
    _execute(cluster, qemu, "query-status")
    assert cluster.env.now - t0 == pytest.approx(cluster.calibration.qmp_rtt_s)


def test_unknown_command(cluster, qemu):
    with pytest.raises(QmpError, match="CommandNotFound"):
        _execute(cluster, qemu, "frobnicate")


def test_device_del_unknown_id(cluster, qemu):
    with pytest.raises(QmpError, match="DeviceNotFound"):
        _execute(cluster, qemu, "device_del", id="ghost")


def test_device_add_validations(cluster, qemu):
    with pytest.raises(QmpError, match="InvalidParameter"):
        _execute(cluster, qemu, "device_add", driver="e1000", id="x")
    with pytest.raises(QmpError, match="DeviceNotFound"):
        _execute(cluster, qemu, "device_add", driver="vfio-pci", id="ghost")


def test_device_add_duplicate(cluster, qemu):
    hca = cluster.node("ib01").infiniband_hca()
    assignment = qemu.assign_device(hca, "vf0")
    assignment.seat()
    with pytest.raises(QmpError, match="DuplicateId"):
        _execute(cluster, qemu, "device_add", driver="vfio-pci", id="vf0")


def test_migrate_command_runs_job(cluster, qemu):
    def main(env):
        client = QmpClient(qemu.qmp)
        result = yield from client.execute("migrate", uri="tcp:ib02:4444")
        yield result["job"].done
        status = yield from client.execute("query-migrate")
        return status

    status = drive(cluster.env, main(cluster.env))
    assert status["status"] == "completed"
    assert status["ram"]["transferred"] > 0
    assert qemu.node.name == "ib02"


def test_query_migrate_none(cluster, qemu):
    assert _execute(cluster, qemu, "query-migrate") == {"status": "none"}


def test_uri_parsing():
    assert _parse_migration_uri("tcp:host9:4444") == "host9"
    for uri in ("rdma:ib02:4444", "nfs://x"):
        with pytest.raises(QmpError):
            _parse_migration_uri(uri)


def test_command_log(cluster, qemu):
    _execute(cluster, qemu, "query-status")
    assert qemu.qmp.command_log[-1][0] == "query-status"
