"""QEMU Monitor Protocol (QMP): the control plane SymVirt agents drive.

The agents in the paper connect to each QEMU's monitor socket and issue
``migrate``, ``device_add`` and ``device_del`` (Section III-C).  Here the
protocol is modelled as structured command execution with the monitor
round-trip latency; command semantics call straight into the QEMU model.

Commands are generators — drive them with ``yield from``::

    result = yield from client.execute("device_del", id="vf0")
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import QmpError
from repro.vmm.vm import RunState

if TYPE_CHECKING:  # pragma: no cover
    from repro.vmm.qemu import QemuProcess


class QmpServer:
    """The monitor endpoint of one QEMU process."""

    def __init__(self, qemu: "QemuProcess") -> None:
        self.qemu = qemu
        self.env = qemu.env
        #: Executed commands (name, arguments) for tests/diagnostics.
        self.command_log: list[tuple[str, dict]] = []

    def execute(self, command: str, **arguments: Any):
        """Run a QMP command (generator; returns the command's result)."""
        handler = getattr(self, f"_cmd_{command.replace('-', '_')}", None)
        if handler is None:
            raise QmpError("CommandNotFound", f"The command {command} has not been found")
        yield self.env.timeout(self.qemu.calibration.qmp_rtt_s)
        # Fault-injection site: models monitor-socket failures (the command
        # round-trip was paid; the command itself errors or never lands).
        yield from self.qemu.cluster.faults.perturb(f"qmp.{command}")
        self.command_log.append((command, arguments))
        result = handler(**arguments)
        return result

    # -- command handlers ---------------------------------------------------------

    def _cmd_query_status(self) -> dict:
        vm = self.qemu.vm
        return {"status": vm.state.value, "running": vm.state is RunState.RUNNING}

    def _cmd_stop(self) -> dict:
        self.qemu.vm.set_state(RunState.PAUSED)
        return {}

    def _cmd_cont(self) -> dict:
        self.qemu.vm.set_state(RunState.RUNNING)
        return {}

    def _cmd_device_del(self, id: str) -> dict:
        """Begin removal of a hot-pluggable device.

        Like real QEMU this only *initiates* the ACPI eject; callers that
        need completion drive the hotplug controller (the SymVirt agent
        does so and that is what Table II times).
        """
        assignment = self.qemu.assignments.get(id)
        if assignment is None or not assignment.attached:
            raise QmpError("DeviceNotFound", f"Device '{id}' not found")
        return {"pending": id}

    def _cmd_device_add(self, driver: str, id: str, host: str = "") -> dict:
        """Validate a hot-add request (the agent then drives completion)."""
        if driver != "vfio-pci":
            raise QmpError("InvalidParameter", f"unsupported driver {driver!r}")
        assignment = self.qemu.assignments.get(id)
        if assignment is None:
            raise QmpError("DeviceNotFound", f"no assignment tagged '{id}'")
        if assignment.attached:
            raise QmpError("DuplicateId", f"Duplicate ID '{id}' for device")
        return {"pending": id}

    def _cmd_migrate(self, uri: str, policy=None) -> dict:
        """Start a migration to ``uri`` (``tcp:<host>:4444``).

        ``policy`` carries the degraded-path escalation knobs (QEMU splits
        these across migrate-set-capabilities/-parameters; one object here).
        Raises the migration-blocker error when a passthrough device is
        still attached — the exact failure Ninja migration avoids.
        """
        host = _parse_migration_uri(uri)
        try:
            dst_node = self.qemu.cluster.node(host)
        except Exception as err:
            raise QmpError("MigrationError", f"cannot resolve {uri!r}") from err
        job = self.qemu.migrate(dst_node, policy=policy)
        return {"job": job}

    def _cmd_migrate_set_speed(self, value: float) -> dict:
        """Cap the migration stream rate (bytes/second).

        Like real QEMU the single-threaded CPU ceiling still applies —
        the knob can only slow the stream down.
        """
        if value <= 0:
            raise QmpError("InvalidParameter", "speed must be positive")
        self.qemu.migration_speed_Bps = float(value)
        return {}

    def _cmd_migrate_set_downtime(self, value: float) -> dict:
        """Set the stop-and-copy downtime budget (seconds)."""
        if value <= 0:
            raise QmpError("InvalidParameter", "downtime must be positive")
        self.qemu.migration_max_downtime_s = float(value)
        return {}

    def _cmd_query_migrate(self) -> dict:
        job = self.qemu.current_migration
        if job is None:
            return {"status": "none"}
        stats = job.stats
        return {
            "status": stats.status,
            "mode": stats.mode,
            "total-time": int(stats.total_time_s * 1000),
            "downtime": int(stats.downtime_s * 1000),
            "cpu-throttle-percentage": stats.throttle_pct,
            "ram": {
                "transferred": int(stats.wire_bytes),
                "duplicate": stats.dup_pages,
                "normal": stats.data_pages,
                "iterations": stats.iterations,
                "postcopy-bytes": int(stats.postcopy_bytes),
            },
        }


def _parse_migration_uri(uri: str) -> str:
    """Extract the destination host from ``tcp:<host>:<port>``."""
    parts = uri.split(":")
    if len(parts) < 2 or parts[0] != "tcp":
        raise QmpError("InvalidParameter", f"bad migration URI {uri!r}")
    return parts[1]


class QmpClient:
    """An agent's connection to one QEMU monitor."""

    def __init__(self, server: QmpServer) -> None:
        self.server = server

    def execute(self, command: str, **arguments: Any):
        """Issue a command (generator; ``yield from`` it)."""
        result = yield from self.server.execute(command, **arguments)
        return result
