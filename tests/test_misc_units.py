"""Unit tests: error hierarchy, message datatypes, misc helpers."""

import pytest

from repro import errors
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, Message
from repro.vmm.guest_memory import PageClass


# -- error hierarchy -------------------------------------------------------------


def test_all_library_errors_share_base():
    for name in (
        "SimulationError", "HardwareError", "NetworkError", "LinkDownError",
        "VmmError", "QmpError", "MigrationError", "MigrationBlockedError",
        "HotplugError", "GuestError", "MpiError", "BtlUnreachableError",
        "CheckpointError", "SymVirtError", "PlanError", "SchedulerError",
        "InterruptError",
    ):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError), name


def test_stop_simulation_is_not_a_library_error():
    # It must never be swallowed by `except ReproError`.
    assert not issubclass(errors.StopSimulation, errors.ReproError)


def test_specific_subclassing():
    assert issubclass(errors.MigrationBlockedError, errors.MigrationError)
    assert issubclass(errors.LinkDownError, errors.NetworkError)
    assert issubclass(errors.BtlUnreachableError, errors.MpiError)


def test_qmp_error_fields():
    err = errors.QmpError("DeviceNotFound", "Device 'vf0' not found")
    assert err.cls == "DeviceNotFound"
    assert "vf0" in err.desc


# -- Message ----------------------------------------------------------------------


def test_message_matching_semantics():
    message = Message(src=3, dst=1, tag=7, nbytes=100)
    assert message.matches(3, 7)
    assert message.matches(ANY_SOURCE, 7)
    assert message.matches(3, ANY_TAG)
    assert message.matches(ANY_SOURCE, ANY_TAG)
    assert not message.matches(2, 7)
    assert not message.matches(3, 8)


def test_message_defaults():
    message = Message(src=0, dst=1, tag=0, nbytes=4096)
    assert message.page_class is PageClass.DATA
    assert message.comm_id == 0


def test_message_frozen():
    message = Message(src=0, dst=1, tag=0, nbytes=0)
    with pytest.raises(Exception):
        message.nbytes = 5  # type: ignore[misc]
