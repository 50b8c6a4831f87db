"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.hardware.calibration import PAPER_CALIBRATION
from repro.hardware.cluster import build_agc_cluster
from repro.invariants import check
from repro.sim.core import Environment

try:
    from hypothesis import HealthCheck, settings as hyp_settings

    # Deterministic, time-limit-free profiles: property tests must behave
    # identically on every CI run (derandomize fixes the example stream).
    hyp_settings.register_profile(
        "ci",
        derandomize=True,
        deadline=None,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    hyp_settings.register_profile("dev", deadline=None)
    hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    pass


#: Per-test wall-clock budget (seconds); 0 disables the guard.  A wedged
#: simulation (event-loop livelock, runaway chaos revert) otherwise stalls
#: the whole CI job until the runner's global timeout.
TEST_TIMEOUT_S = float(os.environ.get("REPRO_TEST_TIMEOUT_S", "120"))


@pytest.fixture(autouse=True)
def _per_test_timeout(request):
    """SIGALRM-based per-test timeout (no pytest-timeout dependency)."""
    if (
        TEST_TIMEOUT_S <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded REPRO_TEST_TIMEOUT_S={TEST_TIMEOUT_S:g}s: "
            f"{request.node.nodeid}"
        )

    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def cluster():
    """A small 2+2 AGC cluster (fast to build, covers both fabrics)."""
    return build_agc_cluster(ib_nodes=2, eth_nodes=2)


@pytest.fixture
def cluster44():
    """The 4+4 cluster used by scenario tests."""
    return build_agc_cluster(ib_nodes=4, eth_nodes=4)


@pytest.fixture
def calibration():
    return PAPER_CALIBRATION


def drive(env: Environment, generator, name: str = "test"):
    """Run ``generator`` as a process to completion; return its value."""
    process = env.process(generator, name=name)
    return env.run(until=process)


def assert_safe(cluster, journal=None, *, qemus, hosts=None, **books) -> None:
    """Fail on any :func:`repro.invariants.check` violation over
    ``qemus`` (``books``: ``store=``/``arbiter=``); with ``hosts`` (VM
    name → host), also pin where each VM ended up."""
    assert [str(v) for v in check(cluster, journal, qemus=qemus, **books)] == []
    if hosts is not None:
        assert {q.vm.name: q.node.name for q in qemus} == hosts


def link_between(topology, a: str, b: str):
    """The link directly joining topology nodes ``a`` and ``b``."""
    return topology._adj[a][b]


def nodes_of_kind(topology, kind: str) -> list:
    """Names of the topology nodes of ``kind`` (host or switch), in insertion order."""
    return [n for n, k in topology._kind.items() if k == kind]


def dirty_page_count(memory) -> int:
    """Pages in a ``GuestMemory``'s dirty log."""
    return memory._dirty.size


def active_keys(detector) -> list:
    """Keys an incident detector currently has an open episode on."""
    return sorted(k for k, e in detector._episodes.items() if e.active)


def unexpected_count(engine) -> int:
    """Messages queued unmatched in an MPI ``MatchingEngine``."""
    return sum(len(bucket) for bucket in engine._unexpected.values())


def traced_violations(tracer) -> list:
    """Fields of every ``invariants``/``violation`` record a drill traced."""
    return [r.fields for r in tracer.records if r.category == "invariants"]


@pytest.fixture
def run():
    """Fixture exposing the :func:`drive` helper."""
    return drive
