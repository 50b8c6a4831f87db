"""Cross-cutting property-based tests (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cluster import build_agc_cluster
from repro.hardware.pci import PciAddress
from repro.network.flows import FlowNetwork
from repro.network.links import DirectedLink, Link
from repro.sim.core import Environment
from repro.testbed import create_job, provision_vms
from repro.units import GiB, KiB
from tests.conftest import assert_safe, drive


# -- PCI addresses -------------------------------------------------------------


@given(
    bus=st.integers(min_value=0, max_value=255),
    device=st.integers(min_value=0, max_value=31),
    function=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=200)
def test_pci_address_roundtrip(bus, device, function):
    addr = PciAddress(bus, device, function)
    assert PciAddress.parse(str(addr)) == addr


# -- message matching conservation -----------------------------------------------


@given(
    exchanges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),   # src rank
            st.integers(min_value=0, max_value=3),   # dst rank
            st.integers(min_value=0, max_value=5),   # tag
            st.integers(min_value=0, max_value=256), # KiB
        ),
        min_size=1,
        max_size=12,
    ).filter(lambda xs: all(s != d for s, d, _, _ in xs))
)
@settings(max_examples=25, deadline=None)
def test_every_send_matches_exactly_one_recv(exchanges):
    """For an arbitrary send multiset, posting the mirror-image recvs
    matches every message exactly once with byte totals conserved."""
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=0)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=2)
    drive(cluster.env, job.init(), name="init")
    received: list = []

    def rank_main(proc, comm):
        my_sends = [(d, t, k) for s, d, t, k in exchanges if s == comm.rank]
        my_recvs = [(s, t) for s, d, t, k in exchanges if d == comm.rank]
        pending = [comm.isend(d, k * KiB, tag=t) for d, t, k in my_sends]
        for s, t in my_recvs:
            message = yield from comm.recv(s, tag=t)
            received.append(message)
        for event in pending:
            yield event
        return None

    job.launch(rank_main)
    cluster.env.run(until=job.wait())
    assert len(received) == len(exchanges)
    assert sum(m.nbytes for m in received) == sum(k * KiB for _, _, _, k in exchanges)
    # Every (src, dst, tag) multiset matches.
    sent_keys = sorted((s, d, t) for s, d, t, _ in exchanges)
    recv_keys = sorted((m.src, m.dst, m.tag) for m in received)
    assert sent_keys == recv_keys


# -- flow-network conservation under churn -----------------------------------------


@given(
    plan=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0),    # start time
            st.floats(min_value=1.0, max_value=1000.0), # bytes
            st.booleans(),                              # cancel midway?
        ),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=50, deadline=None)
def test_flow_network_conserves_bytes(plan):
    env = Environment()
    net = FlowNetwork(env)
    link = DirectedLink(Link("l", capacity_Bps=100.0), 0)
    flows = []

    def launcher(env):
        last = 0.0
        for start, nbytes, cancel in sorted(plan):
            yield env.timeout(max(start - last, 0.0))
            last = max(start, last)
            flow = net.start([link], nbytes)
            flows.append((flow, cancel))
            if cancel:
                def canceller(env, flow=flow):
                    yield env.timeout(0.001)
                    net.cancel(flow)
                env.process(canceller(env))

    env.process(launcher(env))
    env.run()
    for flow, cancelled in flows:
        transferred = flow.transferred
        assert transferred <= flow.nbytes * (1 + 1e-6)
        if not cancelled:
            assert flow.finished
            assert flow.remaining == 0.0
    # Aggregate throughput never exceeded capacity: total bytes moved is
    # bounded by capacity x the active horizon.
    if flows:
        horizon = env.now - min(f.started_at for f, _ in flows)
        moved = sum(f.transferred for f, _ in flows)
        assert moved <= 100.0 * horizon * (1 + 1e-6) + 1e-6


# -- hypercall park/signal invariants ---------------------------------------------


@given(contexts=st.integers(min_value=1, max_value=16))
@settings(max_examples=20, deadline=None)
def test_hypercall_parks_only_when_all_wait(contexts):
    from repro.vmm.qemu import QemuProcess

    cluster = build_agc_cluster(ib_nodes=1, eth_nodes=0)
    env = cluster.env
    qemu = QemuProcess(cluster, cluster.node("ib01"), "vm", memory_bytes=2 * GiB)
    qemu.boot()
    channel = qemu.vm.hypercall
    channel.register(contexts)
    resumed = []

    def ctx(env, i):
        yield env.timeout(float(i) * 0.1)
        yield from channel.symvirt_wait()
        resumed.append(i)

    for i in range(contexts):
        env.process(ctx(env, i))

    def vmm(env):
        yield channel.wait_parked()
        # Parked exactly when the slowest context arrived.
        assert env.now == pytest.approx((contexts - 1) * 0.1, abs=0.01)
        channel.symvirt_signal()

    env.process(vmm(env))
    env.run()
    assert sorted(resumed) == list(range(contexts))


# -- transactional Ninja under randomized fault schedules --------------------


#: (phase, low-level site exercised by that phase) — ``None`` where the
#: phase has no distinct low-level site.
_FAULT_SITES = [
    ("coordination", None),
    ("detach", "hotplug.detach"),
    ("detach", "qmp.device_del"),
    ("migration", "migration.stream"),
    ("migration", "qmp.migrate"),
    ("attach", "hotplug.attach"),
    ("confirm", "hotplug.confirm"),
    ("linkup", None),
]


@pytest.mark.faults
@given(
    schedule=st.sampled_from(_FAULT_SITES),
    plan_kind=st.sampled_from(("fallback", "self")),
    low_level=st.booleans(),
    transient=st.booleans(),
    nth=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=12, deadline=None)
def test_faulted_ninja_never_leaks_parked_vms_or_hcas(
    schedule, plan_kind, low_level, transient, nth
):
    """For an arbitrary single-fault schedule — any phase, ninja- or
    low-level site, transient or fatal, first or second call — the
    sequence ends with no VM parked, every VM RUNNING on a definite host,
    and every HCA either cleanly attached at that host or cleanly absent.
    """
    from repro.core.ninja import NinjaMigration
    from repro.errors import QmpError

    phase, low_site = schedule
    site = low_site if (low_level and low_site is not None) else f"ninja.{phase}"
    error = QmpError("GenericError", "injected transient") if transient else None

    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=1 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")

    def busy(proc, comm):
        for _ in range(100_000):
            yield proc.vm.compute(0.2, nthreads=1)
            yield from comm.barrier()

    job.launch(busy)
    ninja = NinjaMigration(cluster)
    if plan_kind == "fallback":
        plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    else:
        plan = ninja.self_migration_plan(vms, attach_ib=True)
    origin = {q.vm.name: q.node.name for q in vms}
    cluster.faults.arm(site, error=error, nth=nth)

    def main():
        return (yield from ninja.execute(job, plan))

    result = drive(cluster.env, main(), name="ninja")
    cluster.env.run(until=cluster.env.now + 90.0)

    if result.aborted and not result.committed:
        expected = origin
    else:  # completed, or committed degrade
        expected = dict(plan.mapping)
    # The checker holds every attached HCA to a bound driver on its
    # host's bus; an absent one is the clean alternative.
    assert_safe(cluster, ninja.journal, qemus=vms, hosts=expected)
    assert job.live_ranks == job.size
    transports = job.transports_in_use()
    assert sum(transports.values()) == job.size * (job.size - 1)
