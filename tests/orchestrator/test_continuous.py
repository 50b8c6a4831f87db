"""Continuous-arrival scale mode: fleet invariants and kernel parity."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FleetError
from repro.orchestrator import continuous
from repro.orchestrator.continuous import (
    CHURN,
    CONSOLIDATE,
    DRAIN,
    ContinuousFleet,
    ScaleConfig,
    ScaleResult,
    run_scale_scenario,
)
from repro.sim.core import Environment
from repro.sim.trace import Tracer
from tests.network.global_resolve import GlobalResolveFlowNetwork

#: Small, fast campaign shared by most tests (~0.1 s wall).
_SMALL = dict(n_vms=24, k=4, vms_per_host=4, duration_s=60.0,
              arrival_rate_per_s=2.0, seed=11)


def test_requires_free_slots():
    with pytest.raises(FleetError):
        ContinuousFleet(Environment(), ScaleConfig(n_vms=128, k=4, vms_per_host=8))


def test_campaign_runs_and_accounts():
    result = run_scale_scenario(ScaleConfig(**_SMALL))
    assert result.n_hosts == 16
    assert result.duration_s >= 60.0
    assert result.migrations_completed > 0
    assert result.migrations_completed + result.rejected == result.moves_requested
    assert result.flows_started == result.flows_completed
    assert result.rounds_total >= result.migrations_completed
    assert result.bytes_moved > 0
    assert result.solver_calls > 0 and result.solver_p99_s >= result.solver_p50_s
    assert sum(result.requests.values()) > 0


def test_campaign_is_deterministic_per_seed():
    a = run_scale_scenario(ScaleConfig(**_SMALL))
    b = run_scale_scenario(ScaleConfig(**_SMALL))
    assert a.moves_requested == b.moves_requested
    assert a.migrations_completed == b.migrations_completed
    assert a.flows_started == b.flows_started
    assert a.bytes_moved == b.bytes_moved
    assert a.duration_s == b.duration_s


def test_kernel_arms_agree_on_fleet_outcomes(monkeypatch):
    """The incremental and global-resolve kernels are different engines
    for the same fluid model: identical traffic, identical outcomes."""
    inc = run_scale_scenario(ScaleConfig(**_SMALL))
    monkeypatch.setattr(continuous, "FlowNetwork", GlobalResolveFlowNetwork)
    leg = run_scale_scenario(ScaleConfig(**_SMALL))
    assert inc.moves_requested == leg.moves_requested
    assert inc.migrations_completed == leg.migrations_completed
    assert inc.flows_started == leg.flows_started
    assert inc.bytes_moved == pytest.approx(leg.bytes_moved, rel=1e-9)
    assert inc.duration_s == pytest.approx(leg.duration_s, rel=1e-6)
    # The oracle re-solves every active flow per event: proof it ran.
    assert leg.solver_flows_touched > inc.solver_flows_touched


def test_slot_accounting_survives_churn():
    env = Environment()
    fleet = ContinuousFleet(env, ScaleConfig(**_SMALL))
    fleet.start()
    env.run()
    assert fleet.in_flight == 0
    assert sum(fleet.host_load.values()) == fleet.config.n_vms
    assert all(0 <= n <= fleet.config.vms_per_host for n in fleet.host_load.values())
    for host, vms in fleet._host_vms.items():
        assert len(vms) == fleet.host_load[host]
        assert all(vm.host == host for vm in vms)


def test_admission_cap_rejects_excess():
    config = ScaleConfig(n_vms=24, k=4, vms_per_host=4, duration_s=120.0,
                         arrival_rate_per_s=8.0, max_concurrent=2, seed=11)
    result = run_scale_scenario(config)
    assert result.rejected > 0
    assert result.migrations_completed + result.rejected == result.moves_requested


def test_request_mix_reaches_all_handlers():
    config = ScaleConfig(**_SMALL, mix={CHURN: 0.4, CONSOLIDATE: 0.3, DRAIN: 0.3})
    result = run_scale_scenario(config)
    assert all(result.requests[k] > 0 for k in (CHURN, CONSOLIDATE, DRAIN))


def test_tracer_records_migrations():
    tracer = Tracer()
    result = run_scale_scenario(ScaleConfig(**_SMALL), tracer=tracer)
    assert tracer.count("scale", "migrated") == result.migrations_completed
    record = tracer.first("scale", "migrated")
    assert record.fields["src"] != record.fields["dst"]
    assert record.fields["rounds"] >= 1


def test_result_to_dict_is_json_ready():
    import json

    result = run_scale_scenario(ScaleConfig(**_SMALL))
    payload = result.to_dict()
    assert payload["events_per_s"] == pytest.approx(result.events_per_s)
    assert payload["wall_s_per_sim_hour"] == pytest.approx(result.wall_s_per_sim_hour)
    json.dumps(payload)  # must serialize cleanly


def test_zero_division_guards():
    empty = ScaleResult(
        n_vms=0, n_hosts=0, k=0, duration_s=0.0, wall_s=0.0,
        requests={}, moves_requested=0, migrations_completed=0, rejected=0,
        starved=0, rounds_total=0, bytes_moved=0.0, sim_events=0,
        flows_started=0, flows_completed=0, solver_calls=0,
        solver_flows_touched=0, solver_p50_s=0.0, solver_p99_s=0.0,
        solver_total_s=0.0,
    )
    assert empty.events_per_s == float("inf")
    assert empty.wall_s_per_sim_hour == 0.0


# -- placement differential oracle --------------------------------------------


class _ScanFleet(ContinuousFleet):
    """The O(hosts) placement scans the slot index replaced, kept verbatim
    as the oracle: each selection scans ``host_load`` in host order, and
    min/max break ties by name, which is host order while pod numbers
    have two digits (k <= 100, every fleet here)."""

    def _consolidate(self) -> None:
        source = min(
            (h for h, n in self.host_load.items() if n > 0),
            key=lambda h: (self.host_load[h], h),
            default=None,
        )
        if source is None:
            self.starved += 1
            return
        movable = [vm for vm in self._host_vms[source] if not vm.migrating]
        launched = 0
        for vm in movable[: self.config.consolidate_batch]:
            # Pack onto the fullest host that still has a free slot.
            dst = max(
                (
                    h
                    for h, n in self.host_load.items()
                    if h != source and n < self.config.vms_per_host
                ),
                key=lambda h: (self.host_load[h], h),
                default=None,
            )
            if dst is None:
                break
            if self._launch(vm, dst):
                launched += 1
        if launched == 0:
            self.starved += 1

    def _drain(self) -> None:
        occupied = [h for h, n in self.host_load.items() if n > 0]
        if not occupied:
            self.starved += 1
            return
        host = occupied[int(self._place.integers(0, len(occupied)))]
        launched = 0
        for vm in [vm for vm in self._host_vms[host] if not vm.migrating]:
            dst = self._free_host(exclude=host)
            if dst is None:
                break
            if self._launch(vm, dst):
                launched += 1
        if launched == 0:
            self.starved += 1

    def _free_host(self, exclude, rack_of=None):
        """A host with a free slot; rack-local candidates when asked."""
        if rack_of is not None:
            candidates = [
                h
                for h in self.tree.rack_hosts(rack_of)
                if h != exclude and self.host_load[h] < self.config.vms_per_host
            ]
            if candidates:
                return candidates[int(self._place.integers(0, len(candidates)))]
        candidates = [
            h
            for h, n in self.host_load.items()
            if h != exclude and n < self.config.vms_per_host
        ]
        if not candidates:
            return None
        return candidates[int(self._place.integers(0, len(candidates)))]


#: Result fields measured on the wall clock (differ run to run).
_WALL_FIELDS = {
    "wall_s", "solver_p50_s", "solver_p99_s", "solver_total_s",
    "events_per_s", "wall_s_per_sim_hour",
}

#: A mix heavy in consolidate and drain: the index queries run often,
#: and the small fleets below run out of free slots (``None`` answers).
_PACKING_MIX = {CHURN: 0.4, CONSOLIDATE: 0.3, DRAIN: 0.3}


def _observe(config, monkeypatch, fleet_cls):
    tracer = Tracer()
    with monkeypatch.context() as patch:
        patch.setattr(continuous, "ContinuousFleet", fleet_cls)
        result = run_scale_scenario(config, tracer=tracer)
    migrated = [
        (r.time, sorted(r.fields.items())) for r in tracer.select("scale", "migrated")
    ]
    outcome = {k: v for k, v in result.to_dict().items() if k not in _WALL_FIELDS}
    return migrated, outcome


def _assert_same_placement(config, monkeypatch):
    indexed = _observe(config, monkeypatch, ContinuousFleet)
    scanned = _observe(config, monkeypatch, _ScanFleet)
    assert indexed[0], "campaign completed no migration"
    assert all(indexed[1]["requests"][kind] > 0 for kind in (CHURN, CONSOLIDATE, DRAIN))
    assert indexed == scanned


@pytest.mark.parametrize("vms_per_host", [2, 4, 8])
@pytest.mark.parametrize("seed", [1, 3, 7])
def test_slot_index_matches_scan_oracle(seed, vms_per_host, monkeypatch):
    """The indexed selections pick the same hosts from the same RNG draws
    as the scans they replaced: identical migrations, identical result."""
    config = ScaleConfig(
        n_vms=16 * vms_per_host - 6, k=4, vms_per_host=vms_per_host,
        duration_s=120.0, arrival_rate_per_s=3.0, max_concurrent=8,
        mix=dict(_PACKING_MIX), seed=seed,
    )
    _assert_same_placement(config, monkeypatch)


def test_slot_index_matches_scan_oracle_on_churn_fleet(monkeypatch):
    """The benchmark's churn-dominated shape on 128 hosts."""
    config = ScaleConfig(
        n_vms=256, k=8, vms_per_host=4, duration_s=60.0,
        arrival_rate_per_s=20.0, max_concurrent=256, rack_local_frac=0.9,
        mix={CHURN: 0.92, CONSOLIDATE: 0.04, DRAIN: 0.04}, seed=7,
    )
    _assert_same_placement(config, monkeypatch)


@settings(max_examples=60)
@given(
    vms_per_host=st.integers(1, 4),
    steps=st.lists(
        st.tuples(st.integers(0, 15), st.sampled_from([1, -1]), st.integers(0, 15)),
        max_size=80,
    ),
)
def test_slot_index_queries_match_brute_force(vms_per_host, steps):
    """Random load changes through ``_bump``; after each, every index
    query answers what a scan over ``host_load`` answers."""
    fleet = ContinuousFleet(
        Environment(), ScaleConfig(n_vms=0, k=4, vms_per_host=vms_per_host)
    )
    hosts = fleet.tree.hosts
    full = vms_per_host
    for host_i, delta, exclude_i in steps:
        host, exclude = hosts[host_i], hosts[exclude_i]
        if 0 <= fleet.host_load[host] + delta <= full:
            fleet._bump(host, delta)
        load = fleet.host_load

        for level, positions in enumerate(fleet._by_load):
            assert positions == [i for i, h in enumerate(hosts) if load[h] == level]
        assert fleet._free == [i for i, h in enumerate(hosts) if load[h] < full]
        assert fleet._occupied == [i for i, h in enumerate(hosts) if load[h] > 0]

        assert fleet._emptiest_host() == min(
            (h for h in hosts if load[h] > 0), key=lambda h: (load[h], h), default=None
        )
        assert fleet._fullest_free_host(exclude) == max(
            (h for h in hosts if h != exclude and load[h] < full),
            key=lambda h: (load[h], h),
            default=None,
        )
        rng = copy.deepcopy(fleet._place)
        candidates = [h for h in hosts if h != exclude and load[h] < full]
        expected = (
            candidates[int(rng.integers(0, len(candidates)))] if candidates else None
        )
        assert fleet._free_host(exclude) == expected
        assert fleet._place.bit_generator.state == rng.bit_generator.state
