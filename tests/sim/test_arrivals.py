"""Arrival processes: determinism, mix, horizon."""

import pytest

from repro.sim.arrivals import PoissonProcess
from repro.sim.rng import RngRegistry


def _stream(seed=0, name="arrivals"):
    return RngRegistry(seed).stream(name)


def test_poisson_is_deterministic_per_seed():
    a = list(PoissonProcess(_stream(3), 2.0, 100.0).events())
    b = list(PoissonProcess(_stream(3), 2.0, 100.0).events())
    assert [(x.time, x.kind) for x in a] == [(y.time, y.kind) for y in b]
    c = list(PoissonProcess(_stream(4), 2.0, 100.0).events())
    assert [(x.time, x.kind) for x in a] != [(y.time, y.kind) for y in c]


def test_poisson_respects_horizon_and_ordering():
    events = list(PoissonProcess(_stream(), 5.0, 50.0).events())
    assert events, "expected arrivals over 50 s at 5/s"
    assert all(0.0 < e.time < 50.0 for e in events)
    assert all(a.time <= b.time for a, b in zip(events, events[1:]))


def test_poisson_rate_is_approximately_honored():
    events = list(PoissonProcess(_stream(), 4.0, 500.0).events())
    # 2000 expected; a 10-sigma band is ~±450.
    assert 1500 < len(events) < 2500


def test_poisson_mix_proportions():
    mix = {"churn": 0.8, "drain": 0.2}
    events = list(PoissonProcess(_stream(), 10.0, 300.0).events())
    assert {e.kind for e in events} == {"churn"}  # default mix
    events = list(PoissonProcess(_stream(), 10.0, 300.0, mix=mix).events())
    kinds = [e.kind for e in events]
    frac = kinds.count("drain") / len(kinds)
    assert 0.1 < frac < 0.3


def test_poisson_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PoissonProcess(_stream(), 0.0, 10.0)
    with pytest.raises(ValueError):
        PoissonProcess(_stream(), 1.0, 0.0)
    with pytest.raises(ValueError):
        PoissonProcess(_stream(), 1.0, 10.0, mix={"churn": 0.0})
    with pytest.raises(ValueError):
        PoissonProcess(_stream(), 1.0, 10.0, mix={"churn": -1.0, "drain": 2.0})
