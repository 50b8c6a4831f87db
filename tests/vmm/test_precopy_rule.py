"""Unit tests: the precopy stop/continue rule both precopy models share."""

import pytest

from repro.vmm.policy import (
    CONTINUE,
    POSTCOPY,
    STOP,
    THROTTLE,
    MigrationPolicy,
    PrecopyAction,
    PrecopyRule,
)

LIMIT_S = 0.03
CAP = 5

PLAIN = MigrationPolicy()
KICK = MigrationPolicy.adaptive(postcopy="off", non_convergence_rounds=1)
FALLBACK = MigrationPolicy(postcopy="fallback", non_convergence_rounds=1)

#: (case, policy, rounds fed in order as (est_downtime_s, throttle), the
#: action after the last one).
CASES = [
    ("converge", PLAIN, [(5.0, 0.0), (LIMIT_S, 0.0)], PrecopyAction(STOP)),
    ("continue", PLAIN, [(5.0, 0.0), (4.0, 0.0)], PrecopyAction(CONTINUE)),
    (
        "first kick at throttle_initial",
        KICK, [(5.0, 0.0), (5.0, 0.0)],
        PrecopyAction(THROTTLE, throttle=KICK.throttle_initial),
    ),
    (
        "next kick adds throttle_increment",
        KICK, [(5.0, 0.2), (5.0, 0.2)],
        PrecopyAction(THROTTLE, throttle=0.2 + KICK.throttle_increment),
    ),
    (
        "kick capped at throttle_max",
        KICK, [(5.0, 0.95), (5.0, 0.95)],
        PrecopyAction(THROTTLE, throttle=KICK.throttle_max),
    ),
    (
        "a kick re-baselines the estimate",
        KICK, [(5.0, 0.0), (5.0, 0.0), (6.0, 0.2)],
        PrecopyAction(CONTINUE),
    ),
    ("postcopy when stuck", FALLBACK, [(5.0, 0.0), (5.0, 0.0)], PrecopyAction(POSTCOPY)),
    (
        "postcopy at the cap",
        FALLBACK, [(6.0 - i, 0.0) for i in range(CAP + 1)],
        PrecopyAction(POSTCOPY),
    ),
    (
        "stop at the cap flags the SLA",
        PLAIN, [(6.0 - i, 0.0) for i in range(CAP + 1)],
        PrecopyAction(STOP, sla_violated=True),
    ),
]


@pytest.mark.parametrize(
    "policy, rounds, expected", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_rule_action(policy, rounds, expected):
    rule = PrecopyRule(policy, LIMIT_S, CAP)
    *before, (est, throttle) = rounds
    for index, (est_before, throttle_before) in enumerate(before):
        assert rule.after_round(index, est_before, throttle_before).kind in (CONTINUE, THROTTLE)
    assert rule.after_round(len(before), est, throttle) == expected


def test_policy_limits_override_the_callers():
    rule = PrecopyRule(MigrationPolicy(downtime_limit_s=1.0, max_iterations=2), LIMIT_S, CAP)
    assert (rule.downtime_limit_s, rule.max_rounds) == (1.0, 2)
    rule = PrecopyRule(PLAIN, LIMIT_S, CAP)
    assert (rule.downtime_limit_s, rule.max_rounds) == (LIMIT_S, CAP)
    with pytest.raises(ValueError):
        PrecopyRule(PLAIN)
