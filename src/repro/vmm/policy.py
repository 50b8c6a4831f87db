"""Migration policy: how a migration reacts to a degraded data path.

QEMU exposes the same dials through migration *capabilities* and
*parameters*: ``auto-converge`` (throttle the guest's vCPUs until precopy
converges), ``postcopy-ram`` (switch the VM to the destination and pull the
remaining pages on demand), ``downtime-limit`` and ``max-iterations`` SLAs.
The default policy reproduces the pre-existing plain-precopy behaviour
bit-for-bit; :meth:`MigrationPolicy.adaptive` turns the whole escalation
ladder on (precopy → auto-converge throttling → postcopy fallback).

:class:`PrecopyRule` climbs that ladder after each precopy round.  The
page-granular :class:`~repro.vmm.migration.MigrationJob` and the fluid
scale fleet share it; each prices the next round its own way.

Postcopy is *opt-in* because its failure semantics differ fundamentally
from precopy: after the switchover the only complete copy of the guest's
RAM is split across two hosts, so losing the origin (or exhausting stream
recovery) loses the VM instead of falling back to the source.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

#: Valid ``postcopy`` settings (mirrors the CLI flag).
POSTCOPY_MODES = ("off", "fallback", "always")

#: QEMU auto-converge schedule: the first throttle step, applied when
#: non-convergence is detected, and the step added per later detection.
THROTTLE_INITIAL = 0.20
THROTTLE_INCREMENT = 0.10
#: A precopy round "made no progress" when its estimated downtime is at
#: least this fraction of the previous round's estimate.
CONVERGENCE_RATIO = 0.95
#: Ceiling of the postcopy stream-recovery exponential backoff.
RECOVER_BACKOFF_MAX_S = 30.0


@dataclass(frozen=True)
class MigrationPolicy:
    """Escalation policy for one migration."""

    #: "off" = plain precopy; "fallback" = switch to postcopy only when
    #: precopy (after throttling) cannot converge; "always" = switch over
    #: immediately (one round of downtime-free bulk precopy is skipped).
    postcopy: str = "off"
    #: Enable QEMU-style auto-converge vCPU throttling.
    auto_converge: bool = False
    #: Hard throttle ceiling (QEMU's max-cpu-throttle, default 99 %).
    throttle_max: float = 0.99
    #: Overrides the QMP/calibration downtime limit when set.
    downtime_limit_s: Optional[float] = None
    #: Overrides ``calibration.max_precopy_rounds`` when set: the cap on
    #: dirty re-send rounds after the bulk pass (round 0).
    max_iterations: Optional[int] = None
    #: Consecutive no-progress rounds before escalating.
    non_convergence_rounds: int = 2
    #: Postcopy stream-recovery budget (migrate-recover attempts).
    recover_max_attempts: int = 50
    recover_backoff_s: float = 1.0

    def __post_init__(self) -> None:
        if self.postcopy not in POSTCOPY_MODES:
            raise ValueError(
                f"postcopy must be one of {POSTCOPY_MODES}, got {self.postcopy!r}"
            )
        if not 0.0 < self.throttle_max < 1.0:
            raise ValueError("throttle_max must be in (0, 1)")
        if self.non_convergence_rounds < 1:
            raise ValueError("non_convergence_rounds must be >= 1")
        if self.recover_max_attempts < 0:
            raise ValueError("recover_max_attempts must be >= 0")

    @classmethod
    def adaptive(cls, postcopy: str = "fallback", **overrides) -> "MigrationPolicy":
        """The full escalation ladder: throttle first, then postcopy."""
        return cls(postcopy=postcopy, auto_converge=True, **overrides)

    def replace(self, **changes) -> "MigrationPolicy":
        return replace(self, **changes)

    @property
    def postcopy_enabled(self) -> bool:
        return self.postcopy != "off"


DEFAULT_POLICY = MigrationPolicy()


#: :class:`PrecopyRule` actions.
CONTINUE = "continue"
STOP = "stop"
THROTTLE = "throttle"
POSTCOPY = "postcopy"


class PrecopyAction(NamedTuple):
    """What precopy does after a round."""

    kind: str
    #: ``STOP``: the guest pauses with its downtime estimate over the limit.
    sla_violated: bool = False
    #: ``THROTTLE``: the new vCPU throttle.
    throttle: float = 0.0


class PrecopyRule:
    """Precopy's stop/continue decision for one migration.

    ``downtime_limit_s`` and ``max_rounds`` are the caller's limits; the
    policy's own ``downtime_limit_s``/``max_iterations`` override them.
    Round 0 is the bulk pass, so the cap trips on round ``max_rounds``.
    """

    def __init__(
        self,
        policy: MigrationPolicy,
        downtime_limit_s: Optional[float] = None,
        max_rounds: Optional[int] = None,
    ) -> None:
        if policy.downtime_limit_s is not None:
            downtime_limit_s = policy.downtime_limit_s
        if policy.max_iterations is not None:
            max_rounds = policy.max_iterations
        if downtime_limit_s is None or max_rounds is None:
            raise ValueError("precopy needs a downtime limit and a round cap")
        self.policy = policy
        self.downtime_limit_s = downtime_limit_s
        self.max_rounds = max_rounds
        self._prev_est: Optional[float] = None
        self._no_progress = 0

    def after_round(self, index: int, est_downtime_s: float, throttle: float) -> PrecopyAction:
        """The action after round ``index``, whose remaining dirty set
        would take ``est_downtime_s`` to stop-and-copy; ``throttle`` is the
        guest's current vCPU throttle."""
        if est_downtime_s <= self.downtime_limit_s:
            return PrecopyAction(STOP)
        policy = self.policy
        # Non-convergence tracking: is the downtime estimate shrinking?
        prev = self._prev_est
        if prev is not None and est_downtime_s >= CONVERGENCE_RATIO * prev:
            self._no_progress += 1
        else:
            self._no_progress = 0
        self._prev_est = est_downtime_s

        stuck = self._no_progress >= policy.non_convergence_rounds
        at_cap = index >= self.max_rounds
        if stuck and policy.auto_converge and throttle < policy.throttle_max:
            # QEMU auto-converge: 20 % first kick, +10 % per kick; then
            # re-baseline under the new throttle.
            self._no_progress = 0
            self._prev_est = None
            if throttle == 0.0:
                throttle = THROTTLE_INITIAL
            else:
                throttle = min(throttle + THROTTLE_INCREMENT, policy.throttle_max)
            return PrecopyAction(THROTTLE, throttle=throttle)
        if (stuck or at_cap) and policy.postcopy_enabled:
            return PrecopyAction(POSTCOPY)
        if at_cap:
            # SLA exhausted with no escalation left: stop-and-copy anyway.
            return PrecopyAction(STOP, sla_violated=True)
        return PrecopyAction(CONTINUE)
