"""Deterministic fault injection and retry policy for the migration stack.

Experiments and tests need failures that happen *exactly* where and when
they are asked for — MigrOS-style connection-recovery testing is useless
if the fault fires on a different QMP command from run to run.  This
module provides:

* :class:`FaultInjector` — a registry of armed :class:`FaultSpec` entries,
  keyed by *site* name.  Instrumented call sites (the six Ninja phases,
  every QMP command, the hotplug primitives, the migration stream) call
  :meth:`FaultInjector.perturb` / :meth:`FaultInjector.maybe_fail`; an
  armed spec matching that site raises its exception on the Nth call at
  or after a simulated time, or parks the caller forever (``hang=True``,
  for exercising per-phase timeouts).
* :class:`RetryPolicy` — bounded retry with exponential backoff whose
  delays are exact functions of the attempt index (and, when jitter is
  enabled, of the seeded :class:`~repro.sim.rng.RngRegistry` stream), so
  tests can assert the full simulated-clock delay sequence.

Site naming convention (all instrumented sites in the tree)::

    ninja.coordination  ninja.detach  ninja.migration
    ninja.attach        ninja.confirm ninja.linkup      (per phase attempt)
    qmp.<command>                                        (per QMP command)
    hotplug.attach  hotplug.detach  hotplug.confirm      (per primitive)
    migration.stream                                     (per precopy run)
    network.chaos                                        (per degradation event;
                                                          see repro.network.degradation)
    controller.crash.<phase>.{intent,commit}             (controller death at a
    incident.action.<action>                              journal step: offered
    incident.restore.{intent,commit}                      by MigrationJournal.step,
    checkpoint.{intent,commit}                            just after the intent /
                                                          just before the commit)
    incident.restore.boot                                (inside the restore step)
    controller.crash.signal.{intent,commit}              (hand-placed controller
    controller.crash.migration.inflight                   crash sites around the
    controller.crash.resume.intent                        unstepped records; see
    controller.crash.commit-point.commit                  repro.core.ninja)
    controller.crash.postcopy.{intent,commit}

Sites support ``fnmatch`` patterns (``qmp.*`` arms every QMP command).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from repro.errors import FaultInjectionError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment
    from repro.sim.rng import RngRegistry

#: An armed error: an exception instance, an exception class, or a factory
#: called with the site name.
ErrorSpec = Union[BaseException, type, Callable[[str], BaseException]]


@dataclass
class FaultSpec:
    """One armed fault: *where*, *when*, and *what* to inject."""

    site: str
    error: Optional[ErrorSpec] = None
    #: Fire on the Nth matching call (1-based) ...
    nth: int = 1
    #: ... at or after this simulated time (``None`` = any time).
    at_time: Optional[float] = None
    #: How many consecutive calls fire once triggered (1 = transient).
    times: int = 1
    #: Instead of raising, block the caller on a never-firing event
    #: (drives the per-phase timeout path).
    hang: bool = False
    armed: bool = True
    #: Matching calls observed while armed (gates the ``nth`` trigger).
    seen: int = 0
    #: Times this spec actually fired.
    fired: int = 0

    def matches(self, site: str) -> bool:
        return self.site == site or fnmatchcase(site, self.site)

    def exhausted(self) -> bool:
        return self.fired >= self.times

    def make_error(self, site: str) -> BaseException:
        err = self.error
        if err is None:
            return FaultInjectionError(f"injected fault at {site!r}")
        if isinstance(err, BaseException):
            return err
        if isinstance(err, type):
            return err(f"injected fault at {site!r}")
        return err(site)


@dataclass
class FiredFault:
    """Audit record of one injection."""

    time: float
    site: str
    spec: FaultSpec
    call_index: int


class FaultInjector:
    """Deterministic fault registry shared by one cluster.

    The injector is inert (and nearly free) until :meth:`arm` is called —
    instrumented sites bail out on an empty spec list, so production runs
    pay one attribute load and one truthiness check per site.
    """

    def __init__(self, env: Optional["Environment"] = None) -> None:
        self.env = env
        self.specs: List[FaultSpec] = []
        #: Total calls per site (armed or not, once any spec exists).
        self._calls: Dict[str, int] = {}
        #: Audit trail of every injection, in firing order.
        self.fired: List[FiredFault] = []

    # -- wiring ---------------------------------------------------------------

    def bind(self, env: "Environment") -> "FaultInjector":
        """Attach the simulation clock (the cluster does this at build)."""
        self.env = env
        return self

    @property
    def now(self) -> float:
        return self.env.now if self.env is not None else 0.0

    # -- arming ---------------------------------------------------------------

    def arm(
        self,
        site: str,
        error: Optional[ErrorSpec] = None,
        nth: int = 1,
        at_time: Optional[float] = None,
        times: int = 1,
        hang: bool = False,
    ) -> FaultSpec:
        """Arm a fault at ``site``; returns the spec (pass to :meth:`disarm`)."""
        if nth < 1:
            raise ValueError(f"nth must be >= 1, got {nth}")
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        spec = FaultSpec(
            site=site, error=error, nth=nth, at_time=at_time, times=times, hang=hang
        )
        self.specs.append(spec)
        return spec

    def disarm(self, spec_or_site: Union[FaultSpec, str]) -> int:
        """Disarm one spec, or every spec whose site pattern equals the string.

        Returns the number of specs disarmed.
        """
        if isinstance(spec_or_site, FaultSpec):
            targets = [s for s in self.specs if s is spec_or_site]
        else:
            targets = [s for s in self.specs if s.site == spec_or_site]
        for spec in targets:
            spec.armed = False
            self.specs.remove(spec)
        return len(targets)

    def clear(self) -> None:
        """Disarm everything and forget call counters + audit trail."""
        for spec in self.specs:
            spec.armed = False
        self.specs.clear()
        self._calls.clear()
        self.fired.clear()

    # -- introspection --------------------------------------------------------

    def calls(self, site: str) -> int:
        """Calls observed at ``site`` since the first spec was armed."""
        return self._calls.get(site, 0)

    @property
    def active(self) -> bool:
        return bool(self.specs)

    # -- injection ------------------------------------------------------------

    def _select(self, site: str) -> Optional[FaultSpec]:
        """Count the call and return the spec that should fire, if any."""
        self._calls[site] = self._calls.get(site, 0) + 1
        for spec in self.specs:
            if not spec.armed or spec.exhausted() or not spec.matches(site):
                continue
            if spec.at_time is not None and self.now < spec.at_time:
                continue
            spec.seen += 1
            if spec.seen < spec.nth:
                continue
            spec.fired += 1
            self.fired.append(
                FiredFault(time=self.now, site=site, spec=spec, call_index=self._calls[site])
            )
            return spec
        return None

    def maybe_fail(self, site: str) -> None:
        """Synchronous site check: raise if an armed spec fires.

        ``hang`` specs cannot be honoured synchronously and raise a
        :class:`FaultInjectionError` explaining so — use a generator site
        (:meth:`perturb`) for hangs.
        """
        if not self.specs:
            return
        spec = self._select(site)
        if spec is None:
            return
        if spec.hang:
            raise FaultInjectionError(
                f"hang fault armed at synchronous site {site!r} — only "
                f"generator sites (perturb) can hang"
            )
        raise spec.make_error(site)

    def perturb(self, site: str):
        """Generator site check — drive with ``yield from``.

        Raises the armed error, blocks forever (``hang=True``), or falls
        straight through when nothing fires.
        """
        if not self.specs:
            return
        spec = self._select(site)
        if spec is None:
            return
        if spec.hang:
            if self.env is None:
                raise FaultInjectionError(f"cannot hang at {site!r}: injector has no env")
            yield Event(self.env)  # never triggered: parks the caller
            raise AssertionError("unreachable: hang event fired")  # pragma: no cover
        raise spec.make_error(site)


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff (deterministic by default).

    ``delay(attempt)`` for attempt = 0, 1, 2 … is
    ``base_delay_s * factor**attempt``, optionally jittered through the
    seeded ``ninja.backoff`` RNG stream — both fully reproducible.
    """

    #: Total attempts, including the first (3 = one try + two retries).
    max_attempts: int = 3
    base_delay_s: float = 0.5
    factor: float = 2.0
    #: Relative jitter applied via :meth:`RngRegistry.jitter` (0 = exact).
    jitter_rel: float = 0.0
    #: RNG stream name used when jitter is enabled.
    stream: str = "ninja.backoff"

    def delay(self, attempt: int, rng: Optional["RngRegistry"] = None) -> float:
        """Backoff before retry number ``attempt + 1`` (attempt is 0-based)."""
        base = self.base_delay_s * self.factor**attempt
        if self.jitter_rel > 0.0 and rng is not None:
            return rng.jitter(self.stream, base, self.jitter_rel)
        return float(base)

    def delays(self, rng: Optional["RngRegistry"] = None) -> List[float]:
        """The full backoff sequence this policy can produce."""
        return [self.delay(i, rng) for i in range(self.max_attempts - 1)]
