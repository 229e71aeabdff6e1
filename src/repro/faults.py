"""The unified, declarative fault-injection facade.

One vocabulary of :class:`FaultSpec` dataclasses —
:class:`HostCrash`, :class:`Overload`, :class:`Partition`,
:class:`MessageLoss`, :class:`SlowLink` — and one entry point,
:func:`schedule`, that installs any mix of them against a built
:class:`~repro.gridenv.Grid` (or a bare :class:`~repro.net.network.Network`
/ :class:`~repro.machine.host.Machine` in unit tests).  Specs are plain
frozen dataclasses: hashable, comparable, serializable via
:meth:`FaultSpec.describe` — the form the fault-campaign harness
(:mod:`repro.resilience.campaign`) stores in its reports.

Stochastic faults (:class:`MessageLoss`) draw from the grid's seeded
RNG registry, so a faulted run is exactly reproducible from its seed.

This module is the only fault-injection entry point: the per-layer
helpers that predated it (``repro.machine.faults.crash_at``,
``repro.net.faults.FaultPlan``, ...) completed their deprecation
cycle and have been removed.

>>> from repro.faults import HostCrash, MessageLoss, schedule
>>> grid = GridBuilder(seed=7).add_machine("RM1", nodes=8).with_faults(
...     HostCrash("RM1", at=10.0, duration=5.0),
...     MessageLoss(probability=0.1, at=0.0),
... ).build()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence

from repro.errors import FaultSpecError
from repro.simcore.probe import emit

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.machine.host import Machine
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.simcore.environment import Environment
    from repro.simcore.process import Process


@dataclass(frozen=True)
class FaultSpec:
    """Base class: one declarative fault with an onset time.

    ``at`` is absolute simulated time; ``duration=None`` (where a
    subclass has one) means the fault persists forever.
    """

    at: float = 0.0

    def validate(self, target: "_Target") -> None:
        """Raise :class:`~repro.errors.FaultSpecError` if inapplicable."""
        # Written as `not x >= 0`: NaN fails every comparison.
        if not self.at >= 0:
            raise FaultSpecError(f"{type(self).__name__}.at must be >= 0")
        duration = getattr(self, "duration", None)
        if duration is not None and not duration >= 0:
            raise FaultSpecError(
                f"{type(self).__name__}.duration must be >= 0, got {duration!r}"
            )

    def describe(self) -> dict[str, Any]:
        """A JSON-able, deterministic description of this fault."""
        out: dict[str, Any] = {"fault": type(self).__name__}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = [list(g) if isinstance(g, tuple) else g for g in value]
            elif isinstance(value, frozenset):
                value = sorted(value)
            out[name] = value
        return out

    def _install(self, target: "_Target") -> "Process":
        raise NotImplementedError


@dataclass(frozen=True)
class HostCrash(FaultSpec):
    """Crash ``host`` at ``at``; restore after ``duration`` if given.

    A grid machine crash kills its processes and takes the host off the
    network (the §2 "unavailable due to a system crash" mode); a bare
    network host (e.g. the client workstation) just goes dark.
    """

    host: str = ""
    duration: Optional[float] = None

    def __init__(
        self, host: str, at: float = 0.0, duration: Optional[float] = None
    ) -> None:
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "at", at)
        object.__setattr__(self, "duration", duration)

    def validate(self, target: "_Target") -> None:
        super().validate(target)
        target.require_host(self.host)

    def _install(self, target: "_Target") -> "Process":
        machine = target.machines.get(self.host)
        network = target.network
        if machine is not None:
            apply, revert = machine.crash, machine.restore
        else:
            def apply() -> None:
                network.crash_host(self.host)

            def revert() -> None:
                network.restore_host(self.host)
        return target.spawn(
            _window(target.env, self.at, self.duration, apply, revert, self),
            f"fault.crash:{self.host}",
        )


@dataclass(frozen=True)
class Overload(FaultSpec):
    """Multiply ``host``'s load factor by setting it to ``factor``.

    The §2 "overloaded with other work" mode: processes start so slowly
    they miss the startup deadline.  ``duration=None`` leaves the
    machine overloaded forever.
    """

    host: str = ""
    factor: float = 10.0
    duration: Optional[float] = None

    def __init__(
        self,
        host: str,
        factor: float = 10.0,
        at: float = 0.0,
        duration: Optional[float] = None,
    ) -> None:
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "at", at)
        object.__setattr__(self, "duration", duration)

    def validate(self, target: "_Target") -> None:
        super().validate(target)
        if not self.factor > 0:  # also refuses NaN
            raise FaultSpecError(f"Overload.factor must be positive, got {self.factor!r}")
        if self.host not in target.machines:
            raise FaultSpecError(
                f"Overload target {self.host!r} is not a machine on this grid"
            )

    def _install(self, target: "_Target") -> "Process":
        machine = target.machines[self.host]
        state: dict[str, float] = {}

        def apply() -> None:
            state["previous"] = machine.load_factor
            machine.overload(self.factor)

        def revert() -> None:
            machine.load_factor = state.get("previous", 1.0)

        return target.spawn(
            _window(target.env, self.at, self.duration, apply, revert, self),
            f"fault.load:{self.host}",
        )


@dataclass(frozen=True)
class Partition(FaultSpec):
    """Split the network into isolated ``groups`` during the window.

    Hosts not named in any group form an implicit extra group.  The
    partition heals after ``duration`` (None = never).
    """

    groups: tuple[tuple[str, ...], ...] = ()
    duration: Optional[float] = None

    def __init__(
        self,
        groups: Sequence[Sequence[str]],
        at: float = 0.0,
        duration: Optional[float] = None,
    ) -> None:
        object.__setattr__(
            self, "groups", tuple(tuple(g) for g in groups)
        )
        object.__setattr__(self, "at", at)
        object.__setattr__(self, "duration", duration)

    def validate(self, target: "_Target") -> None:
        super().validate(target)
        if not self.groups:
            raise FaultSpecError("Partition needs at least one group")
        for group in self.groups:
            for host in group:
                target.require_host(host)

    def _install(self, target: "_Target") -> "Process":
        network = target.network
        return target.spawn(
            _window(
                target.env,
                self.at,
                self.duration,
                lambda: network.partition(self.groups),
                network.heal_partition,
                self,
            ),
            "fault.partition",
        )


@dataclass(frozen=True)
class MessageLoss(FaultSpec):
    """Bernoulli message loss at ``probability`` during the window.

    ``kinds`` restricts losses to the given message kinds (None = all).
    Draws come from the target's seeded RNG registry (stream
    ``"faults.loss"``) or an explicit generator passed to
    :func:`schedule`, keeping runs deterministic.
    """

    probability: float = 0.1
    duration: Optional[float] = None
    kinds: Optional[frozenset[str]] = None

    def __init__(
        self,
        probability: float,
        at: float = 0.0,
        duration: Optional[float] = None,
        kinds: Optional[Iterable[str]] = None,
    ) -> None:
        object.__setattr__(self, "probability", probability)
        object.__setattr__(self, "at", at)
        object.__setattr__(self, "duration", duration)
        object.__setattr__(
            self, "kinds", frozenset(kinds) if kinds is not None else None
        )

    def validate(self, target: "_Target") -> None:
        super().validate(target)
        if not 0.0 <= self.probability <= 1.0:
            raise FaultSpecError(
                f"MessageLoss.probability {self.probability!r} outside [0, 1]"
            )
        if target.rng is None:
            raise FaultSpecError(
                "MessageLoss needs a seeded rng: schedule against a Grid "
                "or pass rng= to schedule()"
            )

    def rule(self, rng: np.random.Generator):
        """The drop predicate this spec stands for (exposed for shims)."""

        def drop(message: "Message") -> bool:
            if self.kinds is not None and message.kind not in self.kinds:
                return False
            return bool(rng.random() < self.probability)

        return drop

    def _install(self, target: "_Target") -> "Process":
        network = target.network
        rng = target.rng
        assert rng is not None  # validate() enforced it
        rule = self.rule(rng)
        return target.spawn(
            _window(
                target.env,
                self.at,
                self.duration,
                lambda: network.add_drop_rule(rule),
                lambda: network.remove_drop_rule(rule),
                self,
            ),
            "fault.loss",
        )


@dataclass(frozen=True)
class SlowLink(FaultSpec):
    """Degrade the ``src``↔``dst`` link to ``latency`` seconds one-way.

    The previous per-pair setting (or the base latency) is restored
    after ``duration`` (None = degraded forever).
    """

    src: str = ""
    dst: str = ""
    latency: float = 0.1
    duration: Optional[float] = None

    def __init__(
        self,
        src: str,
        dst: str,
        latency: float,
        at: float = 0.0,
        duration: Optional[float] = None,
    ) -> None:
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "latency", latency)
        object.__setattr__(self, "at", at)
        object.__setattr__(self, "duration", duration)

    def validate(self, target: "_Target") -> None:
        super().validate(target)
        if not self.latency >= 0:  # also refuses NaN
            raise FaultSpecError(f"SlowLink.latency must be >= 0, got {self.latency!r}")
        target.require_host(self.src)
        target.require_host(self.dst)

    def _install(self, target: "_Target") -> "Process":
        model = target.network.latency_model
        state: dict[str, Optional[float]] = {}

        def apply() -> None:
            state["previous"] = model.pair_latency(self.src, self.dst)
            model.set_latency(self.src, self.dst, self.latency)

        def revert() -> None:
            previous = state.get("previous")
            if previous is None:
                model.clear_latency(self.src, self.dst)
            else:
                model.set_latency(self.src, self.dst, previous)

        return target.spawn(
            _window(target.env, self.at, self.duration, apply, revert, self),
            f"fault.slowlink:{self.src}-{self.dst}",
        )


# ---------------------------------------------------------------------------
# Installation machinery
# ---------------------------------------------------------------------------


def _window(
    env: "Environment",
    at: float,
    duration: Optional[float],
    apply,
    revert,
    spec: "Optional[FaultSpec]" = None,
):
    """Driver process: apply the fault at ``at``, revert after ``duration``.

    Activation and reversal are reported to the installed probe
    (``fault.apply`` / ``fault.revert`` on the ``faults`` locus) so
    observers — the verification recorder, the flight recorder's
    ``fault.apply`` rule in :data:`~repro.obs.flightrec.RULES` — see
    exactly when each declared fault took effect.  Emission is observation-only and
    changes nothing without a probe.
    """
    if at > env.now:
        yield env.timeout(at - env.now)
    apply()
    if spec is not None:
        emit(env, "faults", "fault.apply", **spec.describe())
    if duration is not None:
        yield env.timeout(duration)
        revert()
        if spec is not None:
            emit(env, "faults", "fault.revert", **spec.describe())


@dataclass
class _Target:
    """Resolved injection surface: where faults land."""

    env: "Environment"
    network: "Network"
    machines: "dict[str, Machine]" = field(default_factory=dict)
    rng: Optional[np.random.Generator] = None

    def require_host(self, host: str) -> None:
        if not self.network.has_host(host):
            raise FaultSpecError(f"unknown host {host!r}")

    def spawn(self, generator, name: str) -> "Process":
        return self.env.process(generator, name=name)


def _resolve(
    target: Any, rng: Optional[np.random.Generator]
) -> _Target:
    from repro.machine.host import Machine
    from repro.net.network import Network

    if hasattr(target, "sites") and hasattr(target, "network"):  # a Grid
        machines = {name: site.machine for name, site in target.sites.items()}
        if rng is None and hasattr(target, "rngs"):
            rng = target.rngs.stream("faults.loss")
        return _Target(target.env, target.network, machines, rng)
    if isinstance(target, Network):
        return _Target(target.env, target, {}, rng)
    if isinstance(target, Machine):
        return _Target(target.env, target.network, {target.name: target}, rng)
    raise FaultSpecError(
        f"cannot inject faults into {type(target).__name__!r}: "
        "expected a Grid, Network, or Machine"
    )


def schedule(
    env: "Environment",
    target: Any,
    specs: Iterable[FaultSpec],
    rng: Optional[np.random.Generator] = None,
) -> "list[Process]":
    """Validate and install ``specs`` against ``target``.

    ``target`` is a built :class:`~repro.gridenv.Grid` (the normal
    case), a bare :class:`~repro.net.network.Network`, or a single
    :class:`~repro.machine.host.Machine`.  All specs are validated
    before any is installed, so a bad campaign fails atomically.
    Returns the spawned driver processes.
    """
    resolved = _resolve(target, rng)
    if resolved.env is not env:
        raise FaultSpecError("target belongs to a different environment")
    spec_list = list(specs)
    for spec in spec_list:
        if not isinstance(spec, FaultSpec):
            raise FaultSpecError(f"not a FaultSpec: {spec!r}")
        spec.validate(resolved)
    return [spec._install(resolved) for spec in spec_list]
