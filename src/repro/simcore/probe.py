"""The probe seam: the one interface through which a run is observed.

:class:`Probe`'s hooks are the simulator's whole event vocabulary (who
announces and who subscribes to each is tabulated once, in
docs/OBSERVABILITY.md).  The default is *no probe*
(``Environment.probe is None``) and every hook is a no-op, so
instrumented code behaves identically whether or not a run is being
observed.  Probes must never schedule events or draw random numbers.

Concrete probes live higher up; this module only defines the seam so
that low-level packages (``net``, ``core``) never import those layers.
:func:`attach` installs any number of them on an environment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message
    from repro.simcore.environment import Environment
    from repro.simcore.tracing import Mark, Span


class Probe:
    """Base probe: every hook is a no-op.  Subclass and override."""

    #: The environment being observed, set by :func:`attach`.
    env: "Optional[Environment]" = None

    def on_schedule(self, when: float, queue_size: int) -> None:
        """An event was pushed onto the kernel heap (now ``queue_size`` deep)."""

    def on_step(self, now: float) -> None:
        """The kernel processed one event at simulated time ``now``."""

    def on_send(self, message: "Message") -> None:
        """A message entered the network."""

    def on_deliver(self, message: "Message") -> None:
        """A message reached its destination mailbox."""

    def on_drop(self, message: "Message", reason: str) -> None:
        """A message was lost (drop rule, partition, crash, unbound)."""

    def event(self, node: str, name: str, attrs: dict[str, Any]) -> None:
        """A named protocol event occurred at ``node``."""

    def access(
        self, node: str, resource: str, mode: str, attrs: dict[str, Any]
    ) -> None:
        """``node`` read (``mode='r'``) or wrote (``'w'``) ``resource``."""

    def register_locus(self, endpoint: str, locus: str) -> None:
        """Map an endpoint onto its owning locus of control."""

    def on_span_open(
        self, trace_id: str, span_id: int, parent_id: Optional[int], name: str
    ) -> None:
        """A span was opened (ids are final; the end time is not known yet)."""

    def on_span_close(self, span: "Span") -> None:
        """A span completed."""

    def on_mark(self, mark: "Mark") -> None:
        """A mark was recorded."""


#: The event vocabulary, by hook name.  By contract every callable on
#: :class:`Probe` is a hook (helpers belong at module level): each is
#: fanned out by :class:`FanoutProbe`, and the names are pinned in
#: tests/prof/test_counters.py.
HOOKS = tuple(name for name, member in vars(Probe).items() if callable(member))


def _fan_out(targets: list[Callable[..., None]]) -> Callable[..., None]:
    def hook(*args: Any) -> None:
        for target in targets:
            target(*args)

    return hook


def _hears(probe: Probe, name: str) -> bool:
    """Whether ``probe`` does anything on hook ``name`` (overrides it)."""
    return getattr(getattr(probe, name), "__func__", None) is not getattr(Probe, name)


class FanoutProbe(Probe):
    """Dispatches each hook to the probes that override it, in
    installation order.

    The forwarders are bound to the targets' methods at construction: a
    hook one probe overrides is that probe's method itself, and a hook
    none overrides stays :class:`Probe`'s no-op — the kernel announces
    ``on_schedule``/``on_step`` per event, whoever listens.
    """

    def __init__(self, probes: Iterable[Probe]) -> None:
        self.probes: tuple[Probe, ...] = tuple(probes)
        for name in HOOKS:
            targets = [getattr(p, name) for p in self.probes if _hears(p, name)]
            if targets:
                setattr(
                    self, name, targets[0] if len(targets) == 1 else _fan_out(targets)
                )


def attach(env: "Environment", *probes: Probe) -> None:
    """Point ``probes`` at ``env`` and install them as its observers.

    One probe is installed directly; several fan out in the order given.
    """
    for probe in probes:
        probe.env = env
    if probes:
        env.probe = probes[0] if len(probes) == 1 else FanoutProbe(probes)


def emit(env: "Environment", node: str, name: str, **attrs: Any) -> None:
    """Report a protocol event to the installed probe (no-op without one)."""
    probe = env.probe
    if probe is not None:
        probe.event(node, name, attrs)


def record_access(
    env: "Environment", node: str, resource: str, mode: str, **attrs: Any
) -> None:
    """Report a state access to the installed probe (no-op without one)."""
    probe = env.probe
    if probe is not None:
        probe.access(node, resource, mode, attrs)


def register_locus(env: "Environment", endpoint: Any, locus: str) -> None:
    """Tie ``endpoint`` to ``locus`` in the installed probe, if any."""
    probe = env.probe
    if probe is not None:
        probe.register_locus(str(endpoint), locus)
