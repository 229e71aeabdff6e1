"""The simulated wide-area network.

The :class:`Network` owns the set of host names, a latency model, and
per-endpoint mailboxes.  ``send()`` schedules delivery of a message into
the destination mailbox after the modeled one-way latency; delivery is
reliable and ordered per (src, dst) pair unless a fault (partition,
drop rule, dead host) intervenes.

The paper's microbenchmarks were run between two machines "on a lightly
loaded network with a latency ... of about 2 msec", which is the default
uniform latency here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

import numpy as np

from repro.errors import HostDown, NetworkError, SimulationError
from repro.net.address import Endpoint
from repro.net.message import Message
from repro.simcore.events import Timeout
from repro.simcore.metrics import NULL_METRICS
from repro.simcore.resources import Store
from repro.simcore.rng import jittered

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment
    from repro.simcore.metrics import MetricsRegistry


#: Default one-way latency between distinct hosts (paper: ~2 ms).
DEFAULT_LATENCY = 0.002

#: Latency for host-local delivery (loopback).
LOCAL_LATENCY = 1e-5

#: Why a message is lost: a drop rule matched at send, the destination
#: was down or partitioned away at delivery, or nothing is bound there.
DROP_REASONS = ("rule", "unreachable", "unbound")


class LatencyModel:
    """Pairwise one-way latency plus optional serialization delay.

    ``base`` applies between distinct hosts unless a per-pair override
    is installed; loopback uses ``local``.  ``jitter_cv`` adds gamma
    jitter with the given coefficient of variation.  ``bandwidth``
    (bytes/s, None = infinite) adds a size-dependent serialization term
    — negligible for control messages at the defaults, but it lets
    experiments model bulk transfers.
    """

    def __init__(
        self,
        base: float = DEFAULT_LATENCY,
        local: float = LOCAL_LATENCY,
        jitter_cv: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        bandwidth: Optional[float] = None,
    ) -> None:
        if bandwidth is not None and bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive, got {bandwidth!r}")
        self.base = float(base)
        self.local = float(local)
        self.jitter_cv = float(jitter_cv)
        self.rng = rng
        self.bandwidth = bandwidth
        self._overrides: dict[tuple[str, str], float] = {}

    def set_latency(self, host_a: str, host_b: str, latency: float) -> None:
        """Install a symmetric per-pair latency override."""
        if latency < 0:
            raise SimulationError(f"negative latency {latency!r}")
        self._overrides[(host_a, host_b)] = latency
        self._overrides[(host_b, host_a)] = latency

    def pair_latency(self, host_a: str, host_b: str) -> Optional[float]:
        """The current override for a pair, if any (None = base latency)."""
        return self._overrides.get((host_a, host_b))

    def clear_latency(self, host_a: str, host_b: str) -> None:
        """Remove a pair's override, restoring the base latency."""
        self._overrides.pop((host_a, host_b), None)
        self._overrides.pop((host_b, host_a), None)

    def latency(self, src: str, dst: str, size_bytes: int = 0) -> float:
        """One-way delay for a ``size_bytes`` message from src to dst."""
        if src == dst:
            return self.local
        mean = self._overrides.get((src, dst), self.base)
        delay = jittered(self.rng, mean, self.jitter_cv)
        if self.bandwidth is not None and size_bytes > 0:
            delay += size_bytes / self.bandwidth
        return delay


class KindSeries:
    """Every series labelled with one message kind, resolved once.

    ``send``/``_deliver_message`` write the first two per message and
    :func:`repro.net.rpc.call` the rest per call; a kind that is never
    an RPC never asks for the ``rpc.*`` instruments.
    """

    __slots__ = ("sent", "delivered", "rpc_calls", "rpc_timeouts", "rpc_latency")

    def __init__(self, metrics: "MetricsRegistry", kind: str) -> None:
        self.sent = metrics.bind("counter", "net.messages_sent_total", kind=kind)
        self.delivered = metrics.bind("counter", "net.messages_delivered_total", kind=kind)
        self.rpc_calls = metrics.bind("counter", "rpc.calls_total", kind=kind)
        self.rpc_timeouts = metrics.bind("counter", "rpc.timeouts_total", kind=kind)
        self.rpc_latency = metrics.bind("histogram", "rpc.latency_seconds", kind=kind)


class Network:
    """Hosts, mailboxes, and message delivery.

    Every ``send()`` schedules its own kernel event: exactly one event
    per in-flight message.
    """

    def __init__(
        self,
        env: "Environment",
        latency_model: Optional[LatencyModel] = None,
    ) -> None:
        self.env = env
        self.latency_model = latency_model or LatencyModel()
        #: The run's registry, read once: ``send()`` runs per message.
        self.metrics = metrics = env.tracer.metrics
        #: Series bound once, written per message (a handle asks for its
        #: instrument on its first write); per kind, at first sight.
        self._m_kinds: dict[str, KindSeries] = {}
        self._m_send_rate = metrics.bind("rate", "net.send_rate")
        self._m_latency = metrics.bind("histogram", "net.delivery_latency_seconds")
        self._m_dropped = {
            reason: metrics.bind("counter", "net.messages_dropped_total", reason=reason)
            for reason in DROP_REASONS
        }
        self._hosts: set[str] = set()
        self._down: set[str] = set()
        self._mailboxes: dict[Endpoint, Store] = {}
        #: Partition groups: messages cross groups only if allowed.
        self._partitions: dict[str, int] = {}
        #: Drop rules: callables deciding whether to drop a message.
        self._drop_rules: list[Callable[[Message], bool]] = []
        #: Counters for observability.
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0

    # -- topology ------------------------------------------------------------

    def add_host(self, name: str) -> None:
        """Register a host name (idempotent)."""
        # Topology-bounded: one entry per machine in the grid, and
        # crash/partition faults mark hosts down rather than remove
        # them.
        self._hosts.add(name)  # repro: noqa mem-grow-only-attr

    def has_host(self, name: str) -> bool:
        return name in self._hosts

    @property
    def hosts(self) -> frozenset[str]:
        return frozenset(self._hosts)

    def _require_host(self, name: str) -> None:
        if name not in self._hosts:
            raise NetworkError(f"unknown host {name!r}")

    # -- host liveness ---------------------------------------------------------

    def host_up(self, name: str) -> bool:
        return name in self._hosts and name not in self._down

    def crash_host(self, name: str) -> None:
        """Mark a host dead: its mailboxes stop receiving messages."""
        self._require_host(name)
        self._down.add(name)

    def restore_host(self, name: str) -> None:
        self._require_host(name)
        self._down.discard(name)

    # -- partitions & drops -------------------------------------------------

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split hosts into isolated groups (unlisted hosts stay in group 0)."""
        self._partitions.clear()
        for gid, group in enumerate(groups, start=1):
            for host in group:
                self._require_host(host)
                self._partitions[host] = gid

    def heal_partition(self) -> None:
        self._partitions.clear()

    def add_drop_rule(self, rule: Callable[[Message], bool]) -> Callable[[Message], bool]:
        """Register a predicate; messages for which it returns True are lost."""
        self._drop_rules.append(rule)
        return rule

    def remove_drop_rule(self, rule: Callable[[Message], bool]) -> None:
        self._drop_rules.remove(rule)

    def _reachable(self, src: str, dst: str) -> bool:
        if dst in self._down:
            return False
        if not self._partitions or src == dst:
            return True
        return self._partitions.get(src, 0) == self._partitions.get(dst, 0)

    # -- endpoints ---------------------------------------------------------

    def bind(self, endpoint: Endpoint) -> Store:
        """Create (or return) the mailbox for an endpoint."""
        self._require_host(endpoint.host)
        box = self._mailboxes.get(endpoint)
        if box is None:
            box = Store(self.env)
            self._mailboxes[endpoint] = box
        return box

    def unbind(self, endpoint: Endpoint) -> None:
        """Drop an endpoint's mailbox (idempotent).

        Messages already in flight to it are counted as drops on
        arrival ("unbound"), exactly as if it had never been bound —
        call it when a per-request reply port is done so a long-running
        service does not retain one mailbox per request ever served.
        """
        self._mailboxes.pop(endpoint, None)

    def mailbox(self, endpoint: Endpoint) -> Store:
        """The mailbox for a bound endpoint (error if unbound)."""
        try:
            return self._mailboxes[endpoint]
        except KeyError:
            raise NetworkError(f"endpoint {endpoint} is not bound") from None

    def is_bound(self, endpoint: Endpoint) -> bool:
        return endpoint in self._mailboxes

    # -- delivery ------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Asynchronously deliver ``message`` after the modeled latency.

        Sending from a dead host raises :class:`HostDown` (the sender
        cannot act); sending *to* a dead/partitioned/unbound endpoint
        silently loses the message, exactly as a real datagram would.
        Reliability on top of this (timeouts, retries) is the RPC
        layer's job.
        """
        src_host = message.src.host
        dst_host = message.dst.host
        hosts = self._hosts
        if src_host not in hosts:
            raise NetworkError(f"unknown host {src_host!r}")
        if dst_host not in hosts:
            raise NetworkError(f"unknown host {dst_host!r}")
        if src_host in self._down:
            raise HostDown(f"source host {src_host!r} is down")

        env = self.env
        self.sent_count += 1
        message.sent_at = env.now
        # Unobserved runs (NULL_METRICS, no probe) make no metering
        # calls: this runs once per message.
        if self.metrics is not NULL_METRICS:
            series = self._m_kinds.get(message.kind)
            if series is None:
                series = self.kind_series(message.kind)
            series.sent.inc()
            self._m_send_rate.tick()
        probe = env.probe
        if probe is not None:
            probe.on_send(message)

        if self._drop_rules and any(rule(message) for rule in self._drop_rules):
            self._drop(message, "rule")
            return

        delay = self.latency_model.latency(src_host, dst_host, message.size_bytes)
        Timeout(env, delay, message).callbacks.append(self._deliver)

    def _deliver(self, event) -> None:
        """The delivery event's value is the message."""
        self._deliver_message(event._value)

    def _deliver_message(self, message: Message) -> None:
        # Reachability is evaluated at delivery time so that a partition
        # or crash occurring mid-flight loses the message.
        if (self._down or self._partitions) and not self._reachable(
            message.src.host, message.dst.host
        ):
            self._drop(message, "unreachable")
            return
        box = self._mailboxes.get(message.dst)
        if box is None:
            self._drop(message, "unbound")
            return
        env = self.env
        message.delivered_at = now = env.now
        self.delivered_count += 1
        if self.metrics is not NULL_METRICS:
            series = self._m_kinds.get(message.kind)
            if series is None:
                series = self.kind_series(message.kind)
            series.delivered.inc()
            if message.sent_at is not None:
                self._m_latency.observe(now - message.sent_at)
        probe = env.probe
        if probe is not None:
            probe.on_deliver(message)
        box.put(message)

    def kind_series(self, kind: str) -> "KindSeries":
        """The metering handles of one message kind, bound at first sight."""
        series = self._m_kinds.get(kind)
        if series is None:
            # Code-bounded: message kinds are string literals at the
            # sending sites (plus their ".reply"/".error" forms), not
            # request data.
            series = self._m_kinds[kind] = KindSeries(  # repro: noqa mem-grow-only-attr
                self.metrics, kind
            )
        return series

    def _drop(self, message: Message, reason: str) -> None:
        self.dropped_count += 1
        self._m_dropped[reason].inc()
        probe = self.env.probe
        if probe is not None:
            probe.on_drop(message, reason)
