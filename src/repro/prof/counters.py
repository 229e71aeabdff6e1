"""Machine-independent cost counters for the simulator itself.

Wall-clock timings of a discrete-event simulator measure the host, not
the code: the deterministic currency here is *op counts* — kernel
events processed, peak event-heap depth, messages through the network.
The kernel and the network each keep their own tallies;
:class:`OpCounters` reads them when asked and files them under their
profile counter names, so "attaching" it cannot change the run.

Protocol-level op counts (RPC round-trips, retry attempts) already
live in the metrics registry;
:func:`repro.prof.profile.counters_from_metrics` folds those into the
same profile section.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.simcore.environment import Environment


class OpCounters:
    """A run's kernel and network op counts, read off their owners:
    the kernel, and the network if the run has one."""

    def __init__(
        self,
        env: "Environment",
        network: "Optional[Network]" = None,
    ) -> None:
        self.env = env
        self.network = network

    def snapshot(self) -> dict[str, float]:
        """The counts under their profile counter names."""
        queue = self.env.queue.stats()
        network = self.network
        sent, delivered, dropped = (
            (network.sent_count, network.delivered_count, network.dropped_count)
            if network is not None
            else (0, 0, 0)
        )
        return {
            "sim.events_processed": queue["pops"],
            "sim.events_scheduled": queue["pushes"],
            "sim.heap_high_water": queue["high_water"],
            "sim.messages_sent": float(sent),
            "sim.messages_delivered": float(delivered),
            "sim.messages_dropped": float(dropped),
        }
