"""Machine-level fault models.

:class:`FailureModel` (Bernoulli per-machine faults for scenario
sweeps) lives here.  Imperative, time-targeted faults — crashes,
overload windows, partitions — go through the unified declarative
facade instead: :mod:`repro.faults` specs installed with
:func:`repro.faults.schedule` or ``GridBuilder.with_faults``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.machine.host import Machine

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass(frozen=True)
class FailureModel:
    """Stochastic per-machine failure behaviour for scenario sweeps.

    ``p_unavailable``  — probability a machine is already down when the
    co-allocation request reaches it (the paper's "system crash" case).

    ``p_slow`` / ``slow_factor`` — probability a machine is overloaded,
    and by how much startup is inflated (the "five minutes late at the
    barrier" case).

    ``p_start_failure`` — probability an individual application process
    reports unsuccessful startup after its local checks (the paper's
    application-defined failure: bad libraries, no disk space, ...).
    """

    p_unavailable: float = 0.0
    p_slow: float = 0.0
    slow_factor: float = 10.0
    p_start_failure: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_unavailable", "p_slow", "p_start_failure"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p!r} outside [0, 1]")
        if self.slow_factor < 1.0:
            raise ValueError("slow_factor must be >= 1")

    def apply(
        self,
        machines: Sequence[Machine],
        rng: np.random.Generator,
    ) -> dict[str, str]:
        """Draw and install faults; returns {machine: fault kind}."""
        outcome: dict[str, str] = {}
        for machine in machines:
            draw = rng.random()
            if draw < self.p_unavailable:
                machine.crash()
                outcome[machine.name] = "crashed"
            elif draw < self.p_unavailable + self.p_slow:
                machine.overload(self.slow_factor)
                outcome[machine.name] = "slow"
            else:
                outcome[machine.name] = "ok"
        return outcome
