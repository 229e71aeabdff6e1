"""Circuit breakers for GRAM endpoints.

A grid client talks to many independently administered sites; when one
of them is down, every interaction costs a full timeout.  A
:class:`CircuitBreaker` remembers recent failures per endpoint and
fails fast (:class:`~repro.errors.CircuitOpen`) while the site is
presumed dead, admitting a single probe after ``recovery_time``
simulated seconds — the standard CLOSED → OPEN → HALF_OPEN lifecycle,
declared as a literal table in :mod:`repro.resilience.states` for the
``sm-*`` static checker.

:class:`BreakerBoard` keys breakers by endpoint so a
:class:`~repro.gram.client.GramClient` holds one breaker per gatekeeper
or job-manager contact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.errors import CircuitOpen
from repro.resilience.states import BreakerPhase, check_breaker_transition
from repro.simcore.probe import emit

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment


class CircuitBreaker:
    """Failure-counting breaker for one endpoint."""

    def __init__(
        self,
        env: "Environment",
        endpoint: Any = None,
        failure_threshold: int = 5,
        recovery_time: float = 30.0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold!r}"
            )
        if recovery_time <= 0:
            raise ValueError(f"recovery_time must be positive, got {recovery_time!r}")
        self.env = env
        self.endpoint = endpoint
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        metrics = env.tracer.metrics
        self._m_state = metrics.bind(
            "gauge", "resilience.breaker_state", endpoint=str(endpoint)
        )
        self._m_trips = metrics.bind(
            "counter", "resilience.breaker_trips_total", endpoint=str(endpoint)
        )
        self.state = BreakerPhase.CLOSED
        self.failures = 0
        self.opened_at: Optional[float] = None

    def _transition(self, new: BreakerPhase) -> None:
        check_breaker_transition(self.state, new)
        self.state = new
        self._m_state.set(list(BreakerPhase).index(new))

    @property
    def retry_at(self) -> Optional[float]:
        """When an OPEN breaker will next admit a probe."""
        if self.opened_at is None:
            return None
        return self.opened_at + self.recovery_time

    def admit(self) -> None:
        """Gate one call: raise :class:`~repro.errors.CircuitOpen` or pass.

        An OPEN breaker whose recovery time has elapsed moves to
        HALF_OPEN and admits the call as its probe.
        """
        if self.state is BreakerPhase.OPEN:
            retry_at = self.retry_at
            if retry_at is not None and self.env.now >= retry_at:
                self._transition(BreakerPhase.HALF_OPEN)
                return
            raise CircuitOpen(
                f"circuit for {self.endpoint} is open until t={retry_at:g}s",
                endpoint=self.endpoint,
                retry_at=retry_at,
            )

    def record_success(self) -> None:
        """A call completed: close a HALF_OPEN probe, clear the count."""
        if self.state is BreakerPhase.HALF_OPEN:
            self._transition(BreakerPhase.CLOSED)
        self.failures = 0

    def record_failure(self) -> None:
        """A call failed: count it; trip when the threshold is crossed."""
        self.failures += 1
        if self.state is BreakerPhase.HALF_OPEN:
            self._trip()
        elif (
            self.state is BreakerPhase.CLOSED
            and self.failures >= self.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self._transition(BreakerPhase.OPEN)
        self.opened_at = self.env.now
        self._m_trips.inc()
        emit(
            self.env,
            str(self.endpoint),
            "resilience.breaker_open",
            endpoint=str(self.endpoint),
            failures=self.failures,
        )

    def __repr__(self) -> str:
        return (
            f"<CircuitBreaker {self.endpoint} {self.state.value} "
            f"failures={self.failures}>"
        )


class BreakerBoard:
    """One breaker per endpoint, created on demand with shared settings."""

    def __init__(
        self,
        env: "Environment",
        failure_threshold: int = 5,
        recovery_time: float = 30.0,
    ) -> None:
        self.env = env
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self._breakers: dict[str, CircuitBreaker] = {}

    def breaker(self, endpoint: Any) -> CircuitBreaker:
        """The breaker for ``endpoint`` (keyed by its string form)."""
        key = str(endpoint)
        found = self._breakers.get(key)
        if found is None:
            found = CircuitBreaker(
                self.env,
                endpoint=endpoint,
                failure_threshold=self.failure_threshold,
                recovery_time=self.recovery_time,
            )
            self._breakers[key] = found
        return found

    def __contains__(self, endpoint: Any) -> bool:
        return str(endpoint) in self._breakers

    def __repr__(self) -> str:
        states = {k: b.state.value for k, b in sorted(self._breakers.items())}
        return f"<BreakerBoard {states}>"
