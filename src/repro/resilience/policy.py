"""Retry policies, deadlines, and timeout wrappers on the simulated clock.

A :class:`RetryPolicy` is pure data: attempt cap, backoff shape, jitter
fraction, and an optional per-episode deadline.  Delays are drawn from a
caller-supplied seeded ``numpy`` generator (normally a named
:class:`~repro.simcore.rng.RngRegistry` stream), so a retried run is
bit-for-bit reproducible — the determinism the fault-campaign harness
and the repository's determinism tests rely on.

:func:`retrying` is the executor: it drives a *factory of attempts*
(each attempt is a fresh generator) under a policy, sleeping out the
backoff delays on the simulated clock, optionally consulting a
:class:`~repro.resilience.breaker.CircuitBreaker`, and raising a typed
:class:`~repro.errors.RetryExhausted` when the policy gives up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generator,
    Optional,
    Tuple,
    Type,
)

import numpy as np

from repro.errors import (
    CircuitOpen,
    DeadlineExceeded,
    HostDown,
    RetryExhausted,
    RPCTimeout,
)
from repro.resilience.states import AttemptPhase, check_attempt_transition
from repro.simcore.probe import emit

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.breaker import CircuitBreaker
    from repro.simcore.environment import Environment

#: Failures that are transient by default: a lost reply or a dead peer
#: that may come back.  Callers extend this per operation (e.g. with
#: :class:`~repro.errors.AuthTimeout` for the GSI handshake).
DEFAULT_RETRY_ON: Tuple[Type[BaseException], ...] = (RPCTimeout, HostDown)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, jittered exponential backoff.

    ``delay(n)`` is the sleep *after* failed attempt ``n``:
    ``min(max_delay, base_delay * multiplier**(n-1))``, scaled by a
    uniform factor in ``[1-jitter, 1+jitter]`` drawn from the caller's
    seeded RNG.  ``deadline`` (seconds, relative to episode start)
    bounds the whole episode: no new attempt starts past it.
    """

    max_attempts: int = 4
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")
        if self.base_delay < 0:
            raise ValueError(f"negative base_delay {self.base_delay!r}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier!r}")
        if self.max_delay < 0:
            raise ValueError(f"negative max_delay {self.max_delay!r}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter {self.jitter!r} outside [0, 1)")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline!r}")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A single attempt, no backoff: the pre-resilience behaviour."""
        return cls(max_attempts=1, base_delay=0.0, jitter=0.0)

    def delay(
        self, attempt: int, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Backoff to sleep after failed attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt numbers are 1-based, got {attempt!r}")
        nominal = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if rng is None or self.jitter <= 0.0 or nominal == 0.0:
            return nominal
        factor = 1.0 - self.jitter + 2.0 * self.jitter * float(rng.random())
        return nominal * factor

    def schedule(
        self, rng: Optional[np.random.Generator] = None
    ) -> list[float]:
        """The episode's full backoff schedule (one delay per retry).

        Consumes ``max_attempts - 1`` draws from ``rng``; with the same
        seeded stream the schedule is identical on every run.
        """
        return [self.delay(n, rng) for n in range(1, self.max_attempts)]


class Deadline:
    """An absolute point on the simulated clock an operation must beat.

    ``budget=None`` means unbounded (every check passes); otherwise the
    deadline is ``env.now + budget`` at construction.  ``remaining``
    never goes negative and is monotone non-increasing as simulated
    time advances.
    """

    def __init__(self, env: "Environment", budget: Optional[float] = None) -> None:
        if budget is not None and budget < 0:
            raise ValueError(f"negative deadline budget {budget!r}")
        self.env = env
        self.started_at = env.now
        self.at: Optional[float] = None if budget is None else env.now + budget

    @property
    def remaining(self) -> float:
        """Seconds left (``inf`` when unbounded, floored at 0)."""
        if self.at is None:
            return float("inf")
        return max(0.0, self.at - self.env.now)

    @property
    def expired(self) -> bool:
        return self.at is not None and self.env.now >= self.at

    def check(self, operation: str = "operation") -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` if past due."""
        if self.expired:
            raise DeadlineExceeded(
                f"{operation} missed its deadline at t={self.at:g}s",
                deadline=self.at,
                elapsed=self.env.now - self.started_at,
            )

    def clamp(self, timeout: Optional[float] = None) -> Optional[float]:
        """The tighter of ``timeout`` and the time left on this deadline.

        Returns None only when both are unbounded — the shape RPC
        ``timeout=`` parameters expect.
        """
        if self.at is None:
            return timeout
        if timeout is None:
            return self.remaining
        return min(timeout, self.remaining)

    def __repr__(self) -> str:
        bound = "unbounded" if self.at is None else f"at={self.at:g}"
        return f"<Deadline {bound} remaining={self.remaining:g}>"


def with_timeout(
    env: "Environment",
    gen: Generator,
    timeout: float,
    operation: str = "operation",
) -> Generator:
    """Race generator ``gen`` against ``timeout`` simulated seconds.

    Returns the generator's value if it finishes in time; otherwise
    interrupts it and raises :class:`~repro.errors.DeadlineExceeded`.
    Use for composite operations; plain RPCs should pass their
    ``timeout=`` parameter instead.
    """
    if timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout!r}")
    proc = env.process(gen, name=f"timeout:{operation}")
    timer = env.timeout(timeout)
    yield proc | timer
    if proc.triggered:
        timer.cancelled = True
        return proc.value
    proc.defused = True  # its eventual outcome no longer matters
    if proc.is_alive:
        proc.interrupt(cause=f"{operation} timed out")
    raise DeadlineExceeded(
        f"{operation} did not finish within {timeout:g}s",
        deadline=env.now,
        elapsed=timeout,
    )


class RetryEpisode:
    """Bookkeeping for one retried operation.

    Tracks the :class:`AttemptPhase` lifecycle, the per-episode
    deadline, and the backoff delays actually slept.  Normally driven
    by :func:`retrying`; exposed for callers that need custom attempt
    loops (the atomic broker agent resubmits whole co-allocation
    requests rather than single calls).
    """

    def __init__(
        self,
        env: "Environment",
        policy: RetryPolicy,
        rng: Optional[np.random.Generator] = None,
        operation: str = "operation",
        endpoint: Any = None,
    ) -> None:
        self.env = env
        self.policy = policy
        self.rng = rng
        self.operation = operation
        self.endpoint = endpoint
        metrics = env.tracer.metrics
        self._m_retries = metrics.bind(
            "counter", "resilience.retries_total", operation=operation
        )
        self._m_exhausted = metrics.bind(
            "counter", "resilience.exhausted_total", operation=operation
        )
        self.state = AttemptPhase.RUNNING
        self.attempt = 1
        self.started_at = env.now
        self.deadline = Deadline(env, policy.deadline)
        self.delays: list[float] = []

    def _transition(self, new: AttemptPhase) -> None:
        check_attempt_transition(self.state, new)
        self.state = new

    @property
    def elapsed(self) -> float:
        return self.env.now - self.started_at

    @property
    def retries(self) -> int:
        """Retries performed so far (attempts beyond the first)."""
        return self.attempt - 1

    def succeeded(self) -> None:
        """Mark the episode complete after a successful attempt."""
        self._transition(AttemptPhase.SUCCEEDED)

    def exhaust(self, cause: Optional[BaseException], why: str) -> None:
        """End the episode unsuccessfully; always raises RetryExhausted."""
        self._transition(AttemptPhase.EXHAUSTED)
        self._m_exhausted.inc()
        emit(
            self.env,
            str(self.endpoint) if self.endpoint is not None else self.operation,
            "resilience.retry_exhausted",
            operation=self.operation,
            attempts=self.attempt,
            why=why,
        )
        raise RetryExhausted(
            f"{self.operation} failed after {self.attempt} attempt(s) "
            f"({why}): {cause}",
            attempts=self.attempt,
            elapsed=self.elapsed,
            endpoint=self.endpoint,
            last_error=cause,
        )

    def backoff(self, cause: Optional[BaseException] = None) -> Generator:
        """Generator: absorb one failed attempt.

        Either sleeps the policy's next backoff delay and returns
        (caller retries), or raises :class:`~repro.errors.RetryExhausted`
        when the attempt cap or deadline forbids another attempt.
        """
        if self.attempt >= self.policy.max_attempts:
            self.exhaust(cause, "attempt limit reached")
        delay = self.policy.delay(self.attempt, self.rng)
        if self.deadline.remaining < delay:
            self.exhaust(cause, "deadline reached")
        self._transition(AttemptPhase.BACKING_OFF)
        self.delays.append(delay)
        self._m_retries.inc()
        if delay > 0:
            yield self.env.timeout(delay)
        self._transition(AttemptPhase.RUNNING)
        self.attempt += 1


def retrying(
    env: "Environment",
    policy: RetryPolicy,
    factory: Callable[[], Generator],
    *,
    rng: Optional[np.random.Generator] = None,
    retry_on: Tuple[Type[BaseException], ...] = DEFAULT_RETRY_ON,
    operation: str = "operation",
    endpoint: Any = None,
    breaker: "Optional[CircuitBreaker]" = None,
) -> Generator:
    """Generator: run ``factory()`` attempts under ``policy``.

    ``factory`` must build a *fresh* generator per call (attempts are
    not resumable).  Failures matching ``retry_on`` trigger backoff and
    another attempt; anything else propagates immediately.  A
    ``breaker``, when given, is consulted before every attempt —
    :class:`~repro.errors.CircuitOpen` refusals are themselves backed
    off, so an episode can outwait a breaker's recovery window.
    """
    episode = RetryEpisode(env, policy, rng, operation=operation, endpoint=endpoint)
    while True:
        try:
            if breaker is not None:
                breaker.admit()
            result = yield from factory()
        except CircuitOpen as exc:
            yield from episode.backoff(exc)
            continue
        except retry_on as exc:
            if breaker is not None:
                breaker.record_failure()
            yield from episode.backoff(exc)
            continue
        if breaker is not None:
            breaker.record_success()
        episode.succeeded()
        return result
