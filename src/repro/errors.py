"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause.
Protocol-level failures (a denied allocation, a failed authentication)
are *also* modeled as values/states where the paper's protocol calls for
it; exceptions are reserved for misuse of the API and for propagating
failures into application processes.

Failure-path errors carry *structured* fields (endpoint, elapsed time,
attempt counts, subjob indices) so that recovery code — the DUROC
co-allocator, the broker agents, the resilience layer — can match on
types and read attributes instead of parsing message strings.
"""

from __future__ import annotations

from typing import Any, Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """Misuse or internal failure of the discrete-event kernel."""


class StopProcess(BaseException):
    """Raised inside a simulated process to terminate it immediately.

    Derives from ``BaseException`` (like ``GeneratorExit``) so that
    application code using broad ``except Exception`` handlers cannot
    accidentally swallow process termination.
    """


class NetworkError(ReproError):
    """A message could not be delivered (partition, dead host, ...)."""


class RPCTimeout(NetworkError):
    """An RPC did not receive a reply within its timeout.

    Carries the call's coordinates so retry logic can act on
    them without string parsing: ``endpoint`` (the remote), ``kind``
    (the operation), ``timeout`` (the budget that elapsed), and
    ``attempts`` (how many tries a retrying caller made; 1 for a bare
    call).
    """

    def __init__(
        self,
        message: str,
        *,
        endpoint: Any = None,
        kind: Optional[str] = None,
        timeout: Optional[float] = None,
        attempts: int = 1,
    ) -> None:
        super().__init__(message)
        self.endpoint = endpoint
        self.kind = kind
        self.timeout = timeout
        self.attempts = attempts


class HostDown(NetworkError):
    """The destination host has crashed or is unreachable."""


class AuthenticationError(ReproError):
    """GSI mutual authentication failed."""


class AuthTimeout(AuthenticationError):
    """The GSI handshake timed out (lost message, dead peer).

    Distinct from a denial so retry logic can treat it as transient;
    ``endpoint`` and ``timeout`` describe the stalled exchange.
    """

    def __init__(
        self,
        message: str,
        *,
        endpoint: Any = None,
        timeout: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.endpoint = endpoint
        self.timeout = timeout


class AuthorizationError(ReproError):
    """GSI authorization (gridmap lookup) failed."""


class RSLError(ReproError):
    """Base for RSL language processing errors."""


class RSLSyntaxError(RSLError):
    """The RSL text could not be parsed."""


class RSLValidationError(RSLError):
    """The RSL parsed but is not a valid request (bad attribute etc.)."""


class GramError(ReproError):
    """A GRAM request failed at the local resource manager.

    ``contact`` names the resource manager and ``payload`` carries the
    remote refusal verbatim (when the failure was a remote answer
    rather than a local condition).
    """

    def __init__(
        self,
        message: str,
        *,
        contact: Optional[str] = None,
        payload: Any = None,
    ) -> None:
        super().__init__(message)
        self.contact = contact
        self.payload = payload


class ResilienceError(ReproError):
    """Base class for failures raised by the resilience layer."""


class RetryExhausted(ResilienceError):
    """A retried operation failed on every permitted attempt.

    ``last_error`` is the exception of the final attempt; ``attempts``
    and ``elapsed`` describe the whole retry episode against
    ``endpoint`` (which may be None for non-RPC operations).
    """

    def __init__(
        self,
        message: str,
        *,
        attempts: int,
        elapsed: float,
        endpoint: Any = None,
        last_error: Optional[BaseException] = None,
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.elapsed = elapsed
        self.endpoint = endpoint
        self.last_error = last_error


class DeadlineExceeded(ResilienceError):
    """An operation ran past its absolute deadline.

    ``deadline`` is the absolute simulated time that passed; ``elapsed``
    is how long the operation had been running when it was cut off.
    """

    def __init__(
        self,
        message: str,
        *,
        deadline: Optional[float] = None,
        elapsed: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.deadline = deadline
        self.elapsed = elapsed


class FaultSpecError(ReproError):
    """A declarative fault specification is invalid for the target grid."""


class SchedulerError(ReproError):
    """A local scheduler rejected or cannot satisfy a request."""


class ReservationError(SchedulerError):
    """An advance reservation could not be granted or honored."""


class CoAllocationError(ReproError):
    """Base class for co-allocation (GRAB/DUROC) failures."""


class RequestStateError(CoAllocationError):
    """An edit/control operation was applied in an illegal request state."""


class AllocationAborted(CoAllocationError):
    """The co-allocation was aborted (required subjob failed, kill, ...).

    ``subjob`` is the index of the subjob whose failure triggered the
    abort (None when the abort had no single culprit — e.g. an explicit
    kill); agents use it to revise and resubmit without parsing the
    reason text.
    """

    def __init__(self, message: str, *, subjob: Optional[int] = None) -> None:
        super().__init__(message)
        self.subjob = subjob


class ConfigurationError(CoAllocationError):
    """The post-allocation configuration phase (naming/wiring) failed."""


class MPIError(ReproError):
    """Failure inside the mini-MPI (MPICH-G-like) layer."""
