"""GRAB — the atomic-transaction co-allocator (§3.2, §4.1).

"The most straightforward co-allocation strategy ...  All required
resources are specified at the time the request is made.  The request
succeeds if all resources required by the application are allocated.
Otherwise, the request fails and none of the resources are acquired."

GRAB is implemented over the same two-phase-commit machinery as DUROC
with every subjob forced ``required`` and commit issued immediately:
any failure or timeout aborts the transaction and cancels everything
already acquired.  Its API is exactly what the paper describes — "an
allocation function on the client side, which returns success or
failure, and a barrier function for use within the application" (the
barrier function is shared: :func:`repro.core.applib.barrier`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.coallocator import Duroc, DurocJob, DurocResult
from repro.core.request import CoAllocationRequest, SubjobSpec, SubjobType
from repro.gsi.auth import AuthConfig
from repro.gsi.credentials import Credential
from repro.net.network import Network
from repro.resilience import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.simcore.environment import Environment
    from repro.simcore.events import Event


class Grab:
    """Atomic all-or-nothing co-allocation."""

    def __init__(
        self,
        network: Network,
        host: str,
        credential: Credential,
        auth: Optional[AuthConfig] = None,
        default_subjob_timeout: float = 300.0,
        submit_timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._duroc = Duroc(
            network,
            host,
            credential,
            auth=auth,
            default_subjob_timeout=default_subjob_timeout,
            submit_timeout=submit_timeout,
            retry=retry,
            rng=rng,
        )

    @property
    def env(self) -> "Environment":
        return self._duroc.env

    def allocate(
        self, request: CoAllocationRequest
    ) -> "Generator[Event, Any, DurocResult]":
        """Generator: the atomic allocation function.

        Returns a :class:`DurocResult` if *every* subjob started, or
        raises :class:`AllocationAborted` — in which case all acquired
        resources have been released.  "The contents of a co-allocation
        request ... may not be changed once the request has been
        initiated": the returned job handle is not exposed, so no edits
        are possible.
        """
        forced = CoAllocationRequest(
            [self._force_required(spec) for spec in request]
        )
        job: DurocJob = self._duroc.submit(forced)
        job._probe("duroc.atomic")
        result: DurocResult = yield from job.commit()
        return result

    def close(self) -> None:
        """Forget every request once the world has ended (see
        :meth:`Duroc.close`)."""
        self._duroc.close()

    @staticmethod
    def _force_required(spec: SubjobSpec) -> SubjobSpec:
        if spec.start_type is SubjobType.REQUIRED:
            return spec
        return replace(spec, start_type=SubjobType.REQUIRED)
