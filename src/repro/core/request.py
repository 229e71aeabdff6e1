"""Co-allocation requests: subjob specifications and the editable set.

§3.2 of the paper classifies every element of the resource set as
``required``, ``interactive``, or ``optional``, and allows the request
to be "constructed incrementally" and — in the interactive strategy —
"modified via editing operations add, delete, and substitute until the
commit operation".  :class:`CoAllocationRequest` is the pre-submission
representation; the live, editable subjob table belongs to the
co-allocator (:mod:`repro.core.coallocator`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Any, Iterator, Optional

from repro.errors import RSLValidationError
from repro.rsl.ast import Conjunction, MultiRequest, Relation, Specification, ValueSequence
from repro.rsl.attributes import (
    ARGUMENTS,
    COUNT,
    ENVIRONMENT,
    EXECUTABLE,
    MAX_TIME,
    MIN_MEMORY,
    RESERVATION_ID,
    RESOURCE_MANAGER_CONTACT,
    SUBJOB_LABEL,
    SUBJOB_START_TYPE,
    SUBJOB_TIMEOUT,
    validate_subjob_spec,
)
from repro.rsl.parser import parse_multirequest
from repro.rsl.printer import unparse


class SubjobType(str, Enum):
    """Failure semantics of one subjob (paper §3.2).

    * ``REQUIRED`` — failure/timeout aborts the whole computation,
      before or after commit.
    * ``INTERACTIVE`` — failure/timeout triggers an application
      callback, which may delete or substitute the subjob.
    * ``OPTIONAL`` — does not participate in commitment; failures are
      ignored and late processes join as they become active.
    """

    REQUIRED = "required"
    INTERACTIVE = "interactive"
    OPTIONAL = "optional"


@dataclass(frozen=True)
class SubjobSpec:
    """One subjob: where, how many, what to run, and how failure is felt."""

    contact: str
    count: int
    executable: str
    start_type: SubjobType = SubjobType.REQUIRED
    arguments: tuple[Any, ...] = ()
    environment: dict[str, Any] = field(default_factory=dict)
    #: Seconds after submission before a missing check-in counts as
    #: failure (None = the co-allocator's default).
    timeout: Optional[float] = None
    label: Optional[str] = None
    max_time: Optional[float] = None
    #: MB of memory per process (§2.1 processors+memory co-allocation).
    min_memory: Optional[float] = None
    #: Extension (§5): advance reservation to bind the subjob to.
    reservation_id: Optional[str] = None

    def __post_init__(self) -> None:
        # What gram.client.contact_endpoint resolves: ``host`` (the
        # conventional gatekeeper port) or ``host:port``.  Refused here,
        # a malformed contact cannot surface mid-run as a bare error.
        host, sep, port = self.contact.partition(":")
        if not host or (sep and not port):
            raise RSLValidationError(
                f"resourceManagerContact must be 'host' or 'host:port', "
                f"got {self.contact!r}"
            )
        if self.count <= 0:
            raise RSLValidationError(f"count must be positive, got {self.count!r}")
        for name in ("timeout", "max_time", "min_memory"):
            value = getattr(self, name)
            # ``not value > 0`` also refuses NaN, as RSL validation does.
            if value is not None and not value > 0:
                raise RSLValidationError(f"{name} must be positive, got {value!r}")
        if not isinstance(self.start_type, SubjobType):
            object.__setattr__(self, "start_type", SubjobType(self.start_type))

    # -- RSL interop --------------------------------------------------------

    def to_rsl(self) -> Conjunction:
        """Render as the conjunction DUROC would send to GRAM."""
        children: list[Specification] = [
            Relation(RESOURCE_MANAGER_CONTACT, (self.contact,)),
            Relation(COUNT, (self.count,)),
            Relation(EXECUTABLE, (self.executable,)),
            Relation(SUBJOB_START_TYPE, (self.start_type.value,)),
        ]
        if self.arguments:
            children.append(Relation(ARGUMENTS, tuple(self.arguments)))
        if self.environment:
            children.append(
                Relation(
                    ENVIRONMENT,
                    tuple(
                        ValueSequence((key, value))
                        for key, value in sorted(self.environment.items())
                    ),
                )
            )
        if self.timeout is not None:
            children.append(Relation(SUBJOB_TIMEOUT, (self.timeout,)))
        if self.label is not None:
            children.append(Relation(SUBJOB_LABEL, (self.label,)))
        if self.max_time is not None:
            children.append(Relation(MAX_TIME, (self.max_time,)))
        if self.min_memory is not None:
            children.append(Relation(MIN_MEMORY, (self.min_memory,)))
        if self.reservation_id is not None:
            children.append(Relation(RESERVATION_ID, (self.reservation_id,)))
        return Conjunction(tuple(children))

    @cached_property
    def rsl_text(self) -> str:
        """:meth:`to_rsl` as the text that goes on the wire, rendered
        once: a retry or a resubmission sends the identical string."""
        return unparse(self.to_rsl())

    @classmethod
    def from_rsl(cls, spec: Specification) -> "SubjobSpec":
        """Build from a validated RSL conjunction."""
        conj = validate_subjob_spec(spec)
        relations = conj.relations()
        arguments: tuple[Any, ...] = ()
        if ARGUMENTS.lower() in relations:
            arguments = relations[ARGUMENTS.lower()].values
        environment: dict[str, Any] = {}
        if ENVIRONMENT.lower() in relations:
            for item in relations[ENVIRONMENT.lower()].values:
                if isinstance(item, ValueSequence) and len(item) == 2:
                    key, value = item.values
                    environment[str(key)] = value
        start = conj.get(SUBJOB_START_TYPE, SubjobType.REQUIRED.value)
        timeout = conj.get(SUBJOB_TIMEOUT)
        label = conj.get(SUBJOB_LABEL)
        max_time = conj.get(MAX_TIME)
        min_memory = conj.get(MIN_MEMORY)
        reservation_id = conj.get(RESERVATION_ID)
        return cls(
            contact=str(conj.get(RESOURCE_MANAGER_CONTACT)),
            count=int(conj.get(COUNT)),
            executable=str(conj.get(EXECUTABLE)),
            start_type=SubjobType(str(start)),
            arguments=tuple(arguments),
            environment=environment,
            timeout=float(timeout) if timeout is not None else None,
            label=str(label) if label is not None else None,
            max_time=float(max_time) if max_time is not None else None,
            min_memory=float(min_memory) if min_memory is not None else None,
            reservation_id=(
                str(reservation_id) if reservation_id is not None else None
            ),
        )

    def retarget(self, contact: str) -> "SubjobSpec":
        """The same subjob aimed at a different resource manager."""
        return replace(self, contact=contact)


class CoAllocationRequest:
    """An ordered set of subjob specs."""

    def __init__(self, subjobs: Optional[list[SubjobSpec]] = None) -> None:
        self.subjobs: list[SubjobSpec] = list(subjobs or [])

    # -- edits before submission ----------------------------------------------

    def substitute(self, index: int, spec: SubjobSpec) -> SubjobSpec:
        """Replace the subjob at ``index``; returns the old spec."""
        self._check(index)
        old, self.subjobs[index] = self.subjobs[index], spec
        return old

    def _check(self, index: int) -> None:
        if not 0 <= index < len(self.subjobs):
            raise RSLValidationError(
                f"subjob index {index} out of range 0..{len(self.subjobs) - 1}"
            )

    # -- views ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.subjobs)

    def __iter__(self) -> Iterator[SubjobSpec]:
        return iter(self.subjobs)

    def __getitem__(self, index: int) -> SubjobSpec:
        return self.subjobs[index]

    def total_processes(self) -> int:
        return sum(spec.count for spec in self.subjobs)

    def by_type(self, start_type: SubjobType) -> list[int]:
        return [
            idx
            for idx, spec in enumerate(self.subjobs)
            if spec.start_type is start_type
        ]

    # -- RSL interop ------------------------------------------------------------

    def to_rsl(self) -> MultiRequest:
        return MultiRequest(tuple(spec.to_rsl() for spec in self.subjobs))

    @classmethod
    def from_rsl(cls, rsl: "str | MultiRequest") -> "CoAllocationRequest":
        multi = parse_multirequest(rsl) if isinstance(rsl, str) else rsl
        return cls([SubjobSpec.from_rsl(branch) for branch in multi.children])

    def __repr__(self) -> str:
        kinds = ",".join(s.start_type.value[0] for s in self.subjobs)
        return (
            f"<CoAllocationRequest {len(self.subjobs)} subjobs "
            f"[{kinds}] {self.total_processes()} procs>"
        )
