"""Standard RSL attributes and request validation.

The attributes follow GRAM/DUROC usage in the paper: every subjob names
its target resource manager (``resourceManagerContact``), a process
``count``, an ``executable``, and — for DUROC — a ``subjobStartType`` of
``required`` / ``interactive`` / ``optional`` (paper §3.2).
"""

from __future__ import annotations

from typing import Any

from repro.errors import RSLValidationError
from repro.rsl.ast import Conjunction, Specification

#: Canonical attribute names (RSL attribute matching is case-insensitive).
RESOURCE_MANAGER_CONTACT = "resourceManagerContact"
COUNT = "count"
EXECUTABLE = "executable"
ARGUMENTS = "arguments"
DIRECTORY = "directory"
ENVIRONMENT = "environment"
MAX_TIME = "maxTime"
JOB_TYPE = "jobType"
SUBJOB_START_TYPE = "subjobStartType"
SUBJOB_LABEL = "label"
SUBJOB_TIMEOUT = "subjobTimeout"
MIN_MEMORY = "minMemory"
QUEUE = "queue"
PROJECT = "project"
#: Extension (paper §5 future work): bind the request to an advance
#: reservation previously granted by the local scheduler.
RESERVATION_ID = "reservationId"

#: Start-type values defined by the paper.
START_TYPES = ("required", "interactive", "optional")

#: Attributes a GRAM subjob must carry.
REQUIRED_ATTRIBUTES = (RESOURCE_MANAGER_CONTACT, COUNT, EXECUTABLE)

#: All attributes this implementation understands (lowercased keys).
KNOWN_ATTRIBUTES = {
    name.lower(): name
    for name in (
        RESOURCE_MANAGER_CONTACT,
        COUNT,
        EXECUTABLE,
        ARGUMENTS,
        DIRECTORY,
        ENVIRONMENT,
        MAX_TIME,
        JOB_TYPE,
        SUBJOB_START_TYPE,
        SUBJOB_LABEL,
        SUBJOB_TIMEOUT,
        MIN_MEMORY,
        QUEUE,
        PROJECT,
        RESERVATION_ID,
    )
}


def canonical_name(attribute: str) -> str:
    """Map an attribute to its canonical spelling (unknown pass through)."""
    return KNOWN_ATTRIBUTES.get(attribute.lower(), attribute)


def validate_subjob_spec(spec: Specification, strict: bool = False) -> Conjunction:
    """Validate one subjob specification (a branch of a multi-request).

    Checks structure (must be a conjunction of relations), required
    attributes, and value sanity.  With ``strict``, unknown attributes
    are rejected rather than passed through.  Returns the conjunction.
    """
    if not isinstance(spec, Conjunction):
        raise RSLValidationError(
            f"subjob spec must be a conjunction, got {type(spec).__name__}"
        )
    relations = spec.relations()

    for name in REQUIRED_ATTRIBUTES:
        if name.lower() not in relations:
            raise RSLValidationError(f"subjob spec missing attribute {name!r}")

    count = relations[COUNT.lower()].value
    if not isinstance(count, int) or count <= 0:
        raise RSLValidationError(f"count must be a positive integer, got {count!r}")

    start = relations.get(SUBJOB_START_TYPE.lower())
    if start is not None and start.value not in START_TYPES:
        raise RSLValidationError(
            f"subjobStartType must be one of {START_TYPES}, got {start.value!r}"
        )

    timeout = relations.get(SUBJOB_TIMEOUT.lower())
    if timeout is not None:
        value = timeout.value
        # ``not value > 0`` also refuses NaN, which every comparison fails.
        if not isinstance(value, (int, float)) or not value > 0:
            raise RSLValidationError(
                f"subjobTimeout must be a positive number, got {value!r}"
            )

    # Consumers read these with float(); refuse here what it would, and
    # any value that is not a positive number.
    for name in (MAX_TIME, MIN_MEMORY):
        relation = relations.get(name.lower())
        if relation is None:
            continue
        try:
            positive = float(relation.value) > 0  # False for NaN too
        except (TypeError, ValueError):
            positive = False
        if not positive:
            raise RSLValidationError(
                f"{name} must be a positive number, got {relation.value!r}"
            )

    if strict:
        for key in relations:
            if key not in KNOWN_ATTRIBUTES:
                raise RSLValidationError(f"unknown attribute {key!r}")

    return spec


def spec_attributes(spec: Conjunction) -> dict[str, Any]:
    """Flatten a conjunction into a {canonical name: value(s)} dict."""
    out: dict[str, Any] = {}
    for key, rel in spec.relations().items():
        name = canonical_name(key)
        out[name] = rel.values[0] if len(rel.values) == 1 else list(rel.values)
    return out
