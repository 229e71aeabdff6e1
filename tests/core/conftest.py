"""Shared fixtures for co-allocation tests."""

import pytest

from repro.core import CoAllocationRequest, SubjobSpec, SubjobType
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder


@pytest.fixture
def grid():
    """Three 64-node fork-mode sites and a client workstation."""
    return (
        GridBuilder(seed=1)
        .add_machine("RM1", nodes=64)
        .add_machine("RM2", nodes=64)
        .add_machine("RM3", nodes=64)
        .build()
    )


def spec(contact, count=4, start_type=SubjobType.REQUIRED, **kwargs):
    kwargs.setdefault("executable", DEFAULT_EXECUTABLE)
    return SubjobSpec(contact=contact, count=count, start_type=start_type, **kwargs)


def request_for(grid, counts=(1, 4, 4), start_types=None):
    """A request with one subjob per site."""
    contacts = grid.contacts()
    start_types = start_types or [SubjobType.REQUIRED] * len(counts)
    return CoAllocationRequest(
        [
            spec(contacts[i % len(contacts)], count=counts[i],
                 start_type=start_types[i])
            for i in range(len(counts))
        ]
    )


def first(matches):
    """Drop rule: lose the first message ``matches`` accepts, and no other
    (``rule.lost`` holds it once it is gone)."""
    lost = []

    def rule(message):
        if lost or not matches(message):
            return False
        lost.append(message)
        return True

    rule.lost = lost
    return rule
