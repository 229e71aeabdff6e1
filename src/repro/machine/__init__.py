"""Compute resource model: machines, processes, fault injection."""

from repro.machine.faults import FailureModel
from repro.machine.host import Machine, ProcessContext, Program

__all__ = [
    "FailureModel",
    "Machine",
    "ProcessContext",
    "Program",
]
