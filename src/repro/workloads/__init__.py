"""Workload and scenario generation."""

from repro.workloads.background import BackgroundLoad, LoadSpec
from repro.workloads.scenarios import (
    SF_EXPRESS_COUNTS,
    SF_EXPRESS_SIZES,
    Scenario,
    microtomography,
    motivating_scenario,
    sf_express,
)
from repro.workloads.synthetic import split_processes

__all__ = [
    "BackgroundLoad",
    "LoadSpec",
    "SF_EXPRESS_COUNTS",
    "SF_EXPRESS_SIZES",
    "Scenario",
    "microtomography",
    "motivating_scenario",
    "sf_express",
    "split_processes",
]
