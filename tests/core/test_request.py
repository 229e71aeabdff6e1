"""Unit tests for CoAllocationRequest / SubjobSpec."""

import pytest

from repro.core import CoAllocationRequest, SubjobSpec, SubjobType
from repro.errors import RSLValidationError
from repro.rsl import parse_multirequest, unparse

FIGURE_1 = (
    "+(&(resourceManagerContact=RM1)(count=1)(executable=master)"
    "(subjobStartType=required))"
    "(&(resourceManagerContact=RM2)(count=4)(executable=worker)"
    "(subjobStartType=interactive))"
    "(&(resourceManagerContact=RM3)(count=4)(executable=worker)"
    "(subjobStartType=interactive))"
)


class TestSubjobSpec:
    def test_defaults(self):
        spec = SubjobSpec(contact="RM1", count=4, executable="w")
        assert spec.start_type is SubjobType.REQUIRED
        assert spec.timeout is None

    def test_validation(self):
        with pytest.raises(RSLValidationError):
            SubjobSpec(contact="RM1", count=0, executable="w")
        with pytest.raises(RSLValidationError):
            SubjobSpec(contact="RM1", count=1, executable="w", timeout=0)
        # Built in code, a spec refuses what RSL validation refuses: a
        # NaN or non-positive timeout, maxTime or minMemory.
        nan = float("nan")
        for field, value in [
            ("timeout", nan),
            ("min_memory", nan),
            ("max_time", nan),
            ("max_time", -5),
            ("max_time", 0),
        ]:
            with pytest.raises(RSLValidationError, match=field):
                SubjobSpec(contact="RM1", count=1, executable="w", **{field: value})

    @pytest.mark.parametrize("contact", ["RM1:", ":gk", ":", ""])
    def test_malformed_contact_refused_when_built(self, contact):
        # The co-allocator would otherwise meet it mid-run, resolving
        # the gatekeeper, and the error would end the simulation.
        with pytest.raises(RSLValidationError, match="resourceManagerContact"):
            CoAllocationRequest.from_rsl(
                f'+(&(resourceManagerContact="{contact}")(count=1)(executable=w))'
            )

    def test_start_type_coercion_from_string(self):
        spec = SubjobSpec(contact="RM1", count=1, executable="w",
                          start_type="interactive")
        assert spec.start_type is SubjobType.INTERACTIVE

    def test_rsl_roundtrip(self):
        spec = SubjobSpec(
            contact="RM2",
            count=4,
            executable="worker",
            start_type=SubjobType.INTERACTIVE,
            arguments=("--fast", 3),
            environment={"LEVEL": 2},
            timeout=120.0,
            label="workers-east",
            max_time=600.0,
        )
        again = SubjobSpec.from_rsl(spec.to_rsl())
        assert again == spec

    def test_from_rsl_paper_figure_1(self):
        request = CoAllocationRequest.from_rsl(FIGURE_1)
        assert len(request) == 3
        assert request[0].start_type is SubjobType.REQUIRED
        assert request[0].executable == "master"
        assert request[1].start_type is SubjobType.INTERACTIVE
        assert request.total_processes() == 9

    def test_retarget(self):
        spec = SubjobSpec(contact="RM1", count=4, executable="w")
        moved = spec.retarget("RM9")
        assert moved.contact == "RM9"
        assert moved.count == spec.count


class TestCoAllocationRequest:
    def test_substitute(self):
        request = CoAllocationRequest.from_rsl(FIGURE_1)
        old = request.substitute(1, SubjobSpec(contact="RM7", count=2, executable="w"))
        assert old.contact == "RM2"
        assert len(request) == 3
        assert request[1].contact == "RM7"

    def test_bad_index(self):
        request = CoAllocationRequest.from_rsl(FIGURE_1)
        for index in (-1, 3):
            with pytest.raises(RSLValidationError):
                request.substitute(index, request[0])

    def test_by_type(self):
        request = CoAllocationRequest.from_rsl(FIGURE_1)
        assert request.by_type(SubjobType.REQUIRED) == [0]
        assert request.by_type(SubjobType.INTERACTIVE) == [1, 2]

    def test_to_rsl_reparses(self):
        request = CoAllocationRequest.from_rsl(FIGURE_1)
        text = unparse(request.to_rsl())
        again = CoAllocationRequest.from_rsl(parse_multirequest(text))
        assert [s.contact for s in again] == ["RM1", "RM2", "RM3"]
