"""Unit tests for RSL subjob attribute validation."""

import pytest

from repro.errors import RSLValidationError
from repro.rsl import (
    parse,
    spec_attributes,
    validate_subjob_spec,
)


class TestValidation:
    def test_valid_spec_passes(self):
        spec = parse(
            "&(resourceManagerContact=RM1)(count=4)(executable=w)"
            "(subjobStartType=interactive)"
        )
        validate_subjob_spec(spec)

    def test_missing_required_attribute(self):
        spec = parse("&(count=4)(executable=w)")
        with pytest.raises(RSLValidationError, match="resourceManagerContact"):
            validate_subjob_spec(spec)

    def test_non_conjunction_rejected(self):
        with pytest.raises(RSLValidationError, match="conjunction"):
            validate_subjob_spec(parse("count=4"))

    @pytest.mark.parametrize("count", ["0", "-3", "1.5", "four"])
    def test_bad_count_rejected(self, count):
        spec = parse(
            f"&(resourceManagerContact=RM1)(count={count})(executable=w)"
        )
        with pytest.raises(RSLValidationError, match="count"):
            validate_subjob_spec(spec)

    def test_bad_start_type_rejected(self):
        spec = parse(
            "&(resourceManagerContact=RM1)(count=4)(executable=w)"
            "(subjobStartType=maybe)"
        )
        with pytest.raises(RSLValidationError, match="subjobStartType"):
            validate_subjob_spec(spec)

    def test_bad_timeout_rejected(self):
        spec = parse(
            "&(resourceManagerContact=RM1)(count=4)(executable=w)"
            "(subjobTimeout=-5)"
        )
        with pytest.raises(RSLValidationError, match="subjobTimeout"):
            validate_subjob_spec(spec)

    @pytest.mark.parametrize("fragment", [
        "(subjobTimeout=nan)", "(maxTime=nan)", "(maxTime=-5)", "(maxTime=0)",
        "(minMemory=nan)", "(minMemory=-64)", "(minMemory=0)",
    ])
    def test_nan_or_non_positive_number_rejected(self, fragment):
        spec = parse("&(resourceManagerContact=RM1)(count=4)(executable=w)" + fragment)
        with pytest.raises(RSLValidationError, match=fragment[1:].split("=")[0]):
            validate_subjob_spec(spec)

    def test_strict_rejects_unknown(self):
        spec = parse(
            "&(resourceManagerContact=RM1)(count=4)(executable=w)(wibble=1)"
        )
        validate_subjob_spec(spec)  # lenient by default
        with pytest.raises(RSLValidationError, match="wibble"):
            validate_subjob_spec(spec, strict=True)

    def test_spec_attributes_flattening(self):
        spec = parse(
            "&(resourceManagerContact=RM1)(count=4)(executable=w)(arguments=a b)"
        )
        attrs = spec_attributes(spec)
        assert attrs["resourceManagerContact"] == "RM1"
        assert attrs["count"] == 4
        assert attrs["arguments"] == ["a", "b"]

    def test_case_insensitive_canonicalization(self):
        spec = parse("&(RESOURCEMANAGERCONTACT=RM1)(count=4)(executable=w)")
        attrs = spec_attributes(spec)
        assert attrs["resourceManagerContact"] == "RM1"
        validate_subjob_spec(spec)
