"""Unit tests for RSL edit operations and attribute validation."""

import pytest

from repro.errors import RSLValidationError
from repro.rsl import (
    add_subjob,
    conj,
    delete_subjob,
    parse,
    parse_multirequest,
    retarget_subjob,
    spec_attributes,
    substitute_subjob,
    validate_subjob_spec,
)
from repro.rsl.ast import MultiRequest


@pytest.fixture
def request_3():
    return parse_multirequest(
        "+(&(resourceManagerContact=RM1)(count=1)(executable=master))"
        "(&(resourceManagerContact=RM2)(count=4)(executable=worker))"
        "(&(resourceManagerContact=RM3)(count=4)(executable=worker))"
    )


class TestEdits:
    def test_add(self, request_3):
        extra = conj(resourceManagerContact="RM4", count=4, executable="worker")
        new = add_subjob(request_3, extra)
        assert len(new) == 4
        assert new.children[3].get("resourceManagerContact") == "RM4"
        assert len(request_3) == 3  # original untouched

    def test_delete(self, request_3):
        new = delete_subjob(request_3, 1)
        assert len(new) == 2
        contacts = [c.get("resourceManagerContact") for c in new]
        assert contacts == ["RM1", "RM3"]

    def test_substitute(self, request_3):
        replacement = conj(resourceManagerContact="RM9", count=8, executable="worker")
        new = substitute_subjob(request_3, 2, replacement)
        assert new.children[2].get("resourceManagerContact") == "RM9"
        assert new.children[2].get("count") == 8

    def test_retarget_preserves_other_attributes(self, request_3):
        new = retarget_subjob(request_3, 1, "RM7")
        sj = new.children[1]
        assert sj.get("resourceManagerContact") == "RM7"
        assert sj.get("count") == 4
        assert sj.get("executable") == "worker"

    @pytest.mark.parametrize("index", [-1, 3, 100])
    def test_bad_index_rejected(self, request_3, index):
        with pytest.raises(RSLValidationError):
            delete_subjob(request_3, index)
        with pytest.raises(RSLValidationError):
            substitute_subjob(request_3, index, conj(count=1))

    def test_delete_all_leaves_empty_request(self, request_3):
        new = request_3
        for _ in range(3):
            new = delete_subjob(new, 0)
        assert isinstance(new, MultiRequest)
        assert len(new) == 0


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
