"""Unit tests for the value-frozen (``__slots__``) :class:`Endpoint` and its intern table.

"Slotted" in the file name is ``__slots__``, not the delivery mode
deleted in PR 13; the name is kept so the test ids stay stable.
"""

import pytest

from repro.net import Endpoint


class TestEndpointInterning:
    def test_intern_returns_canonical_instance(self):
        a = Endpoint("host9", "svc").intern()
        b = Endpoint("host9", "svc").intern()
        assert a is b

    def test_parse_interns(self):
        a = Endpoint.parse("host9:svc")
        assert a is Endpoint("host9", "svc").intern()

    def test_plain_construction_does_not_intern(self):
        # Ephemeral ports are constructed per request; auto-interning
        # them would grow the cache without bound.
        a = Endpoint("host9", "transient")
        b = Endpoint("host9", "transient")
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)

    def test_endpoints_are_immutable(self):
        endpoint = Endpoint("host9", "svc")
        with pytest.raises(AttributeError):
            endpoint.host = "other"
        with pytest.raises(AttributeError):
            del endpoint.port
