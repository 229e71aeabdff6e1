"""Unit tests for the value-frozen (``__slots__``) :class:`Endpoint` and its intern table.

"Slotted" in the file name is ``__slots__``, not the delivery mode
deleted in PR 13; the name is kept so the test ids stay stable.
"""

import copy
import pickle

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


class TestEndpointText:
    def test_text_is_formatted_once(self):
        endpoint = Endpoint("host9", "svc")
        assert str(endpoint) == "host9:svc" == f"{endpoint}"
        assert str(endpoint) is str(endpoint)
        with pytest.raises(AttributeError):
            endpoint._text = "other:svc"

    def test_kept_text_leaves_value_semantics_alone(self):
        texted, fresh = Endpoint("host9", "svc"), Endpoint("host9", "svc")
        str(texted)
        assert texted == fresh and not texted != fresh
        assert hash(texted) == hash(fresh) == hash(("host9", "svc"))
        assert pickle.dumps(texted) == pickle.dumps(fresh)
        for clone in (pickle.loads(pickle.dumps(texted)), copy.copy(texted)):
            assert clone == texted and hash(clone) == hash(texted)
            assert str(clone) == "host9:svc"
        lower, higher = Endpoint("host8", "svc"), Endpoint("host9", "svd")
        assert lower < texted < higher and lower <= texted <= fresh
        assert higher > texted > lower and fresh >= texted >= lower
        assert sorted([higher, texted, lower]) == [lower, fresh, higher]
