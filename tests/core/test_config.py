"""Unit + property tests for the §3.3 configuration mechanisms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DurocConfig
from repro.errors import ConfigurationError
from repro.net import Endpoint


def make_config(sizes=(2, 3), my_subjob=1, my_rank=0):
    addresses = {
        (sj, rank): Endpoint(f"m{sj}", f"p{rank}")
        for sj, size in enumerate(sizes)
        for rank in range(size)
    }
    return DurocConfig(
        sizes=tuple(sizes),
        my_subjob=my_subjob,
        my_rank=my_rank,
        addresses=addresses,
    )


class TestMechanisms:
    """The four basic operations the paper's §3.3 enumerates."""

    def test_number_of_subjobs(self):
        assert make_config().n_subjobs == 2

    def test_size_of_specific_subjob(self):
        config = make_config()
        assert config.subjob_size(0) == 2
        assert config.subjob_size(1) == 3
        with pytest.raises(ConfigurationError):
            config.subjob_size(2)

    def test_intra_subjob_communication(self):
        config = make_config(my_subjob=1, my_rank=2)
        peers = config.intra_subjob_peers()
        assert len(peers) == 3
        assert all(ep.host == "m1" for ep in peers)

    def test_inter_subjob_communication(self):
        config = make_config(my_subjob=1)
        leads = config.inter_subjob_leads()
        assert leads == [Endpoint("m0", "p0")]


class TestNaming:
    def test_global_rank_subjob_major(self):
        config = make_config(my_subjob=1, my_rank=1)
        assert config.global_rank() == 3  # sizes (2,3): 2 + 1

    def test_global_rank_explicit(self):
        config = make_config()
        assert config.global_rank(0, 0) == 0
        assert config.global_rank(1, 2) == 4

    def test_global_rank_bounds(self):
        config = make_config()
        with pytest.raises(ConfigurationError):
            config.global_rank(0, 5)
        with pytest.raises(ConfigurationError):
            config.global_rank(7, 0)

    def test_locate_bounds(self):
        config = make_config()
        with pytest.raises(ConfigurationError):
            config.locate(5)
        with pytest.raises(ConfigurationError):
            config.locate(-1)

    def test_address_lookup(self):
        config = make_config()
        assert config.address(1, 2) == Endpoint("m1", "p2")
        assert config.address_of_global(4) == Endpoint("m1", "p2")
        with pytest.raises(ConfigurationError):
            config.address(5, 0)


@given(
    sizes=st.lists(st.integers(1, 8), min_size=1, max_size=6).map(tuple),
)
@settings(max_examples=200)
def test_global_rank_locate_roundtrip(sizes):
    """locate(global_rank(s, r)) == (s, r) for every process."""
    config = make_config(sizes=sizes, my_subjob=0, my_rank=0)
    seen = set()
    for sj, size in enumerate(sizes):
        for rank in range(size):
            g = config.global_rank(sj, rank)
            assert config.locate(g) == (sj, rank)
            seen.add(g)
    # Global ranks are a bijection onto 0..N-1.
    assert seen == set(range(config.total_processes))
