"""Malformed RSL fails loudly and typed.

A seeded mutation fuzz over well-formed co-allocation requests: every
mutant either parses into a request or raises a
:class:`repro.errors.ReproError` subclass — never a bare ``ValueError``
or ``TypeError`` — through both entry points that read RSL text:
``CoAllocationRequest.from_rsl`` and the gatekeeper's parse/validate
path (``Gatekeeper._parse_request``, which caches only texts that
validate).  A bare exception there would kill the gatekeeper's
submission session instead of refusing the request.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CoAllocationRequest
from repro.errors import GramError, ReproError, RSLValidationError
from repro.gram import GramClient, Site
from repro.gsi import CertificateAuthority
from repro.net import Network
from repro.simcore import Environment

SEEDS = (
    "+(&(resourceManagerContact=RM1:gatekeeper)(count=1)(executable=duroc_app)"
    "(subjobStartType=required))"
    "(&(resourceManagerContact=RM2:gatekeeper)(count=4)(executable=duroc_app)"
    "(subjobStartType=interactive)(subjobTimeout=30)(label=x)(maxTime=10)"
    "(minMemory=64)(reservationId=r1))",
    "+(&(resourceManagerContact=RM1:gatekeeper)(count=2)(executable=duroc_app)"
    "(arguments=a b c)(environment=(HOME /h)(PATH /bin))"
    "(rslSubstitution=(N 3))(directory=$(N)))",
)

#: Fragments a mutation splices in: RSL punctuation, multi-valued and
#: ill-typed values, and the attribute names the stack reads.
FRAGMENTS = (
    "(", ")", "=", "&", "+", "|", "$(", "$(X)", " ", '"', "2 3",
    "required optional", "abc", "-1", "0", "1.5", "count", "maxTime",
    "minMemory", "label", "subjobStartType", "subjobTimeout",
    "reservationId", "rslSubstitution=(X 1)", "(X (a b))",
)

#: Single characters a substitution writes.
PUNCTUATION = '()=&+|$ "ab0123.-'

MUTANTS_PER_SEED = 1500


def mutate(rng: np.random.Generator, text: str) -> str:
    """One to four deletions, splices, substitutions or duplications."""
    chars = list(text)
    for _ in range(rng.integers(1, 5)):
        op = rng.integers(4)
        at = rng.integers(len(chars) + 1)
        if op == 0 and chars:
            del chars[min(at, len(chars) - 1)]
        elif op == 1:
            chars[at:at] = FRAGMENTS[rng.integers(len(FRAGMENTS))]
        elif op == 2 and chars:
            chars[rng.integers(len(chars))] = PUNCTUATION[rng.integers(len(PUNCTUATION))]
        else:
            lo, hi = sorted(rng.integers(len(chars) + 1, size=2))
            chars[at:at] = chars[lo:hi][:20]
    return "".join(chars)


def mutants(seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(MUTANTS_PER_SEED * len(SEEDS)):
        yield mutate(rng, SEEDS[rng.integers(len(SEEDS))])


def quick(ctx):
    yield ctx.env.timeout(0.0)


@pytest.fixture
def ca():
    return CertificateAuthority()


@pytest.fixture
def network():
    network = Network(Environment())
    network.add_host("workstation")
    return network


@pytest.fixture
def site(network, ca):
    site = Site(network.env, network, "RM1", nodes=8, ca=ca, programs={"quick": quick})
    site.authorize("alice")
    return site


@pytest.fixture
def gatekeeper(site):
    return site.gatekeeper


def _typed_or_none(call, text: str):
    """The ReproError ``call(text)`` raised, or None; anything else escapes."""
    try:
        call(text)
    except ReproError as exc:
        return exc
    return None


@pytest.mark.parametrize("seed", [1, 2])
def test_only_typed_errors_escape(gatekeeper, seed):
    refused = 0
    for text in mutants(seed):
        refused += _typed_or_none(CoAllocationRequest.from_rsl, text) is not None
        # The gatekeeper sees one subjob's text: drop the '+'.
        _typed_or_none(gatekeeper._parse_request, text.removeprefix("+"))
    # The fuzz reaches past the parser: most mutants are refused, not all.
    assert 0 < refused < MUTANTS_PER_SEED * len(SEEDS)


@pytest.mark.parametrize("fragment", [
    "(count=2 3)", "(subjobStartType=required optional)",
    "(maxTime=abc)", "(minMemory=$(X))",
])
def test_ill_valued_attribute_is_a_validation_error(gatekeeper, fragment):
    text = "&(resourceManagerContact=RM1:gatekeeper)(count=1)(executable=app)" + fragment
    with pytest.raises(RSLValidationError):
        CoAllocationRequest.from_rsl("+(" + text + ")")
    with pytest.raises(RSLValidationError):
        gatekeeper._parse_request(text)
    assert gatekeeper._specs.cache_info().currsize == 0


def test_gatekeeper_refuses_a_multi_valued_count_and_keeps_serving(network, ca, site):
    env, contact = site.env, site.contact
    client = GramClient(network, "workstation", ca.issue("alice"))

    def scenario(env):
        with pytest.raises(GramError, match="has 2 values"):
            yield from client.submit(
                contact, f"&(resourceManagerContact={contact})(count=2 3)(executable=quick)"
            )
        handle = yield from client.submit(
            contact, f"&(resourceManagerContact={contact})(count=1)(executable=quick)"
        )
        return handle

    assert env.run(env.process(scenario(env))) is not None
