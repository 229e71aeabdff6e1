"""Simulated grid credentials.

Models the pieces of the Grid Security Infrastructure the co-allocation
protocol touches: X.509-style *subjects* signed by a CA, and short-lived
*proxy* credentials delegated from a user credential — DUROC submits all
subjob requests under one user proxy, and each gatekeeper independently
verifies it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Credential:
    """A signed identity assertion.

    ``issuer`` is the CA (or, for proxies, the parent credential's
    subject); ``not_after`` is an absolute simulated-time expiry
    (``None`` = never expires).
    """

    subject: str
    issuer: str
    not_after: Optional[float] = None
    #: Numbered by the issuing :class:`CertificateAuthority`; a proxy
    #: carries the serial of the credential it was delegated from.
    serial: int = 0
    #: Chain depth: 0 = end-entity certificate, >0 = proxy levels.
    depth: int = 0

    def valid_at(self, now: float) -> bool:
        return self.not_after is None or now <= self.not_after

    def delegate(self, lifetime: Optional[float], now: float) -> "Credential":
        """Create a proxy credential signed by this one."""
        not_after = None if lifetime is None else now + lifetime
        if self.not_after is not None:
            not_after = (
                self.not_after if not_after is None else min(not_after, self.not_after)
            )
        return Credential(
            subject=f"{self.subject}/proxy",
            issuer=self.subject,
            not_after=not_after,
            serial=self.serial,
            depth=self.depth + 1,
        )

    @property
    def identity(self) -> str:
        """The end-entity identity a proxy chain bottoms out at."""
        return self.subject.split("/proxy")[0]


class CertificateAuthority:
    """Issues end-entity credentials for a trust domain."""

    def __init__(self, name: str = "SimCA") -> None:
        self.name = name
        self._issued: dict[str, Credential] = {}
        self._revoked: set[int] = set()
        self._serials = itertools.count(1)

    def issue(self, subject: str, lifetime: Optional[float] = None,
              now: float = 0.0) -> Credential:
        """Issue (or re-issue) a credential for ``subject``."""
        not_after = None if lifetime is None else now + lifetime
        cred = Credential(
            subject=subject, issuer=self.name, not_after=not_after,
            serial=next(self._serials),
        )
        self._issued[subject] = cred
        return cred

    def revoke(self, credential: Credential) -> None:
        self._revoked.add(credential.serial)

    def verify(self, credential: Credential, now: float) -> bool:
        """Verify a credential (or proxy chain root) against this CA."""
        if credential.serial in self._revoked:
            return False
        if not credential.valid_at(now):
            return False
        root_subject = credential.identity
        root = self._issued.get(root_subject)
        if root is None:
            return False
        if root.serial in self._revoked:
            return False
        return root.valid_at(now)
