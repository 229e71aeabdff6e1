"""Addressing for the simulated network.

A host is identified by a string name; services on a host listen on
named *ports*.  An :class:`Endpoint` is the (host, port) pair messages
are addressed to — the simulated analogue of a Globus contact string
like ``hostname:port``.

Endpoints sit on the kernel's hottest dictionary keys: every
``Network.send`` hashes the destination into the mailbox table.  The
class is therefore slotted and value-frozen with its hash computed once
at construction; :meth:`Endpoint.intern` keeps canonical instances for
long-lived, repeatedly parsed addresses (a service's well-known
contact), and :meth:`Endpoint.parse` returns them, so equal endpoints
are usually also identical.

Retention policy: the intern table holds *well-known
service addresses only* — :meth:`Endpoint.intern` rejects ephemeral
reply ports (``label.N`` names minted by
:func:`repro.net.transport.ephemeral_endpoint`) and hard-fails at
:data:`INTERN_MAX` rather than leak, because interned instances live
for the process lifetime.  :meth:`Endpoint.parse` keeps nothing: any
other text gets a fresh instance, so arbitrary request-supplied contact
strings can never pin memory.
"""

from __future__ import annotations

from typing import Any

#: Hard cap on interned (process-lifetime) endpoints.  Far above any
#: sane topology — one entry per *service*, not per request — so
#: hitting it means ephemeral addresses are being interned; fail loudly
#: instead of leaking quietly.
INTERN_MAX = 4096


def _is_ephemeral_port(port: str) -> bool:
    """True for ``label.N`` reply-port names (see ephemeral_endpoint)."""
    head, sep, tail = port.rpartition(".")
    return bool(sep) and tail.isdigit()


class Endpoint:
    """A (host, port) address on the simulated network.

    Immutable and totally ordered by ``(host, port)``, with the hash
    cached at construction and the ``host:port`` text on first
    :func:`str` — equality and ordering match the frozen dataclass this
    class replaced.
    """

    __slots__ = ("host", "port", "_hash", "_text")

    #: Canonical instances, keyed by ``(host, port)``.  Entries live
    #: for the process lifetime, so only well-known service addresses
    #: belong here: :meth:`intern` enforces that by rejecting ephemeral
    #: reply ports and capping the table at INTERN_MAX.
    _interned: dict[tuple[str, str], "Endpoint"] = {}

    def __init__(self, host: str, port: str) -> None:
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "port", port)
        object.__setattr__(self, "_hash", hash((host, port)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"Endpoint is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Endpoint is immutable; cannot delete {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, Endpoint):
            return NotImplemented
        return self.host == other.host and self.port == other.port

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __lt__(self, other: "Endpoint") -> bool:
        if not isinstance(other, Endpoint):
            return NotImplemented
        return (self.host, self.port) < (other.host, other.port)

    def __le__(self, other: "Endpoint") -> bool:
        if not isinstance(other, Endpoint):
            return NotImplemented
        return (self.host, self.port) <= (other.host, other.port)

    def __gt__(self, other: "Endpoint") -> bool:
        if not isinstance(other, Endpoint):
            return NotImplemented
        return (self.host, self.port) > (other.host, other.port)

    def __ge__(self, other: "Endpoint") -> bool:
        if not isinstance(other, Endpoint):
            return NotImplemented
        return (self.host, self.port) >= (other.host, other.port)

    def __repr__(self) -> str:
        return f"Endpoint(host={self.host!r}, port={self.port!r})"

    def __str__(self) -> str:
        # Formatted on the first call and kept: every later str() of
        # this endpoint returns the same string object, so the loci and
        # log entries that name it share one copy.
        try:
            return self._text
        except AttributeError:
            text = f"{self.host}:{self.port}"
            object.__setattr__(self, "_text", text)
            return text

    def __reduce__(self) -> tuple:
        return (Endpoint, (self.host, self.port))

    def intern(self) -> "Endpoint":
        """The canonical instance equal to this endpoint.

        Registers this instance if the address is new.  Interned
        endpoints make dict probes on the delivery path cheap (pointer
        equality short-circuits ``__eq__``), at the cost of living for
        the process lifetime.  Ownership policy: *well-known service
        addresses only*.  Interning an ephemeral reply port
        (``label.N``, minted per request by ``ephemeral_endpoint``)
        raises ValueError, and the table hard-fails with RuntimeError
        at INTERN_MAX rather than grow without bound.
        """
        key = (self.host, self.port)
        canonical = Endpoint._interned.get(key)
        if canonical is None:
            if _is_ephemeral_port(self.port):
                raise ValueError(
                    f"refusing to intern ephemeral reply port {self}: "
                    f"interned endpoints live for the process lifetime; "
                    f"per-request addresses must stay uninterned"
                )
            if len(Endpoint._interned) >= INTERN_MAX:
                raise RuntimeError(
                    f"endpoint intern table reached INTERN_MAX "
                    f"({INTERN_MAX}); interning is for well-known "
                    f"service addresses, not per-request state"
                )
            # Policy-bounded: ephemeral ports rejected above, hard cap
            # enforced; one entry per well-known service address.
            Endpoint._interned[key] = self
            canonical = self
        return canonical

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        """Parse ``"host:port"`` into an Endpoint.

        Contact strings are parsed over and over (every RSL request
        names its target).  The canonical interned instance is returned
        when one exists, else a new one: parse keeps nothing per text.
        Callers may rely only on *equality*, not identity.
        """
        host, sep, port = text.partition(":")
        if not sep or not host or not port:
            raise ValueError(f"invalid endpoint {text!r}; expected 'host:port'")
        canonical = cls._interned.get((host, port))
        if canonical is not None:
            return canonical
        return cls(host, port)
