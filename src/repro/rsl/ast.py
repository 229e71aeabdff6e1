"""Abstract syntax for the Resource Specification Language (RSL).

The grammar follows Globus RSL as used in the paper (Fig. 1):

* a *relation* — ``(attribute = value ...)`` binds an attribute to one
  or more values;
* a *conjunction* — ``&`` prefix: all sub-specifications apply to one
  request (one subjob);
* a *disjunction* — ``|`` prefix: alternatives (used by brokers);
* a *multi-request* — ``+`` prefix: the co-allocation operator — each
  branch is an independent subjob handled by a (possibly different)
  resource manager.

Values are strings, integers, floats, or nested specifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence, Union

from repro.errors import RSLValidationError

#: A scalar RSL value.
Scalar = Union[str, int, float]
Value = Union[Scalar, "Specification"]


class Specification:
    """Base class for RSL specification nodes."""

    def walk(self) -> Iterator["Specification"]:
        """Yield this node and all descendants, preorder."""
        yield self

    def unparse(self) -> str:
        from repro.rsl.printer import unparse

        return unparse(self)

    def __str__(self) -> str:
        return self.unparse()


@dataclass(frozen=True)
class Variable(Specification):
    """``$(NAME)``: a reference resolved against ``rslSubstitution``
    bindings (or bindings the submitting agent supplies)."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")


@dataclass(frozen=True)
class ValueSequence(Specification):
    """``(v1 v2 ...)`` appearing as a relation value.

    Globus RSL uses these for structured attribute values, e.g.
    ``(environment=(HOME /home/u)(PATH /bin))``.
    """

    values: tuple[Value, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))

    def walk(self) -> Iterator[Specification]:
        yield self
        for v in self.values:
            if isinstance(v, Specification):
                yield from v.walk()

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Value]:
        return iter(self.values)


@dataclass(frozen=True)
class Relation(Specification):
    """``(attribute = v1 v2 ...)``: attribute bound to value list."""

    attribute: str
    values: tuple[Value, ...]

    def __post_init__(self) -> None:
        if not self.attribute:
            raise ValueError("relation attribute must be non-empty")
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))

    @property
    def value(self) -> Value:
        """The single value (:class:`RSLValidationError` if the relation
        is multi-valued)."""
        if len(self.values) != 1:
            raise RSLValidationError(
                f"relation {self.attribute!r} has {len(self.values)} values"
            )
        return self.values[0]

    def walk(self) -> Iterator[Specification]:
        yield self
        for v in self.values:
            if isinstance(v, Specification):
                yield from v.walk()


@dataclass(frozen=True)
class _Composite(Specification):
    children: tuple[Specification, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.children, tuple):
            object.__setattr__(self, "children", tuple(self.children))
        for child in self.children:
            if not isinstance(child, Specification):
                raise TypeError(f"child {child!r} is not a Specification")

    def walk(self) -> Iterator[Specification]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __len__(self) -> int:
        return len(self.children)

    def __iter__(self) -> Iterator[Specification]:
        return iter(self.children)


@dataclass(frozen=True)
class Conjunction(_Composite):
    """``&(...)(...)``: all constraints apply to a single request."""

    # -- attribute helpers used throughout the stack -----------------------

    @cached_property
    def _relations(self) -> Mapping[str, Relation]:
        # Computed once per node: the node is frozen, and one parsed
        # spec serves every job submitted with the same text.
        out: dict[str, Relation] = {}
        for child in self.children:
            if isinstance(child, Relation):
                out[child.attribute.lower()] = child
        return MappingProxyType(out)

    def relations(self) -> Mapping[str, Relation]:
        """Read-only mapping of attribute name → relation (last wins)."""
        return self._relations

    def get(self, attribute: str, default: Value | None = None) -> Value | None:
        """The single value of ``attribute`` (case-insensitive)."""
        rel = self.relations().get(attribute.lower())
        return default if rel is None else rel.value


@dataclass(frozen=True)
class Disjunction(_Composite):
    """``|(...)(...)``: alternative specifications."""


@dataclass(frozen=True)
class MultiRequest(_Composite):
    """``+(...)(...)``: the co-allocation operator — one branch per subjob."""


def conj(**attrs: Value | Sequence[Scalar]) -> Conjunction:
    """Convenience constructor: ``conj(count=4, executable="worker")``.

    Sequence values become multi-valued relations.
    """
    children: list[Specification] = []
    for name, value in attrs.items():
        if isinstance(value, (list, tuple)):
            children.append(Relation(name, tuple(value)))
        else:
            children.append(Relation(name, (value,)))
    return Conjunction(tuple(children))
