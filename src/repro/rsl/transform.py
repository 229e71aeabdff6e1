"""Variable substitution in RSL specifications.

The §3.2 edits (add, delete, substitute until commit) are applied to
the co-allocator's live subjob table
(:meth:`repro.core.coallocator.DurocJob.add` and its siblings), not to
RSL trees.
"""

from __future__ import annotations

from repro.errors import RSLValidationError
from repro.rsl.ast import (
    Conjunction,
    Disjunction,
    MultiRequest,
    Relation,
    Specification,
    ValueSequence,
    Variable,
)


#: The binding attribute, as in Globus RSL.
RSL_SUBSTITUTION = "rslSubstitution"


def substitute_variables(spec: Specification, bindings: dict) -> Specification:
    """Resolve every ``$(NAME)`` in ``spec`` against ``bindings``.

    Raises :class:`RSLValidationError` on unbound references.
    """
    if isinstance(spec, Relation):
        return Relation(
            spec.attribute, tuple(_resolve_value(v, bindings) for v in spec.values)
        )
    if isinstance(spec, Conjunction):
        return Conjunction(
            tuple(substitute_variables(c, bindings) for c in spec.children)
        )
    if isinstance(spec, Disjunction):
        return Disjunction(
            tuple(substitute_variables(c, bindings) for c in spec.children)
        )
    if isinstance(spec, MultiRequest):
        return MultiRequest(
            tuple(substitute_variables(c, bindings) for c in spec.children)
        )
    return spec


def _resolve_value(value, bindings: dict):
    if isinstance(value, Variable):
        if value.name not in bindings:
            raise RSLValidationError(f"unbound RSL variable $({value.name})")
        return bindings[value.name]
    if isinstance(value, ValueSequence):
        return ValueSequence(tuple(_resolve_value(v, bindings) for v in value.values))
    return value


def resolve_substitutions(spec: Conjunction, extra: dict | None = None) -> Conjunction:
    """Apply a conjunction's own ``rslSubstitution`` bindings.

    ``(rslSubstitution=(NAME value)...)`` relations are read (augmented
    by ``extra`` bindings, which take precedence), every ``$(NAME)`` in
    the remaining relations is resolved, and the binding relation itself
    is removed from the result.
    """
    bindings: dict = {}
    rest: list[Specification] = []
    for child in spec.children:
        if (
            isinstance(child, Relation)
            and child.attribute.lower() == RSL_SUBSTITUTION.lower()
        ):
            for item in child.values:
                if not (isinstance(item, ValueSequence) and len(item) == 2):
                    raise RSLValidationError(
                        "rslSubstitution entries must be (NAME value) pairs"
                    )
                name, value = item.values
                bindings[str(name)] = value
        else:
            rest.append(child)
    if extra:
        bindings.update(extra)
    resolved = substitute_variables(Conjunction(tuple(rest)), bindings)
    assert isinstance(resolved, Conjunction)
    return resolved
