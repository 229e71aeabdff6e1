"""Edit operations on RSL multi-requests.

The interactive transaction strategy's defining feature (paper §3.2) is
that "the contents of a co-allocation request can be modified — via
editing operations add, delete, and substitute — until the commit
operation".  These functions implement those edits as pure
transformations on :class:`MultiRequest` trees; the DUROC co-allocator
applies the same operations to its live subjob table.
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


def add_subjob(request: MultiRequest, spec: Specification) -> MultiRequest:
    """Append a subjob specification to the multi-request."""
    return MultiRequest(request.children + (spec,))


def delete_subjob(request: MultiRequest, index: int) -> MultiRequest:
    """Remove the subjob at ``index``."""
    _check_index(request, index)
    children = request.children
    return MultiRequest(children[:index] + children[index + 1:])


def substitute_subjob(
    request: MultiRequest, index: int, spec: Specification
) -> MultiRequest:
    """Replace the subjob at ``index`` with ``spec``."""
    _check_index(request, index)
    children = list(request.children)
    children[index] = spec
    return MultiRequest(tuple(children))


def retarget_subjob(
    request: MultiRequest, index: int, new_contact: str
) -> MultiRequest:
    """Substitute only the resource manager contact of subjob ``index``.

    The common substitution in practice: same job, different machine.
    """
    from repro.rsl.attributes import RESOURCE_MANAGER_CONTACT

    _check_index(request, index)
    spec = request.children[index]
    if not isinstance(spec, Conjunction):
        raise RSLValidationError("can only retarget a conjunction subjob spec")
    return substitute_subjob(
        request, index, spec.with_value(RESOURCE_MANAGER_CONTACT, new_contact)
    )


def _check_index(request: MultiRequest, index: int) -> None:
    if not 0 <= index < len(request.children):
        raise RSLValidationError(
            f"subjob index {index} out of range 0..{len(request.children) - 1}"
        )


# ---------------------------------------------------------------------------
# Variable substitution: $(NAME) references and rslSubstitution bindings
# ---------------------------------------------------------------------------

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
