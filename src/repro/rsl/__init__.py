"""Resource Specification Language: AST, parser, printer, substitution."""

from repro.rsl.ast import (
    Conjunction,
    ValueSequence,
    Variable,
    Disjunction,
    MultiRequest,
    Relation,
    Specification,
    conj,
)
from repro.rsl.attributes import (
    COUNT,
    EXECUTABLE,
    RESOURCE_MANAGER_CONTACT,
    START_TYPES,
    SUBJOB_START_TYPE,
    spec_attributes,
    validate_subjob_spec,
)
from repro.rsl.parser import parse, parse_multirequest
from repro.rsl.printer import pretty, unparse
from repro.rsl.transform import (
    resolve_substitutions,
    substitute_variables,
)

__all__ = [
    "COUNT",
    "Conjunction",
    "Disjunction",
    "EXECUTABLE",
    "MultiRequest",
    "RESOURCE_MANAGER_CONTACT",
    "Relation",
    "START_TYPES",
    "SUBJOB_START_TYPE",
    "Specification",
    "ValueSequence",
    "Variable",
    "conj",
    "parse",
    "parse_multirequest",
    "pretty",
    "resolve_substitutions",
    "spec_attributes",
    "substitute_variables",
    "unparse",
    "validate_subjob_spec",
]
