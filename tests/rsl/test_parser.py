"""Unit tests for the RSL lexer/parser/printer."""

import pytest

from repro.errors import RSLSyntaxError, RSLValidationError
from repro.rsl import (
    Conjunction,
    Disjunction,
    MultiRequest,
    Relation,
    parse,
    parse_multirequest,
    pretty,
    unparse,
)

#: The example from the paper's Figure 1 (abridged to three subjobs).
FIGURE_1 = """
+(&(resourceManagerContact=RM1)
   (count=1)(executable=master)
   (subjobStartType=required))
 (&(resourceManagerContact=RM2)
   (count=4)(executable=worker)
   (subjobStartType=interactive))
 (&(resourceManagerContact=RM3)
   (count=4)(executable=worker)
   (subjobStartType=interactive))
"""


class TestParsing:
    def test_simple_relation(self):
        spec = parse("count=4")
        assert isinstance(spec, Relation)
        assert spec.attribute == "count"
        assert spec.value == 4

    def test_multi_valued_relation(self):
        spec = parse("arguments=a b c")
        assert spec.values == ("a", "b", "c")

    def test_numeric_coercion(self):
        assert parse("count=4").value == 4
        assert parse("maxTime=1.5").value == 1.5
        assert parse("executable=a.out").value == "a.out"

    def test_quoted_string(self):
        spec = parse('directory="/home/user/my dir"')
        assert spec.value == "/home/user/my dir"

    def test_quoted_string_with_escaped_quote(self):
        spec = parse('arguments="say ""hi"""')
        assert spec.value == 'say "hi"'

    def test_conjunction(self):
        spec = parse("&(count=4)(executable=worker)")
        assert isinstance(spec, Conjunction)
        assert len(spec) == 2
        assert spec.get("count") == 4
        assert spec.get("EXECUTABLE") == "worker"  # case-insensitive

    def test_disjunction(self):
        spec = parse("|(&(count=4))(&(count=8))")
        assert isinstance(spec, Disjunction)
        assert len(spec) == 2

    def test_figure_1_request(self):
        spec = parse(FIGURE_1)
        assert isinstance(spec, MultiRequest)
        assert len(spec) == 3
        first = spec.children[0]
        assert first.get("resourceManagerContact") == "RM1"
        assert first.get("subjobStartType") == "required"
        assert first.get("count") == 1

    def test_comments_ignored(self):
        spec = parse("&(count=4) # trailing comment\n(executable=w)")
        assert spec.get("count") == 4

    def test_nested_specification_value(self):
        spec = parse("&(environment=(HOME /home/u)(PATH /bin))")
        env_rel = spec.relations()["environment"]
        assert len(env_rel.values) == 2

    def test_parse_multirequest_accepts_plus(self):
        req = parse_multirequest("+(&(count=1)(executable=x)(resourceManagerContact=r))")
        assert isinstance(req, MultiRequest)

    def test_parse_multirequest_rejects_conjunction(self):
        with pytest.raises(RSLSyntaxError):
            parse_multirequest("&(count=1)")


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "(count=4",
            "count=",
            "&count=4",
            "&(count=4))",
            '"unterminated',
            "=4",
            "&()",
            "@",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(RSLSyntaxError):
            parse(bad)


class TestPrinter:
    def test_unparse_relation(self):
        assert unparse(parse("count=4")) == "count=4"

    def test_roundtrip_figure_1(self):
        spec = parse(FIGURE_1)
        assert parse(unparse(spec)) == spec

    def test_quoting_of_spaces(self):
        spec = parse('directory="/a dir"')
        text = unparse(spec)
        assert '"' in text
        assert parse(text) == spec

    def test_numeric_string_stays_string(self):
        rel = Relation("label", ("42",))
        assert parse(unparse(rel)) == rel

    def test_pretty_contains_all_attributes(self):
        spec = parse(FIGURE_1)
        text = pretty(spec)
        for token in ("RM1", "RM2", "RM3", "master", "worker"):
            assert token in text

    def test_pretty_reparses(self):
        spec = parse(FIGURE_1)
        assert parse(pretty(spec)) == spec


class TestConjunctionHelpers:
    def test_single_value_accessor_rejects_multivalue(self):
        rel = parse("arguments=a b")
        with pytest.raises(RSLValidationError):
            _ = rel.value
