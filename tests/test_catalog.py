"""Catalog loading, parameter coercion, classification, linting."""
import json
import re
from fractions import Fraction

import pytest

from rdfval.catalog import (
    CatalogError,
    FAMILIES,
    Severity,
    classify,
    lint_catalog,
    load_catalog,
    merge_catalogs,
    round_percentage,
)
from rdfval.terms import Iri, Literal

PREFIXES = {"ex": "urn:ex:", "xsd": "http://www.w3.org/2001/XMLSchema#"}


def doc(*constraints, prefixes=PREFIXES):
    return json.dumps({"prefixes": prefixes, "constraints": list(constraints)})


def entry(cid="C-1", family="EXISTENTIAL-QUANTIFICATION", params=None, **kw):
    base = {
        "id": cid,
        "vocabulary": "user-defined",
        "family": family,
        "severity": "error",
        "status": "implemented",
        "params": {"class": "ex:C", "property": "ex:p"} if params is None else params,
        "message": "{focus} lacks {property}",
    }
    base.update(kw)
    return base


def load_one(*constraints, **kw):
    return load_catalog(doc(*constraints, **kw))


def problems_of(err):
    return [p for _, p in err.value.problems]


def test_load_minimal_catalog():
    cat = load_one(entry())
    assert len(cat) == 1
    c = cat.get("C-1")
    assert c.family.family_id == "EXISTENTIAL-QUANTIFICATION"
    assert c.params["class"] == Iri("urn:ex:C")
    assert c.params["property"] == Iri("urn:ex:p")
    assert c.severity is Severity.ERROR


def test_severity_parsing_and_order():
    assert Severity.parse("info") < Severity.parse("warning") < Severity.parse("error")
    assert Severity.ERROR.json_name == "error"
    with pytest.raises(ValueError):
        Severity.parse("fatal")


def test_undeclared_prefix_falls_back_to_absolute_iri():
    # "nope" is never declared, but it is a valid scheme, so the text is
    # kept as an absolute IRI rather than rejected.
    cat = load_one(entry(params={"class": "nope:C", "property": "ex:p"}))
    assert cat.get("C-1").params["class"] == Iri("nope:C")


def test_invalid_iri_param_is_reported():
    with pytest.raises(CatalogError) as err:
        load_one(entry(params={"class": "9bad:C", "property": "ex:p"}))
    assert any("class" in p for p in problems_of(err))


def test_value_set_terms():
    cat = load_one(
        entry(
            family="ALLOWED-VALUES",
            params={"property": "ex:p", "values": ["ex:a", "urn:ex:b", "plain", "5"]},
        )
    )
    values = cat.get("C-1").params["values"]
    assert values == (Iri("urn:ex:a"), Iri("urn:ex:b"), Literal("plain"), Literal("5"))


def test_number_params_must_be_plain_integers():
    for bad in (True, 1.5, "2"):
        with pytest.raises(CatalogError):
            load_one(
                entry(
                    family="MAX-UNQUALIFIED-CARDINALITY",
                    params={"class": "ex:C", "property": "ex:p", "bound": bad},
                )
            )


def test_negative_bound_and_zero_depth_are_rejected():
    with pytest.raises(CatalogError):
        load_one(
            entry(
                family="MAX-UNQUALIFIED-CARDINALITY",
                params={"class": "ex:C", "property": "ex:p", "bound": -1},
            )
        )
    with pytest.raises(CatalogError):
        load_one(
            entry(
                family="STRUCTURE-ACYCLICITY",
                params={"property": "ex:p", "max-depth": 0},
            )
        )


def test_datatype_without_property_is_rejected():
    with pytest.raises(CatalogError):
        load_one(
            entry(
                family="VALUE-IS-VALID-FOR-DATATYPE",
                params={"datatype": "xsd:integer"},
            )
        )
    load_one(entry(family="VALUE-IS-VALID-FOR-DATATYPE", params={}))


def test_literal_range_needs_a_bound():
    with pytest.raises(CatalogError):
        load_one(entry(family="LITERAL-RANGE", params={"property": "ex:p"}))


def test_language_cardinality_needs_exactly_one_mode():
    with pytest.raises(CatalogError):
        load_one(
            entry(
                family="LANGUAGE-TAG-CARDINALITY",
                params={
                    "class": "ex:C",
                    "property": "ex:p",
                    "required-language": "en",
                    "value-language": "en",
                },
            )
        )
    with pytest.raises(CatalogError):
        load_one(
            entry(
                family="LANGUAGE-TAG-CARDINALITY",
                params={"class": "ex:C", "property": "ex:p", "max-per-language": 2},
            )
        )


def test_unknown_family_missing_and_extra_fields():
    with pytest.raises(CatalogError) as err:
        load_catalog(
            doc(
                entry(family="NO-SUCH-FAMILY"),
                {"id": "C-2"},
                entry(cid="C-3", provenance="x"),
            )
        )
    text = " ".join(problems_of(err))
    assert "NO-SUCH-FAMILY" in text
    assert "missing field" in text
    assert "'provenance'" in text


def test_unknown_message_placeholder_is_rejected():
    with pytest.raises(CatalogError) as err:
        load_one(entry(message="{focus} and {mystery}"))
    assert any("mystery" in p for p in problems_of(err))


def test_duplicate_ids_are_rejected():
    with pytest.raises(CatalogError) as err:
        load_one(entry(), entry())
    assert any("duplicate" in p for p in problems_of(err))


def test_every_problem_is_reported_at_once():
    with pytest.raises(CatalogError) as err:
        load_catalog(
            doc(
                entry(severity="fatal"),
                entry(cid="C-2", vocabulary="NOPE"),
            )
        )
    assert len(err.value.problems) == 2


def test_problems_quote_a_bounded_part_of_a_huge_value():
    huge = ["x" * 100] * 5_000
    with pytest.raises(CatalogError) as err:
        load_one(
            entry(
                vocabulary=huge, family=huge, severity=huge, status=huge, expressivity=huge, message="{focus}"
            )
        )
    problems = problems_of(err)
    assert len(problems) == 5
    for problem in problems:
        assert len(problem) < 300 and problem.endswith("…"), problem[:400]


def test_catalog_views():
    cat = load_one(
        entry(vocabulary="QB"),
        entry(cid="C-2", vocabulary="SKOS", status="not-implemented"),
        entry(cid="C-3", vocabulary="QB"),
    )
    assert cat.vocabularies() == ("QB", "SKOS")
    assert [c.id for c in cat.implemented()] == ["C-1", "C-3"]
    assert cat.get("C-9") is None


def test_merge_keeps_ids_unique():
    a = load_one(entry())
    b = load_one(entry(cid="C-2"))
    merged = merge_catalogs([a, b])
    assert len(merged) == 2
    with pytest.raises(CatalogError):
        merge_catalogs([a, a])


def test_default_expressivity_comes_from_the_family():
    cat = load_one(entry(), entry(cid="C-2", expressivity=["cl"]))
    assert cat.get("C-1").expressivity == FAMILIES["EXISTENTIAL-QUANTIFICATION"].expressivity
    assert cat.get("C-1").expressivity == frozenset(("cl", "rdfs-owl"))
    assert cat.get("C-2").expressivity == frozenset(("cl",))


def test_round_percentage_is_half_up():
    assert round_percentage(Fraction(1, 8)) == "12.5"
    assert round_percentage(Fraction(1, 16)) == "6.3"
    assert round_percentage(Fraction(1, 3)) == "33.3"
    assert round_percentage(Fraction(0)) == "0.0"
    assert round_percentage(Fraction(1)) == "100.0"
    assert round_percentage(Fraction(141, 200)) == "70.5"


def test_classification_counts_and_total_mean():
    cat = load_one(
        entry(vocabulary="QB", expressivity=["sparql", "cl"]),
        entry(cid="C-2", vocabulary="QB", severity="info", expressivity=["sparql"]),
        entry(cid="C-3", vocabulary="SKOS", severity="warning", expressivity=["rdfs-owl"]),
        entry(cid="C-4", vocabulary="QB", status="not-implemented"),
    )
    summary = classify(cat)
    qb = summary.per_vocabulary["QB"]
    assert qb.total == 2
    assert qb.percentage("sparql") == "100.0"
    assert qb.percentage("cl") == "50.0"
    assert qb.percentage("error") == "50.0"
    skos = summary.per_vocabulary["SKOS"]
    assert skos.percentage("rdfs-owl") == "100.0"
    # Unweighted mean of 50% and 0%, not 1 of 3 constraints.
    assert summary.total_percentage("cl") == "25.0"
    assert summary.total_percentage("warning") == "50.0"


def test_lint_findings():
    cat = load_one(
        entry(status="not-implemented"),
        entry(
            cid="C-2",
            family="INVERSE-FUNCTIONAL-PROPERTY",
            params={"property": "ex:p"},
            severity="info",
        ),
        entry(
            cid="C-3",
            family="LITERAL-PATTERN-MATCHING",
            params={"property": "ex:p", "pattern": "a$b"},
        ),
        entry(
            cid="C-4",
            family="VALUE-IS-VALID-FOR-DATATYPE",
            params={"property": "ex:p", "datatype": "ex:customType"},
        ),
    )
    kinds = {(f.kind, f.constraint_id) for f in lint_catalog(cat)}
    assert kinds == {
        ("not-implemented", "C-1"),
        ("severity-below-family-minimum", "C-2"),
        ("never-matching-regex", "C-3"),
        ("unsupported-datatype", "C-4"),
    }


# Each pattern with a string it matches: a "$" in a class, one followed by
# an escape or an optional literal, or one in a branch that can be skipped.
MATCHING_REGEXES = [
    ("^(a|b)$", "a"),
    (r"^[$]\d+$", "$12"),
    (r"\d+[$€]", "12€"),
    (r"(?m)^a$\nb", "a\nb"),
    (r"a$\n", "a\n"),
    (r"a$\Z", "a"),
    ("a$b?", "a"),
    ("a$b|c", "c"),
]


def test_lint_accepts_reasonable_regexes():
    for pattern, witness in MATCHING_REGEXES:
        assert re.search(pattern, witness), pattern
        cat = load_one(
            entry(
                cid="C-1",
                family="LITERAL-PATTERN-MATCHING",
                params={"property": "ex:p", "pattern": pattern},
            )
        )
        assert lint_catalog(cat) == [], pattern


NESTED_QUANTIFIERS = ["(a+)+", "(a*)*", r"^(\d+)*$", r"(?:[a-z]+\s)*", "((a+)b)*", "(a+){2,}", "(a|b+)*?"]
# Repetitions that nest no unbounded quantifier in a repeated group.
FLAT_REPETITIONS = ["(ab)+", "[a+]+", r"\(a+\)+", "(a+)?", "(a+){2}", "^(a+)$", "(a+)b(c)*", "^#+$"]


def test_lint_flags_a_repeated_group_with_an_unbounded_quantifier():
    for pattern in NESTED_QUANTIFIERS + FLAT_REPETITIONS:
        re.compile(pattern)
        cat = load_one(
            entry(
                cid="C-1",
                family="LITERAL-PATTERN-MATCHING",
                params={"property": "ex:p", "pattern": pattern},
            )
        )
        kinds = [(f.kind, f.constraint_id) for f in lint_catalog(cat)]
        assert kinds == ([("nested-quantifier-regex", "C-1")] if pattern in NESTED_QUANTIFIERS else []), pattern
