"""Query kernel: planning errors, join semantics, filters, counts, budgets."""
import itertools
import time

import pytest

import rdfval.query
from rdfval.graph import Graph, GraphBuilder
from rdfval.query import (
    And,
    BudgetExceeded,
    Compare,
    Constant,
    Count,
    Filter,
    IsIri,
    IsLiteral,
    IsValidForDatatype,
    LangMatches,
    Not,
    NotExists,
    Plan,
    PlanError,
    Regex,
    SameLanguage,
    TriplePattern,
    Var,
    Variable,
    evaluate,
    plan,
    run_plan,
)
from rdfval.terms import Iri, Literal, RDF_TYPE, XSD_BOOLEAN, XSD_DATETIME, XSD_DECIMAL, XSD_INTEGER

EX = "urn:ex:"
A, B, C = Variable("a"), Variable("b"), Variable("c")


def iri(name):
    return Iri(EX + name)


def graph(*triples):
    b = GraphBuilder()
    for s, p, o in triples:
        b.add(s, p, o)
    return b.freeze()


def rows(g, pattern):
    return list(evaluate(g, pattern))


SMALL = graph(
    (iri("s1"), RDF_TYPE, iri("C")),
    (iri("s2"), RDF_TYPE, iri("C")),
    (iri("s1"), iri("p"), iri("o1")),
    (iri("s1"), iri("p"), iri("o2")),
    (iri("s2"), iri("p"), iri("o1")),
    (iri("o1"), iri("q"), Literal("5", XSD_INTEGER)),
)


def test_single_pattern_solutions():
    got = rows(SMALL, TriplePattern(A, iri("p"), B))
    assert len(got) == 3
    assert {(r[A], r[B]) for r in got} == {
        (iri("s1"), iri("o1")),
        (iri("s1"), iri("o2")),
        (iri("s2"), iri("o1")),
    }


def test_join_on_shared_variable():
    p = And([TriplePattern(A, iri("p"), B), TriplePattern(B, iri("q"), C)])
    got = rows(SMALL, p)
    assert {(r[A], r[C]) for r in got} == {
        (iri("s1"), Literal("5", XSD_INTEGER)),
        (iri("s2"), Literal("5", XSD_INTEGER)),
    }


def test_predicate_variables_match_every_edge():
    got = rows(SMALL, TriplePattern(iri("s2"), A, B))
    assert len(got) == 2
    assert {r[A] for r in got} == {RDF_TYPE, iri("p")}


def test_repeated_variable_requires_self_match():
    g = graph(
        (iri("n"), iri("p"), iri("n")),
        (iri("n"), iri("p"), iri("m")),
    )
    got = rows(g, TriplePattern(A, iri("p"), A))
    assert [r[A] for r in got] == [iri("n")]


def test_solutions_are_set_semantics():
    p = And([TriplePattern(A, RDF_TYPE, iri("C")), TriplePattern(A, iri("p"), B)])
    got = rows(SMALL, p)
    assert len(got) == len({(r[A], r[B]) for r in got}) == 3


def test_not_exists_filters_by_shared_variable():
    p = And(
        [
            TriplePattern(A, RDF_TYPE, iri("C")),
            NotExists(TriplePattern(A, iri("p"), iri("o2"))),
        ]
    )
    assert [r[A] for r in rows(SMALL, p)] == [iri("s2")]


def test_not_exists_with_compound_inner_pattern():
    inner = And(
        [
            TriplePattern(A, iri("p"), B),
            TriplePattern(B, iri("q"), C),
        ]
    )
    p = And([TriplePattern(A, RDF_TYPE, iri("C")), NotExists(inner)])
    assert rows(SMALL, p) == []


def test_filter_numeric_comparison_is_value_based():
    g = graph(
        (iri("s"), iri("p"), Literal("05", XSD_INTEGER)),
        (iri("s"), iri("p"), Literal("5.0", XSD_DECIMAL)),
        (iri("s"), iri("p"), Literal("6", XSD_INTEGER)),
    )
    p = And(
        [
            TriplePattern(iri("s"), iri("p"), A),
            Filter(Compare("=", Var(A), Constant(Literal("5", XSD_INTEGER)))),
        ]
    )
    assert len(rows(g, p)) == 2


def test_filter_type_errors_drop_the_row():
    g = graph(
        (iri("s"), iri("p"), Literal("abc", XSD_INTEGER)),
        (iri("s"), iri("p"), Literal("7", XSD_INTEGER)),
        (iri("s"), iri("p"), iri("o")),
    )
    p = And(
        [
            TriplePattern(iri("s"), iri("p"), A),
            Filter(Compare("<", Var(A), Constant(Literal("10", XSD_INTEGER)))),
        ]
    )
    assert [r[A] for r in rows(g, p)] == [Literal("7", XSD_INTEGER)]


def test_filter_string_comparison_is_bytewise():
    g = graph(
        (iri("s"), iri("p"), Literal("Zoo")),
        (iri("s"), iri("p"), Literal("apple")),
    )
    p = And(
        [
            TriplePattern(iri("s"), iri("p"), A),
            Filter(Compare("<", Var(A), Constant(Literal("a")))),
        ]
    )
    assert [r[A] for r in rows(g, p)] == [Literal("Zoo")]


def test_filter_not_negates_a_test_and_keeps_its_type_errors():
    g = graph(
        (iri("s"), iri("p"), Literal("x", language="en")),
        (iri("s"), iri("p"), Literal("y")),
        (iri("s"), iri("p"), iri("o")),
    )
    p = And(
        [
            TriplePattern(iri("s"), iri("p"), A),
            Filter(Not(LangMatches(A, "*"))),
        ]
    )
    # LangMatches over an IRI is a type error, and so is its negation.
    assert [r[A] for r in rows(g, p)] == [Literal("y")]


def test_filter_regex_flags():
    g = graph((iri("s"), iri("p"), Literal("Hello")))
    tp = TriplePattern(iri("s"), iri("p"), A)
    assert rows(g, And([tp, Filter(Regex(A, "^h"))])) == []
    assert len(rows(g, And([tp, Filter(Regex(A, "(?i)^h"))]))) == 1


def test_filter_lang_matches():
    g = graph(
        (iri("s"), iri("p"), Literal("a", language="en-GB")),
        (iri("s"), iri("p"), Literal("b", language="de")),
        (iri("s"), iri("p"), Literal("c")),
    )
    tp = TriplePattern(iri("s"), iri("p"), A)
    en = rows(g, And([tp, Filter(LangMatches(A, "en"))]))
    assert [r[A].lexical for r in en] == ["a"]
    anytag = rows(g, And([tp, Filter(LangMatches(A, "*"))]))
    assert {r[A].lexical for r in anytag} == {"a", "b"}


def test_filter_same_language():
    g = graph(
        (iri("s"), iri("p"), Literal("a", language="en")),
        (iri("s"), iri("q"), Literal("b", language="en")),
        (iri("s"), iri("q"), Literal("c", language="de")),
        (iri("s"), iri("q"), Literal("d")),
    )
    p = And(
        [
            TriplePattern(iri("s"), iri("p"), A),
            TriplePattern(iri("s"), iri("q"), B),
            Filter(SameLanguage(A, B)),
        ]
    )
    assert [r[B].lexical for r in rows(g, p)] == ["b"]


def test_filter_validity_probe():
    g = graph(
        (iri("s"), iri("p"), Literal("5", XSD_INTEGER)),
        (iri("s"), iri("p"), Literal("five", XSD_INTEGER)),
        (iri("s"), iri("p"), iri("o")),
    )
    p = And(
        [
            TriplePattern(iri("s"), iri("p"), A),
            Filter(Not(IsValidForDatatype(A))),
        ]
    )
    assert [r[A] for r in rows(g, p)] == [Literal("five", XSD_INTEGER)]


def test_iri_and_literal_probes():
    g = graph(
        (iri("s"), iri("p"), iri("o")),
        (iri("s"), iri("p"), Literal("x")),
    )
    tp = TriplePattern(iri("s"), iri("p"), A)
    assert [r[A] for r in rows(g, And([tp, Filter(IsIri(A))]))] == [iri("o")]
    assert [r[A] for r in rows(g, And([tp, Filter(IsLiteral(A))]))] == [Literal("x")]


COUNTED = [TriplePattern(A, RDF_TYPE, iri("C")), Count(TriplePattern(A, iri("p"), B), C)]


def test_count_values_per_subject():
    got = rows(SMALL, And(COUNTED))
    counts = {r[A]: r[C] for r in got}
    assert counts == {
        iri("s1"): Literal("2", XSD_INTEGER),
        iri("s2"): Literal("1", XSD_INTEGER),
    }
    # The counted pattern's own variables stay inside it.
    assert all(set(r) == {A, C} for r in got)


def test_count_then_filter():
    p = And([*COUNTED, Filter(Compare(">", Var(C), Constant(Literal("1", XSD_INTEGER))))])
    assert [r[A] for r in rows(SMALL, p)] == [iri("s1")]


def test_count_of_a_pattern_with_a_negation():
    d = Variable("d")
    values_without_q = And([TriplePattern(A, iri("p"), B), NotExists(TriplePattern(B, iri("q"), d))])
    p = And([TriplePattern(A, RDF_TYPE, iri("C")), Count(values_without_q, C)])
    assert {r[A]: r[C].lexical for r in rows(SMALL, p)} == {iri("s1"): "1", iri("s2"): "0"}


def test_an_uncorrelated_count_counts_the_whole_pattern():
    d, e = Variable("d"), Variable("e")
    p = And([Count(TriplePattern(A, iri("p"), B), C), TriplePattern(d, iri("q"), e)])
    assert rows(SMALL, p) == [{d: iri("o1"), e: Literal("5", XSD_INTEGER), C: Literal("3", XSD_INTEGER)}]


def test_plan_rejects_a_triple_pattern_that_reads_a_count():
    d = Variable("d")
    p = And([*COUNTED, TriplePattern(d, iri("q"), C)])
    with pytest.raises(PlanError, match=r"triple pattern reads the count \?c"):
        plan(p)
    inner = And([*COUNTED, NotExists(TriplePattern(A, iri("q"), C))])
    with pytest.raises(PlanError, match=r"triple pattern reads the count \?c"):
        plan(inner)
    counted = And([*COUNTED, Count(TriplePattern(A, iri("q"), C), d)])
    with pytest.raises(PlanError, match=r"triple pattern reads the count \?c"):
        plan(counted)


def test_plan_rejects_a_count_into_a_bound_variable_or_its_own_pattern():
    d = Variable("d")
    with pytest.raises(PlanError, match=r"count variable \?b is already bound"):
        plan(And([TriplePattern(A, iri("p"), B), Count(TriplePattern(A, iri("q"), d), B)]))
    reads_itself = And([TriplePattern(A, iri("p"), d), Filter(Compare(">", Var(C), Var(d)))])
    with pytest.raises(PlanError, match=r"count \?c waits on itself"):
        plan(And([TriplePattern(A, iri("p"), B), Count(reads_itself, C)]))


def test_count_of_nothing_is_a_zero_row():
    zero = Literal("0", XSD_INTEGER)
    p = And([TriplePattern(A, RDF_TYPE, iri("C")), Count(TriplePattern(A, iri("absent"), B), C)])
    assert sorted((r[A].text, r[C]) for r in rows(SMALL, p)) == [(EX + "s1", zero), (EX + "s2", zero)]
    assert rows(SMALL, Count(TriplePattern(A, iri("absent"), B), C)) == [{C: zero}]


def test_plan_rejects_filters_over_unbound_variables():
    p = And(
        [
            TriplePattern(A, iri("p"), B),
            Filter(IsIri(C)),
        ]
    )
    with pytest.raises(PlanError) as err:
        plan(p)
    assert "?c" in str(err.value)


def test_plan_keeps_the_variables_of_a_count_inside_it():
    p = And([*COUNTED, Filter(IsLiteral(B))])
    with pytest.raises(PlanError, match=r"filter references unbound \?b"):
        plan(p)


def test_plan_rejects_bad_regex_and_operator():
    tp = TriplePattern(A, iri("p"), B)
    with pytest.raises(PlanError):
        plan(And([tp, Filter(Regex(B, "[unclosed"))]))
    with pytest.raises(PlanError):
        plan(And([tp, Filter(Compare("==", Var(B), Constant(Literal("x"))))]))


@pytest.mark.parametrize(
    "expr, problem",
    [
        (Compare("=", IsLiteral(B), Constant(Literal("false", XSD_BOOLEAN))), "comparison operand"),
        (Compare("!=", Var(A), Not(IsIri(B))), "comparison operand"),
        (Var(A), "bare term"),
        (Constant(Literal("true", XSD_BOOLEAN)), "bare term"),
        (Not(Var(B)), "bare term"),
    ],
)
def test_plan_rejects_a_filter_that_is_not_a_test(expr, problem):
    with pytest.raises(PlanError, match=problem):
        plan(And([TriplePattern(A, iri("p"), B), Filter(expr)]))


def test_plan_error_aggregates_every_problem():
    p = And(
        [
            TriplePattern(A, iri("p"), B),
            Filter(IsIri(C)),
            Filter(Regex(B, "[unclosed")),
        ]
    )
    with pytest.raises(PlanError) as err:
        plan(p)
    text = str(err.value)
    assert "?c" in text and "unclosed" in text


def test_union_of_pipelines_concatenates_solutions():
    p1 = plan(TriplePattern(A, RDF_TYPE, iri("C")))
    p2 = plan(TriplePattern(A, iri("p"), iri("o2")))
    union = Plan(p1.pipelines + p2.pipelines, columns=(A,))
    got = [SMALL.term(a) for (a,) in run_plan(SMALL, union)]
    assert sorted(got, key=lambda t: t.text) == [iri("s1"), iri("s1"), iri("s2")]


def test_exhausted_deadline_raises_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        list(run_plan(SMALL, plan(TriplePattern(A, iri("p"), B)), deadline=0.0))


def test_generous_deadline_does_not_interfere():
    got = list(
        run_plan(
            SMALL,
            plan(TriplePattern(A, iri("p"), B)),
            deadline=time.monotonic() + 60,
        )
    )
    assert len(got) == 3


def count_index_reads(monkeypatch):
    """Count Graph.values calls, through which every index read of
    evaluation goes, from here on; returns the counter."""
    calls = itertools.count()
    values = Graph.values

    def counted(*args):
        next(calls)
        return values(*args)

    monkeypatch.setattr(Graph, "values", counted)
    return calls


def clock_passing_after(monkeypatch, reads):
    """time.monotonic reads 0 for its first `reads` calls, then 1e9."""
    calls = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: 0.0 if next(calls) < reads else 1e9)


def test_run_plan_streams_its_outermost_loop(monkeypatch):
    n = 2000
    g = graph(
        (iri("s0"), iri("p"), iri("o")),
        *[(iri(f"s{i}"), RDF_TYPE, iri("C")) for i in range(1, n + 1)],
    )
    p = plan(And([TriplePattern(A, RDF_TYPE, iri("C")), NotExists(TriplePattern(A, iri("p"), B))]))
    calls = count_index_reads(monkeypatch)
    first = next(run_plan(g, p))
    assert dict(zip(p.columns, map(g.term, first))) == {A: iri("s1")}
    # One outer scan and the first subject's probe, not one probe per subject.
    assert 0 < next(calls) <= 3
    assert len(list(run_plan(g, p))) == n


# One subject with many values: past the first few ticks, all work is
# inside the NotExists or Count body.
WIDE = graph(
    (iri("s"), RDF_TYPE, iri("C")),
    *[(iri("s"), iri("p"), Literal(f"v{i}")) for i in range(3000)],
)


def test_deadline_passing_inside_not_exists_body_raises(monkeypatch):
    inner = And([TriplePattern(A, iri("p"), B), Filter(LangMatches(B, "en"))])
    p = And([TriplePattern(A, RDF_TYPE, iri("C")), NotExists(inner)])
    assert list(evaluate(WIDE, p, deadline=time.monotonic() + 60)) == [{A: iri("s")}]
    clock_passing_after(monkeypatch, 1)
    with pytest.raises(BudgetExceeded):
        list(run_plan(WIDE, plan(p), deadline=10.0))


def test_deadline_passing_inside_count_raises(monkeypatch):
    n = Variable("n")
    p = And([TriplePattern(A, RDF_TYPE, iri("C")), Count(TriplePattern(A, iri("p"), B), n)])
    assert list(evaluate(WIDE, p, deadline=time.monotonic() + 60)) == [{A: iri("s"), n: Literal("3000", XSD_INTEGER)}]
    clock_passing_after(monkeypatch, 1)
    with pytest.raises(BudgetExceeded):
        list(run_plan(WIDE, plan(p), deadline=10.0))


def test_literal_values_are_parsed_once_per_run(monkeypatch):
    values = [Literal(str(i % 3), XSD_INTEGER) for i in range(600)]
    g = graph(*[(iri(f"s{i}"), iri("q"), v) for i, v in enumerate(values)])
    calls = itertools.count()
    numeric_value = rdfval.query.numeric_value

    def counted(lit):
        next(calls)
        return numeric_value(lit)

    monkeypatch.setattr(rdfval.query, "numeric_value", counted)
    p = plan(And([TriplePattern(A, iri("q"), B), Filter(Compare(">", Var(B), Constant(Literal("1", XSD_INTEGER))))]))
    assert len(list(run_plan(g, p))) == 200
    # Three distinct values and the constant.
    assert next(calls) == 4
    assert len(list(run_plan(g, p))) == 200
    assert next(calls) == 9


def test_equality_filter_reads_hour_24_as_the_next_day():
    g = graph(
        (iri("s0"), iri("t"), Literal("2015-06-01T24:00:00", XSD_DATETIME)),
        (iri("s1"), iri("t"), Literal("2015-06-01T00:00:00", XSD_DATETIME)),
    )
    midnight = Constant(Literal("2015-06-02T00:00:00", XSD_DATETIME))
    got = rows(g, And([TriplePattern(A, iri("t"), B), Filter(Compare("=", Var(B), midnight))]))
    assert got == [{A: iri("s0"), B: Literal("2015-06-01T24:00:00", XSD_DATETIME)}]


def test_filter_orders_datetimes_by_instant():
    values = {
        "2015-06-01T12:00:00+05:00": True,  # 07:00Z
        "2015-06-01T09:00:00+01:00": False,  # 08:00Z, the same instant
        "2015-05-31T12:00:00": True,  # before 08:00Z in every zone
        "2015-06-01T12:00:00": None,  # order indeterminate: a type error
    }
    g = graph(*[(iri(f"s{i}"), iri("t"), Literal(lex, XSD_DATETIME)) for i, lex in enumerate(values)])
    cutoff = Constant(Literal("2015-06-01T08:00:00Z", XSD_DATETIME))
    before = rows(g, And([TriplePattern(A, iri("t"), B), Filter(Compare("<", Var(B), cutoff))]))
    assert {r[B].lexical for r in before} == {lex for lex, less in values.items() if less}
    not_before = rows(g, And([TriplePattern(A, iri("t"), B), Filter(Compare(">=", Var(B), cutoff))]))
    assert {r[B].lexical for r in not_before} == {lex for lex, less in values.items() if less is False}
