"""Constraint compilation and outcome production on hand-built graphs."""
import gzip
import itertools
import random
import time
from dataclasses import replace

import pytest

from oracles import CLASSES, FAMILY_ORACLES, PROPS, random_family_params, random_instance_graph, render_message
from test_query import count_index_reads

from rdfval.catalog import (
    Catalog,
    FAMILIES,
    IMPLEMENTED,
    NOT_IMPLEMENTED,
    Severity,
)
import rdfval.checker
from rdfval.catalog import Constraint
from rdfval.checker import (
    CheckOutcome,
    CompileError,
    ENGINE_FAILURE,
    NOT_IMPLEMENTED_STATUS,
    OK,
    REPORT_ROOT,
    SOURCE_INCOMPLETE,
    TRUNCATED,
    VIOLATED,
    Violation,
    ViolationReport,
    check,
    compile_constraint,
    mark_source_incomplete,
    violation_chunks,
    violations_ntriples,
    violations_to_graph,
)
from rdfval.graph import GraphBuilder
from rdfval.ntriples import serialize_ntriples
from rdfval.packs import FIXTURES, load_fixture, load_pack
from rdfval.cli import _read_graphs
from rdfval.terms import BlankNode, Iri, Literal, RDF_TYPE, XSD_INTEGER

EX = "urn:ex:"


def iri(name):
    return Iri(EX + name)


def graph(*triples):
    b = GraphBuilder()
    for s, p, o in triples:
        b.add(s, p, o)
    return b.freeze()


def constraint(family_id, params, cid="T-1", status=IMPLEMENTED, message="{focus}", severity=Severity.ERROR):
    return Constraint(
        id=cid,
        vocabulary="user-defined",
        family=FAMILIES[family_id],
        params=params,
        severity=severity,
        status=status,
        message=message,
        expressivity=frozenset(("sparql",)),
    )


def run_one(g, c, **kw):
    (outcome,) = check(g, Catalog({}, (c,)), **kw)
    return outcome


def keys(outcome):
    return {(v.focus, v.path, v.value) for v in outcome.violations}


def test_missing_required_value():
    g = graph(
        (iri("a"), RDF_TYPE, iri("C")),
        (iri("b"), RDF_TYPE, iri("C")),
        (iri("a"), iri("p"), Literal("x")),
    )
    c = constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("C"), "property": iri("p")})
    outcome = run_one(g, c)
    assert outcome.status == VIOLATED
    assert keys(outcome) == {(iri("b"), iri("p"), None)}
    assert outcome.count == 1


def test_ok_outcome_has_no_violations():
    g = graph((iri("a"), RDF_TYPE, iri("D")))
    c = constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("C"), "property": iri("p")})
    outcome = run_one(g, c)
    assert outcome.status == OK
    assert outcome.violations == ()


def test_cardinality_violation_reports_the_count():
    g = graph(
        (iri("a"), RDF_TYPE, iri("C")),
        (iri("a"), iri("p"), iri("v1")),
        (iri("a"), iri("p"), iri("v2")),
        (iri("a"), iri("p"), iri("v3")),
    )
    c = constraint(
        "MAX-UNQUALIFIED-CARDINALITY",
        {"class": iri("C"), "property": iri("p"), "bound": 2},
    )
    outcome = run_one(g, c)
    assert keys(outcome) == {(iri("a"), iri("p"), Literal("3", XSD_INTEGER))}


def test_min_cardinality_zero_is_always_satisfied():
    g = graph((iri("a"), RDF_TYPE, iri("C")))
    c = constraint(
        "MIN-UNQUALIFIED-CARDINALITY",
        {"class": iri("C"), "property": iri("p"), "bound": 0},
    )
    assert run_one(g, c).status == OK


def test_type_triples_count_against_allowed_properties():
    g = graph(
        (iri("a"), RDF_TYPE, iri("C")),
        (iri("a"), iri("p"), Literal("x")),
        (iri("a"), iri("q"), Literal("y")),
    )
    c = constraint(
        "CONTEXT-SPECIFIC-VALID-PROPERTIES",
        {"class": iri("C"), "properties": (iri("p"),)},
    )
    got = keys(run_one(g, c))
    assert got == {
        (iri("a"), RDF_TYPE, iri("C")),
        (iri("a"), iri("q"), Literal("y")),
    }


def test_disjointness_reports_the_second_class():
    g = graph(
        (iri("a"), RDF_TYPE, iri("C")),
        (iri("a"), RDF_TYPE, iri("D")),
        (iri("b"), RDF_TYPE, iri("C")),
    )
    c = constraint("DISJOINT-CLASSES", {"class": iri("C"), "other-class": iri("D")})
    assert keys(run_one(g, c)) == {(iri("a"), RDF_TYPE, iri("D"))}


def test_dimension_chain_with_literal_dimension_gets_no_path():
    g = graph(
        (iri("obs"), Iri("http://purl.org/linked-data/cube#dataSet"), iri("ds")),
        (iri("ds"), Iri("http://purl.org/linked-data/cube#structure"), iri("dsd")),
        (iri("dsd"), Iri("http://purl.org/linked-data/cube#component"), iri("comp")),
        (iri("comp"), Iri("http://purl.org/linked-data/cube#dimension"), Literal("broken")),
    )
    c = constraint("DIMENSION-COMPLETENESS", {})
    assert keys(run_one(g, c)) == {(iri("obs"), None, None)}


def test_dimensions_without_a_path_report_their_observation_once():
    qb = "http://purl.org/linked-data/cube#"
    g = graph(
        (iri("obs"), Iri(qb + "dataSet"), iri("ds")),
        (iri("ds"), Iri(qb + "structure"), iri("dsd")),
        (iri("dsd"), Iri(qb + "component"), iri("comp")),
        (iri("comp"), Iri(qb + "dimension"), Literal("a")),
        (iri("comp"), Iri(qb + "dimension"), Literal("b")),
        (iri("comp"), Iri(qb + "dimension"), BlankNode("d")),
        (iri("comp"), Iri(qb + "dimension"), iri("p")),
    )
    c = constraint("DIMENSION-COMPLETENESS", {})
    outcome = run_one(g, c)
    assert outcome.count == len(outcome.violations) == 2
    assert keys(outcome) == {(iri("obs"), None, None), (iri("obs"), iri("p"), None)}
    assert run_one(g, c, records=False).count == 2
    assert run_one(g, c, limit=1).status == TRUNCATED


def test_shared_identifier_reports_every_holder():
    g = graph(
        (iri("a"), iri("p"), Literal("shared")),
        (iri("b"), iri("p"), Literal("shared")),
    )
    c = constraint("INVERSE-FUNCTIONAL-PROPERTY", {"property": iri("p")})
    got = keys(run_one(g, c))
    assert got == {
        (iri("a"), iri("p"), Literal("shared")),
        (iri("b"), iri("p"), Literal("shared")),
    }


def test_blank_node_focus_is_reported():
    g = graph(
        (BlankNode("x"), RDF_TYPE, iri("C")),
    )
    c = constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("C"), "property": iri("p")})
    assert keys(run_one(g, c)) == {(BlankNode("x"), iri("p"), None)}


def test_message_placeholders_are_substituted():
    g = graph((iri("a"), RDF_TYPE, iri("C")))
    c = constraint(
        "EXISTENTIAL-QUANTIFICATION",
        {"class": iri("C"), "property": iri("p")},
        message="{focus} lacks {property} ({path}/{value})",
    )
    (v,) = run_one(g, c).violations
    assert v.message == "urn:ex:a lacks urn:ex:p (urn:ex:p/)"


# Message pieces: placeholders known and unknown, lone and doubled braces,
# `{}` and text.  Parameter names include the violation's own fields, and
# texts hold braces and `{0}`, which a format template must not expand.
MESSAGE_PIECES = ["{", "}", "{{", "}}", "{}", "{0}", "{1}", " ", "x", "{focus}", "{path}", "{value}",
                  "{property}", "{class}", "{unknown}", "{a b}", "{{focus}}", "{x{value}}"]
PARAMETER_NAMES = ["focus", "path", "value", "property", "class", "0"]
TEXTS = ["", "a", "{", "}", "{}", "{0}", "{focus}", "^[a-z]{2}$", "{{", "}}", "%s", "\\"]


def test_message_template_agrees_with_one_pass_substitution():
    rng = random.Random(31)
    for case in range(400):
        message = "".join(rng.choice(MESSAGE_PIECES) for _ in range(rng.randint(0, 8)))
        names = rng.sample(PARAMETER_NAMES, rng.randint(0, 3))
        texts = {name: "".join(rng.choices(TEXTS, k=rng.randint(0, 3))) for name in names}
        # A parameter given as a literal is displayed as its lexical form.
        params = {name: Literal(text) if rng.random() < 0.5 else text for name, text in texts.items()}
        fields = ["".join(rng.choices(TEXTS, k=rng.randint(0, 3))) for _ in range(3)]
        c = constraint("EXISTENTIAL-QUANTIFICATION", params, message=message)
        got = rdfval.checker._message_template(c).format(*fields)
        assert got == render_message(message, texts, *fields), (case, message, texts, fields)


def test_violations_are_deduplicated_and_sorted():
    g = graph(
        (iri("a"), RDF_TYPE, iri("C")),
        (iri("a"), iri("p"), Literal("9", XSD_INTEGER)),
        (iri("a"), iri("q"), Literal("1", XSD_INTEGER)),
        (iri("a"), iri("q"), Literal("2", XSD_INTEGER)),
        (iri("b"), RDF_TYPE, iri("C")),
        (iri("b"), iri("p"), Literal("9", XSD_INTEGER)),
        (iri("b"), iri("q"), Literal("1", XSD_INTEGER)),
    )
    c = constraint(
        "LITERAL-VALUE-COMPARISON",
        {"class": iri("C"), "property": iri("p"), "other-property": iri("q")},
    )
    outcome = run_one(g, c)
    # Two lesser q values for a yield one violation for a, not two.
    assert outcome.count == 2
    assert [v.focus for v in outcome.violations] == [iri("a"), iri("b")]


def test_limit_truncates():
    triples = [(iri("a"), RDF_TYPE, iri("C"))]
    triples += [(iri(f"v{i}"), RDF_TYPE, iri("C")) for i in range(9)]
    g = graph(*triples)
    c = constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("C"), "property": iri("p")})
    outcome = run_one(g, c, limit=3)
    assert outcome.status == TRUNCATED
    assert outcome.count == 3
    assert outcome.limit == 3
    assert len(outcome.violations) == 3


def test_exhausted_budget_is_an_engine_failure():
    g = graph((iri("a"), RDF_TYPE, iri("C")))
    c = constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("C"), "property": iri("p")})
    outcome = run_one(g, c, budget=0.0)
    assert outcome.status == ENGINE_FAILURE
    assert outcome.reason == "budget"
    assert outcome.violations == ()


def test_nan_budget_is_rejected():
    # A NaN deadline never passes, so the budget would bound nothing.
    g = graph((iri("a"), RDF_TYPE, iri("C")))
    c = constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("C"), "property": iri("p")})
    with pytest.raises(ValueError, match="NaN"):
        run_one(g, c, budget=float("nan"))


def test_limit_stops_the_constraint_after_a_bounded_number_of_rows(monkeypatch):
    g = graph((iri("x"), iri("p"), iri("o")), *[(iri(f"s{i}"), RDF_TYPE, iri("C")) for i in range(2000)])
    c = constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("C"), "property": iri("p")})
    rows = itertools.count()
    run_plan = rdfval.checker.run_plan

    def counted(*args, **kwargs):
        for row in run_plan(*args, **kwargs):
            next(rows)
            yield row

    monkeypatch.setattr(rdfval.checker, "run_plan", counted)
    outcome = run_one(g, c, limit=1)
    assert outcome.status == TRUNCATED and outcome.count == 1
    # The first violation, and the second that shows the limit is reached.
    assert next(rows) == 2


def test_a_cardinality_at_its_limit_counts_a_few_foci_not_the_class(monkeypatch):
    n = 1000
    g = graph(
        *[
            t
            for i in range(n)
            for t in (
                (iri(f"s{i}"), RDF_TYPE, iri("C")),
                (iri(f"s{i}"), iri("p"), iri("o1")),
                (iri(f"s{i}"), iri("p"), iri("o2")),
            )
        ]
    )
    c = constraint("MAX-UNQUALIFIED-CARDINALITY", {"class": iri("C"), "property": iri("p"), "bound": 1})
    assert run_one(g, c).count == n
    calls = count_index_reads(monkeypatch)
    outcome = run_one(g, c, limit=1)
    assert outcome.status == TRUNCATED and outcome.count == 1
    # The class scan and the counts of the first two foci, not one count
    # per focus before the first violation.
    assert 0 < next(calls) <= 4


# One focus with many values: once the first few ticks are past, the
# evaluation is inside a NotExists or Count body.
WIDE = graph(
    (iri("s"), RDF_TYPE, iri("C")),
    *[(iri("s"), iri("p"), Literal(f"v{i}")) for i in range(3000)],
)


@pytest.mark.parametrize(
    "family_id, params",
    [
        ("LANGUAGE-TAG-CARDINALITY", {"class": iri("C"), "property": iri("p"), "required-language": "en"}),
        ("MAX-UNQUALIFIED-CARDINALITY", {"class": iri("C"), "property": iri("p"), "bound": 1}),
    ],
)
def test_deadline_passing_inside_nested_stages_is_an_engine_failure(monkeypatch, family_id, params):
    c = constraint(family_id, params)
    assert run_one(WIDE, c).status == VIOLATED
    # The clock passes the deadline after the constraint's start and the
    # engine's first check have read it.
    reads = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: 0.0 if next(reads) < 2 else 1e9)
    outcome = run_one(WIDE, c, budget=10.0)
    assert (outcome.status, outcome.reason) == (ENGINE_FAILURE, "budget")


def test_not_implemented_rows_are_reported_without_running():
    g = graph((iri("a"), RDF_TYPE, iri("C")))
    c = constraint(
        "EXISTENTIAL-QUANTIFICATION",
        {"class": iri("C"), "property": iri("p")},
        status=NOT_IMPLEMENTED,
    )
    outcome = run_one(g, c)
    assert outcome.status == NOT_IMPLEMENTED_STATUS
    assert outcome.violations == ()


def test_non_executable_family_fails_to_compile():
    loose = [fid for fid in FAMILIES if fid not in rdfval.checker._COMPILERS]
    assert loose
    fam = FAMILIES[loose[0]]
    c = Constraint(
        id="T-1",
        vocabulary="user-defined",
        family=fam,
        params={},
        severity=Severity.ERROR,
        status=IMPLEMENTED,
        message="x",
        expressivity=frozenset(("sparql",)),
    )
    with pytest.raises(CompileError):
        compile_constraint(c)
    outcome = run_one(graph((iri("a"), RDF_TYPE, iri("C"))), c)
    assert outcome.status == ENGINE_FAILURE
    assert outcome.reason.startswith("compile:")


def test_missing_parameter_is_a_compile_error():
    c = constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("C")})
    with pytest.raises(CompileError):
        compile_constraint(c)


def test_check_runs_whole_catalog_in_order():
    g = graph((iri("a"), RDF_TYPE, iri("C")))
    catalog = Catalog(
        {},
        (
            constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("C"), "property": iri("p")}, cid="A"),
            constraint("PROPERTY-DOMAIN", {"property": iri("p"), "class": iri("C")}, cid="B"),
        ),
    )
    outcomes = check(g, catalog)
    assert [o.constraint_id for o in outcomes] == ["A", "B"]
    assert [o.status for o in outcomes] == [VIOLATED, OK]


def test_mark_source_incomplete_downgrades_decided_outcomes():
    g = graph(
        (iri("a"), RDF_TYPE, iri("C")),
        (iri("b"), RDF_TYPE, iri("D")),
    )
    catalog = Catalog(
        {},
        (
            constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("C"), "property": iri("p")}, cid="A"),
            constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("X"), "property": iri("p")}, cid="B"),
            constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("C"), "property": iri("p")}, cid="N", status=NOT_IMPLEMENTED),
        ),
    )
    outcomes = check(g, catalog)
    marked = mark_source_incomplete(outcomes, parts_missing=2)
    by_id = {o.constraint_id: o for o in marked}
    assert by_id["A"].status == SOURCE_INCOMPLETE
    assert by_id["A"].parts_missing == 2
    assert by_id["A"].violations == ()
    assert by_id["A"].count == 1
    assert by_id["B"].status == SOURCE_INCOMPLETE
    assert by_id["N"].status == NOT_IMPLEMENTED_STATUS


def test_violations_graph_serializes():
    g = graph(
        (iri("a"), RDF_TYPE, iri("C")),
        (iri("b"), RDF_TYPE, iri("C")),
    )
    c = constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("C"), "property": iri("p")})
    outcomes = check(g, Catalog({}, (c,)))
    report = violations_to_graph(outcomes)
    text = serialize_ntriples(report).decode("utf-8")
    assert "urn:rdfval:report#root" in text
    assert "<urn:ex:a>" in text and "<urn:ex:b>" in text
    roots = {t.subject for t in report}
    assert len(roots) == 2


def test_unlimited_and_unbudgeted_check():
    triples = [(iri(f"v{i}"), RDF_TYPE, iri("C")) for i in range(50)]
    g = graph(*triples)
    c = constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("C"), "property": iri("p")})
    outcome = run_one(g, c, limit=None, budget=None)
    assert outcome.status == VIOLATED
    assert outcome.count == 50


# ---------------------------------------------------------------------------
# violations_ntriples against the graph-building reference


def reference_ntriples(outcomes):
    # Through Triple, triple_text and a sort of every line: none of them is
    # on the path of the streamed writer.
    return serialize_ntriples(list(violations_to_graph(outcomes)))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_violations_ntriples_matches_reference_on_fixtures(name):
    outcomes = check(load_fixture(name), load_pack(FIXTURES[name]))
    assert violations_ntriples(outcomes) == reference_ntriples(outcomes)


def test_violations_ntriples_matches_reference_on_random_graphs():
    family_ids = sorted(FAMILY_ORACLES)
    severities = list(Severity)
    written = 0
    for case in range(300):
        rng = random.Random(30_000 + case)
        g = random_instance_graph(rng)
        catalog = Catalog(
            {},
            tuple(
                constraint(
                    fid,
                    random_family_params(rng, fid),
                    cid=f"{fid}-{i}",
                    message="{focus} | {path} | {value}",
                    severity=rng.choice(severities),
                )
                for i, fid in enumerate(family_ids)
            ),
        )
        outcomes = check(g, catalog, limit=rng.choice((None, 3)), budget=None)
        got = violations_ntriples(outcomes)
        assert got == reference_ntriples(outcomes), case
        written += bool(got)
    assert written > 200


def test_violations_ntriples_escapes_hostile_messages():
    messages = [
        'quote " inside',
        "back\\slash",
        "line\nbreak and \r return",
        "unit separator \x1f",
        "delete \x7f",
        "C1 control \x80",
        "astral 🙂 𝔘",
        "",
    ]
    focuses = [iri("a"), BlankNode("b0"), BlankNode("v0")]
    values = [None, Literal('say "hi"\n', language="en"), Literal("\x01", XSD_INTEGER), iri("o")]
    violations = tuple(
        Violation(f"T-{i % 3}", Severity(1 + i % 3), focuses[i % 3],
                  iri("p") if i % 2 else None, values[i % 4], message)
        for i, message in enumerate(messages)
    )
    outcomes = [
        CheckOutcome("T-0", VIOLATED, violations[:4], count=4),
        CheckOutcome("T-1", OK),
        CheckOutcome("T-2", TRUNCATED, violations[4:], count=4, limit=4),
    ]
    got = violations_ntriples(outcomes)
    assert got == reference_ntriples(outcomes)
    assert b'\\"' in got and b"\\u001F" in got and b"\\u007F" in got
    assert "\x80".encode("utf-8") in got and "🙂".encode("utf-8") in got


def test_report_nodes_never_merge_with_reported_blank_nodes():
    reported = [BlankNode("v0"), BlankNode("vv1"), BlankNode("b0")]
    violations = tuple(
        Violation("T-0", Severity(1), node, iri("p"), BlankNode("v1"), f"m{i}")
        for i, node in enumerate(reported)
    )
    outcomes = [CheckOutcome("T-0", VIOLATED, violations, count=3)]
    got = violations_ntriples(outcomes)
    assert got == reference_ntriples(outcomes)
    g = violations_to_graph(outcomes)
    report_nodes = {t.subject for t in g.match(None, REPORT_ROOT, None)}
    assert report_nodes == {BlankNode("vvv0"), BlankNode("vvv1"), BlankNode("vvv2")}
    assert len(g) == 6 * len(violations)
    assert {t.object for t in g.match(None, REPORT_ROOT, None)} == set(reported)


def test_report_nodes_keep_the_v_prefix_without_a_clash():
    violation = Violation("T-0", Severity(1), BlankNode("b0"), None, BlankNode("x"), "m")
    outcomes = [CheckOutcome("T-0", VIOLATED, (violation,), count=1)]
    assert violations_ntriples(outcomes).startswith(b"_:v0 ")


@pytest.mark.parametrize("blank", [False, True])
def test_streamed_report_is_in_canonical_order_across_label_widths(blank):
    # 1,350 violations, so labels run from one to four digits, over three
    # constraints and two severities.  Blank focus nodes labelled v0, v1,
    # ... push the report nodes to the vv prefix.
    nodes = [BlankNode(f"v{i}") if blank else iri(f"n{i}") for i in range(450)]
    g = graph(*[(n, RDF_TYPE, iri(c)) for n in nodes for c in ("C", "D")])
    catalog = Catalog({}, (
        constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("C"), "property": iri("p")}, cid="T-1"),
        constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("D"), "property": iri("q")}, cid="T-2",
                   severity=Severity.WARNING),
        constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("C"), "property": iri("r")}, cid="T-3"),
    ))
    outcomes = check(g, catalog, limit=None, budget=None)
    assert sum(o.count for o in outcomes) == 1350
    chunks = list(violation_chunks(outcomes))
    assert len(chunks) > 1
    got = b"".join(chunks)
    assert got == reference_ntriples(outcomes) == violations_ntriples(outcomes)
    lines = got.split(b"\n")
    assert lines.pop() == b""
    assert lines == sorted(set(lines))
    assert len(lines) == 5 * 1350
    prefix = b"_:vv" if blank else b"_:v"
    assert lines[0].startswith(prefix + b"0 ") and lines[-1].startswith(prefix + b"999 ")


# ---------------------------------------------------------------------------
# The report rendered from graph ids against the graph-building reference

# Texts that a plain literal must escape, and braces that a format template
# must not expand.
HOSTILE_TEXTS = ['say "hi"', "back\\slash \\", "line\nbreak\r", "nul \x00 us \x1f del \x7f",
                 "astral 🙂 𝔘", "{focus} {0} {{}} {", "C1 \x80 tab\t"]
HOSTILE_PIECES = MESSAGE_PIECES + HOSTILE_TEXTS + ["{2:>9}", "{1!r}", "{values}", "{pattern}"]


def rendered_from_ids(g, catalog, **kw):
    """The outcomes and ``violations.nt`` bytes of a check that keeps its
    violations as graph ids."""
    report = ViolationReport(g)
    outcomes = check(g, catalog, records=report, **kw)
    return outcomes, b"".join(report.chunks())


def assert_ids_render_like_records(g, catalog, **kw):
    outcomes, got = rendered_from_ids(g, catalog, **kw)
    recorded = check(g, catalog, **kw)
    assert got == serialize_ntriples(violations_to_graph(recorded))
    assert [replace(o, wall_time=0.0) for o in outcomes] == [
        replace(o, violations=(), wall_time=0.0) for o in recorded
    ]
    return got


def hostile_graph(rng):
    """A random instance graph with hostile literal values, and blank nodes
    labelled ``v...`` as foci and values."""
    b = GraphBuilder()
    for t in random_instance_graph(rng):
        b.add(t.subject, t.predicate, t.object)
    blanks = [BlankNode(label) for label in ("v0", "v1", "vv2", "x")]
    literals = [Literal(t) for t in HOSTILE_TEXTS] + [
        Literal(HOSTILE_TEXTS[0], language="en"), Literal(HOSTILE_TEXTS[1], XSD_INTEGER)
    ]
    for node in [*blanks, Iri("urn:ex:n0"), Iri("urn:ex:n1")]:
        b.add(node, RDF_TYPE, rng.choice(CLASSES))
        b.add(node, rng.choice(PROPS), rng.choice(literals))
        b.add(node, rng.choice(PROPS), rng.choice(blanks))
    return b.freeze()


def test_report_from_ids_matches_the_reference_on_hostile_inputs():
    family_ids = sorted(FAMILY_ORACLES)
    prefixes, escapes, written = set(), 0, 0
    for case in range(150):
        rng = random.Random(40_000 + case)
        g = hostile_graph(rng)
        drawn = [(fid, random_family_params(rng, fid)) for fid in family_ids]
        # Hostile parameters: literal values and a pattern with quotes and
        # backslashes, each shown by its message.
        drawn.append(("ALLOWED-VALUES", {"property": rng.choice(PROPS),
                                         "values": (Literal(HOSTILE_TEXTS[2]), Literal(HOSTILE_TEXTS[5]))}))
        drawn.append(("LITERAL-PATTERN-MATCHING", {"property": rng.choice(PROPS), "pattern": '^[^"\\\\]*$'}))
        catalog = Catalog({}, tuple(
            constraint(
                fid,
                params,
                cid=f"{fid}-{i}",
                message="".join(rng.choice(HOSTILE_PIECES) for _ in range(rng.randint(0, 6))),
                severity=rng.choice(list(Severity)),
            )
            for i, (fid, params) in enumerate(drawn)
        ))
        got = assert_ids_render_like_records(g, catalog, limit=rng.choice((None, 2)), budget=None)
        written += bool(got)
        escapes += b"\\u007F" in got
        if got:
            prefixes.add(got.split(b" ", 1)[0].rstrip(b"0123456789"))
    assert written > 140 and escapes > 50
    # Reported blank nodes v0, v1 and vv2 push the report nodes to vv or vvv.
    assert prefixes == {b"_:v", b"_:vv", b"_:vvv"}


def test_report_from_ids_keeps_the_blank_scopes_of_merged_files(tmp_path):
    # Each file has blank nodes labelled v0 and x; merged, each file's are
    # f<i>.b0 and f<i>.b1, so no report node needs a longer prefix.
    nt, ttl = tmp_path / "a.nt.gz", tmp_path / "b.ttl"
    nt.write_bytes(gzip.compress(
        b"_:v0 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:ex:C> .\n"
        b"_:x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:ex:C> .\n"
        b'_:x <urn:ex:q> "two\\nlines" .\n'
    ))
    ttl.write_text('_:v0 a <urn:ex:C> .\n_:x a <urn:ex:C> ; <urn:ex:q> "quote \\" here" .\n', encoding="utf-8")
    g = _read_graphs((str(nt), str(ttl)))
    catalog = Catalog({}, (
        constraint("EXISTENTIAL-QUANTIFICATION", {"class": iri("C"), "property": iri("p")},
                   cid="T-1", message="{focus} has no {path}"),
        constraint("LITERAL-PATTERN-MATCHING", {"property": iri("q"), "pattern": "^x"},
                   cid="T-2", message='"{value}" of {focus}'),
    ))
    got = assert_ids_render_like_records(g, catalog)
    foci = {line.split(b" ")[2] for line in got.splitlines() if REPORT_ROOT.text.encode() in line}
    assert {f.split(b".")[0] for f in foci} == {b"_:f0", b"_:f1"} and len(foci) == 4
    assert got.startswith(b"_:v0 ")


def test_violations_ntriples_of_nothing_is_empty():
    assert violations_ntriples([]) == b""
    assert violations_ntriples([CheckOutcome("T-1", OK)]) == b""
    assert list(violation_chunks([])) == []
    assert reference_ntriples([]) == b""
