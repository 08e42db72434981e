"""Whole-system checks with timing bounds.

Each test here covers one externally visible guarantee end to end and
asserts a wall-clock ceiling, so a slow regression fails loudly.
"""
import random
import time
from dataclasses import replace

from mockserver import MockEndpoint, closed_port_url
from oracles import (
    FAMILY_ORACLES,
    GraphFacts,
    family_violations,
    graphs_bijection_equal,
    naive_evaluate,
    random_family_params,
    random_instance_graph,
    random_pattern,
    random_serializable_graph,
    rows_equal,
)
from rdfval.catalog import (
    CLASSIFICATION_KEYS,
    Catalog,
    Constraint,
    FAMILIES,
    IMPLEMENTED,
    NOT_IMPLEMENTED,
    Severity,
    classify,
    merge_catalogs,
)
from rdfval.checker import check
from rdfval.graph import GraphBuilder
from rdfval.harvest import Source, harvest, profile
from rdfval.ntriples import parse_ntriples, serialize_ntriples
from rdfval.packs import PACKS, PROFILE_CLASSES, load_fixture, load_pack
from rdfval.query import evaluate, plan, run_plan
from rdfval.report import cell_text
from rdfval.terms import Iri, Literal, RDF_TYPE, XSD_DATE, XSD_INTEGER, XSD_STRING

PERCENT_REFERENCE = {
    "DDI-RDF": ("29.5", "64.1", "66.7", "56.4", "11.5", "32.1"),
    "QB": ("60.0", "40.0", "40.0", "0.0", "15.0", "85.0"),
    "SKOS": ("100.0", "0.0", "0.0", "70.6", "29.4", "0.0"),
}
PERCENT_TOTAL = ("63.2", "34.7", "35.6", "42.3", "18.7", "39.0")


def test_classification_matches_reference_percentages():
    started = time.perf_counter()
    merged = merge_catalogs(load_pack(name) for name in PACKS)
    summary = classify(merged)
    cells = {
        vocab: tuple(
            summary.per_vocabulary[vocab].percentage(key) for key in CLASSIFICATION_KEYS
        )
        for vocab in PERCENT_REFERENCE
    }
    totals = tuple(summary.total_percentage(key) for key in CLASSIFICATION_KEYS)
    elapsed = time.perf_counter() - started
    assert cells == PERCENT_REFERENCE
    assert totals == PERCENT_TOTAL
    assert elapsed < 1.0


def test_packs_load_expected_constraint_counts():
    started = time.perf_counter()
    sizes = {}
    for name in PACKS:
        catalog = load_pack(name)
        implemented = sum(1 for c in catalog if c.status == IMPLEMENTED)
        missing = sum(1 for c in catalog if c.status == NOT_IMPLEMENTED)
        sizes[name] = (implemented, missing)
    elapsed = time.perf_counter() - started
    assert sizes == {"ddi-rdf": (78, 64), "qb": (20, 15), "skos": (17, 18)}
    assert sum(v[0] for v in sizes.values()) == 115
    assert elapsed < 1.0


def test_archive_fixture_findings_and_profile():
    started = time.perf_counter()
    graph = load_fixture("study-archive")
    catalog = load_pack("ddi-rdf")
    outcomes = {o.constraint_id: o for o in check(graph, catalog)}
    shape = profile(graph, PROFILE_CLASSES["ddi-rdf"])
    elapsed = time.perf_counter() - started
    quantified = outcomes["DISCO-C-EXISTENTIAL-QUANTIFICATIONS-08"]
    assert quantified.status == "violated"
    assert quantified.count == 45
    assert shape == (6, 45, 159, 1125)
    assert elapsed < 5.0


def test_checker_families_agree_with_bruteforce_oracle():
    family_ids = sorted(FAMILY_ORACLES)
    started = time.perf_counter()
    mismatches = []
    for case in range(500):
        rng = random.Random(10_000 + case)
        graph = random_instance_graph(rng)
        facts = GraphFacts(graph)
        drawn = [(fid, random_family_params(rng, fid)) for fid in family_ids]
        catalog = Catalog(
            {},
            tuple(
                Constraint(
                    id=fid,
                    vocabulary="user-defined",
                    family=FAMILIES[fid],
                    params=params,
                    severity=Severity.ERROR,
                    status=IMPLEMENTED,
                    message="{focus}",
                    expressivity=frozenset(("sparql",)),
                )
                for fid, params in drawn
            ),
        )
        outcomes = check(graph, catalog, limit=None, budget=None)
        for (fid, params), outcome in zip(drawn, outcomes):
            assert outcome.status in ("ok", "violated"), (case, fid, outcome)
            got = {(v.focus, v.path, v.value) for v in outcome.violations}
            want = family_violations(facts, fid, params)
            if got != want or outcome.count != len(want):
                mismatches.append((case, fid, params))
    elapsed = time.perf_counter() - started
    assert mismatches == []
    assert elapsed < 120.0


def family_catalog(drawn) -> Catalog:
    """One constraint per drawn (family id, params), named by its family."""
    return Catalog(
        {},
        tuple(
            Constraint(
                id=fid,
                vocabulary="user-defined",
                family=FAMILIES[fid],
                params=params,
                severity=Severity.ERROR,
                status=IMPLEMENTED,
                message="{focus}",
                expressivity=frozenset(("sparql",)),
            )
            for fid, params in drawn
        ),
    )


def display(term) -> str:
    if term is None:
        return ""
    if isinstance(term, Iri):
        return term.text
    return term.lexical if isinstance(term, Literal) else f"_:{term.label}"


def report_order(v) -> tuple:
    """The documented order of violations: by focus, path and value text,
    with the kind of focus and value breaking ties."""
    value_kind = "" if v.value is None else type(v.value).__name__
    return display(v.focus), type(v.focus).__name__, display(v.path), display(v.value), value_kind


def test_limited_checks_keep_limit_violations_from_the_oracle_set():
    family_ids = sorted(FAMILY_ORACLES)
    started = time.perf_counter()
    truncations = 0
    for case in range(150):
        rng = random.Random(30_000 + case)
        graph = random_instance_graph(rng)
        facts = GraphFacts(graph)
        drawn = [(fid, random_family_params(rng, fid)) for fid in family_ids]
        catalog = family_catalog(drawn)
        wanted = [family_violations(facts, fid, params) for fid, params in drawn]
        unlimited = check(graph, catalog, limit=None, budget=None)
        for k in (1, 2, 3, None):
            limited = unlimited if k is None else check(graph, catalog, limit=k, budget=None)
            # A count-only check is the records check without its records.
            counted = check(graph, catalog, limit=k, budget=None, records=False)
            for (fid, _), outcome, count_only in zip(drawn, limited, counted):
                assert replace(count_only, wall_time=0.0) == replace(
                    outcome, violations=(), wall_time=0.0
                ), (case, fid, k)
            if k is None:
                continue
            for (fid, _), want, whole, outcome in zip(drawn, wanted, unlimited, limited):
                where = (case, fid, k)
                assert (outcome.status == "truncated") == (len(want) > k), where
                if outcome.status != "truncated":
                    assert replace(outcome, wall_time=0.0) == replace(whole, wall_time=0.0), where
                    continue
                truncations += 1
                kept = [(v.focus, v.path, v.value) for v in outcome.violations]
                assert outcome.count == outcome.limit == len(set(kept)) == len(kept) == k, where
                assert set(kept) <= want, where
                order = [report_order(v) for v in outcome.violations]
                assert order == sorted(order), where
    elapsed = time.perf_counter() - started
    assert truncations > 1000
    assert elapsed < 120.0


def test_query_engine_agrees_with_naive_enumeration():
    started = time.perf_counter()
    mismatches = []
    for case in range(1000):
        rng = random.Random(20_000 + case)
        graph = random_instance_graph(rng)
        pattern = random_pattern(rng, graph)
        want = naive_evaluate(graph, pattern)
        direct = list(evaluate(graph, pattern))
        compiled = plan(pattern)
        # Row values are ids, except a Count's literal.
        planned = [
            {v: graph.term(x) if isinstance(x, int) else x for v, x in zip(compiled.columns, row)}
            for row in run_plan(graph, compiled)
        ]
        if not rows_equal(want, direct) or not rows_equal(want, planned):
            mismatches.append(case)
    elapsed = time.perf_counter() - started
    assert mismatches == []
    assert elapsed < 120.0


def test_cells_for_limits_budgets_and_gaps():
    started = time.perf_counter()
    builder = GraphBuilder()
    for i in range(8):
        builder.add(Iri(f"urn:ex:e{i}"), RDF_TYPE, Iri("urn:ex:C"))
    graph = builder.freeze()

    def one(cid, status=IMPLEMENTED):
        return Catalog(
            {},
            (
                Constraint(
                    id=cid,
                    vocabulary="user-defined",
                    family=FAMILIES["EXISTENTIAL-QUANTIFICATION"],
                    params={"class": Iri("urn:ex:C"), "property": Iri("urn:ex:p")},
                    severity=Severity.ERROR,
                    status=status,
                    message="{focus}",
                    expressivity=frozenset(("sparql",)),
                ),
            ),
        )

    truncated = check(graph, one("T-1"), limit=5)[0]
    assert truncated.status == "truncated"
    assert cell_text(truncated, thousands=False) == ">5"

    exhausted = check(graph, one("B-1"), budget=0.0)[0]
    assert exhausted.status == "engine-failure"
    assert cell_text(exhausted, thousands=False) == "✗"

    skipped = check(graph, one("N-1", status=NOT_IMPLEMENTED))[0]
    assert skipped.status == "not-implemented"
    assert cell_text(skipped, thousands=False) == "(!)"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0


def test_paged_harvest_equivalence_and_failures():
    started = time.perf_counter()
    builder = GraphBuilder()
    for i in range(23):
        builder.add(Iri(f"urn:ex:s{i}"), Iri("urn:ex:p"), Literal(f"v{i}"))
    graph = builder.freeze()

    def src(url, page_size):
        return Source("probe", url, page_size=page_size, max_retries=0)

    results = {}
    with MockEndpoint(graph) as endpoint:
        for page_size in (1, 7, 10_000):
            results[page_size] = harvest(src(endpoint.url, page_size))
    single = results[10_000]
    assert single.status == "complete"
    assert single.pages_fetched == 1
    for page_size in (1, 7):
        assert results[page_size].status == "complete"
        assert results[page_size].graph == single.graph

    with MockEndpoint(graph) as endpoint:
        endpoint.fail_offsets.add(7)
        partial = harvest(src(endpoint.url, 7))
    assert partial.status == "partial"
    assert partial.pages_fetched == 1
    assert len(partial.graph) == 7

    unavailable = harvest(src(closed_port_url(), 7))
    assert unavailable.status == "unavailable"
    assert unavailable.pages_fetched == 0
    assert len(unavailable.graph) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0


def test_ntriples_round_trip_is_stable():
    started = time.perf_counter()
    for case in range(1000):
        rng = random.Random(30_000 + case)
        original = random_serializable_graph(rng)
        once = parse_ntriples(serialize_ntriples(original))
        twice = parse_ntriples(serialize_ntriples(once))
        assert graphs_bijection_equal(original, once), case
        assert graphs_bijection_equal(once, twice), case
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0


def build_wide_graph(entities=100_000):
    classes = [Iri(f"urn:perf:C{k}") for k in range(4)]
    props = [Iri(f"urn:perf:p{k}") for k in range(8)]
    nodes = [Iri(f"urn:perf:e{i}") for i in range(entities)]
    values = [Iri(f"urn:perf:v{k}") for k in range(50)]
    codes = [Literal(f"AB{k}") for k in range(5000)]
    ints = [Literal(str(k), XSD_INTEGER) for k in range(1000)]
    date = Literal("2020-01-15", XSD_DATE)
    builder = GraphBuilder()
    for v in values:
        builder.add(v, RDF_TYPE, classes[0])
    for i, node in enumerate(nodes):
        builder.add(node, RDF_TYPE, classes[i % 4])
        builder.add(node, props[0], Literal(f"v{i}"))
        builder.add(node, props[1], nodes[(7 * i + 1) % entities])
        builder.add(node, props[1], nodes[(13 * i + 5) % entities])
        builder.add(node, props[2], ints[i % 1000])
        builder.add(node, props[3], Literal(f"name {i}", language="en"))
        builder.add(node, props[4], values[i % 50])
        builder.add(node, props[5], nodes[(i + 1) % entities])
        builder.add(node, props[6], codes[i % 5000])
        builder.add(node, props[7], date)
    return builder.freeze(name="wide"), classes, props


def wide_catalog(classes, props):
    rows = [
        ("EXISTENTIAL-QUANTIFICATION", {"class": classes[0], "property": props[0]}),
        (
            "CONDITIONAL-PROPERTY",
            {"class": classes[1], "if-property": props[0], "then-property": props[2]},
        ),
        (
            "MIN-QUALIFIED-CARDINALITY",
            {"class": classes[0], "property": props[1], "bound": 1, "value-class": classes[0]},
        ),
        (
            "MAX-QUALIFIED-CARDINALITY",
            {"class": classes[1], "property": props[1], "bound": 2, "value-class": classes[2]},
        ),
        (
            "EXACT-UNQUALIFIED-CARDINALITY",
            {"class": classes[2], "property": props[2], "bound": 1},
        ),
        (
            "MIN-UNQUALIFIED-CARDINALITY",
            {"class": classes[3], "property": props[1], "bound": 2},
        ),
        (
            "MAX-UNQUALIFIED-CARDINALITY",
            {"class": classes[0], "property": props[1], "bound": 3},
        ),
        (
            "UNIVERSAL-QUANTIFICATION",
            {"class": classes[0], "property": props[5], "value-class": classes[1]},
        ),
        (
            "CLASS-SPECIFIC-PROPERTY-RANGE",
            {"class": classes[1], "property": props[5], "value-class": classes[2]},
        ),
        ("VALUE-IS-VALID-FOR-DATATYPE", {"property": props[2], "datatype": XSD_INTEGER}),
        (
            "LITERAL-RANGE",
            {"property": props[2], "min-inclusive": 0, "max-inclusive": 999},
        ),
        (
            "LITERAL-VALUE-COMPARISON",
            {"class": classes[3], "property": props[2], "other-property": props[2]},
        ),
        ("DATA-PROPERTY-FACETS", {"property": props[6], "datatype": XSD_STRING}),
        ("LITERAL-PATTERN-MATCHING", {"property": props[6], "pattern": "^AB"}),
        ("IRI-PATTERN-MATCHING", {"property": props[4], "pattern": "^urn:perf:v"}),
        ("INVERSE-FUNCTIONAL-PROPERTY", {"property": props[0]}),
        ("PROPERTY-DOMAIN", {"property": props[3], "class": classes[0]}),
        ("PROPERTY-RANGE", {"property": props[4], "class": classes[0]}),
        ("STRUCTURE-ACYCLICITY", {"property": props[5], "max-depth": 10}),
        (
            "LANGUAGE-TAG-CARDINALITY",
            {"class": classes[2], "property": props[3], "max-per-language": 1},
        ),
    ]
    return Catalog(
        {},
        tuple(
            Constraint(
                id=f"PERF-{n:02d}",
                vocabulary="user-defined",
                family=FAMILIES[fid],
                params=params,
                severity=Severity.ERROR,
                status=IMPLEMENTED,
                message="{focus}",
                expressivity=frozenset(("sparql",)),
            )
            for n, (fid, params) in enumerate(rows, start=1)
        ),
    )


def test_million_triple_check_under_a_minute():
    graph, classes, props = build_wide_graph()
    assert len(graph) >= 1_000_000
    catalog = wide_catalog(classes, props)
    assert len(catalog) == 20
    started = time.perf_counter()
    outcomes = check(graph, catalog)
    elapsed = time.perf_counter() - started
    statuses = {o.status for o in outcomes}
    assert statuses <= {"ok", "violated", "truncated"}
    assert len(outcomes) == 20
    assert elapsed < 60.0
