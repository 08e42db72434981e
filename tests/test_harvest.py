"""Endpoint harvesting: paging, retries, failure taxonomy, campaigns."""
import gzip
import json
import types

import pytest

import mockserver
from rdfval.catalog import Catalog, FAMILIES, IMPLEMENTED, Severity
from rdfval.catalog import Constraint
from rdfval.graph import GraphBuilder
from rdfval.harvest import (
    COMPLETE,
    PARTIAL,
    UNAVAILABLE,
    Source,
    harvest,
    load_sources,
    profile,
    read_data,
    run_campaign,
)
from rdfval.terms import BlankNode, Iri, Literal, RDF_TYPE, XSD_STRING

EX = "urn:ex:"


def iri(name):
    return Iri(EX + name)


def sample_graph(n=12, bnode=True):
    b = GraphBuilder()
    for i in range(n):
        b.add(iri(f"s{i % 4}"), iri(f"p{i % 3}"), iri(f"o{i}"))
    if bnode:
        b.add(BlankNode("node"), iri("p0"), Literal("x", language="en"))
    else:
        b.add(iri("s5"), iri("p0"), Literal("x", language="en"))
    b.add(iri("s0"), iri("p0"), Literal("5", Iri("http://www.w3.org/2001/XMLSchema#integer")))
    b.add(iri("s0"), iri("p0"), Literal("plain"))
    return b.freeze()


def source(url, **kw):
    defaults = dict(
        abbreviation="src",
        endpoint_url=url,
        vocabulary="custom",
        page_size=10_000,
        timeout=5.0,
        max_retries=0,
    )
    defaults.update(kw)
    return Source(**defaults)


def no_sleep(_seconds):
    raise AssertionError("no retry sleep expected")


def test_load_sources_defaults_and_fields():
    data = json.dumps(
        [
            {"abbreviation": "a", "endpoint-url": "http://h/sparql"},
            {
                "abbreviation": "b",
                "endpoint-url": "https://h2/q",
                "vocabulary": "qb",
                "page-size": 50,
                "timeout": 3,
                "max-retries": 0,
            },
        ]
    )
    a, b = load_sources(data)
    assert a.page_size == 10_000 and a.timeout == 30.0 and a.max_retries == 3
    assert a.vocabulary is None
    assert b.page_size == 50 and b.timeout == 3.0 and b.max_retries == 0


def test_load_sources_reports_every_problem():
    data = json.dumps(
        [
            {"abbreviation": "", "endpoint-url": "http://h/"},
            {"abbreviation": "x", "endpoint-url": "ftp://h/"},
            {"abbreviation": "y", "endpoint-url": "http://h/", "page-size": 0},
            {"abbreviation": "y", "endpoint-url": "http://h/"},
            {"abbreviation": "z", "endpoint-url": "http://h/", "extra": 1},
        ]
    )
    with pytest.raises(ValueError) as err:
        load_sources(data)
    text = str(err.value)
    assert "source #1" in text
    assert "source 'x'" in text
    assert "page-size" in text
    assert "duplicate abbreviation" in text
    assert "'extra'" in text


def test_load_sources_requires_a_json_array():
    with pytest.raises(ValueError):
        load_sources("{}")
    with pytest.raises(ValueError):
        load_sources("not json")


def test_single_page_harvest_is_complete():
    g = sample_graph()
    with mockserver.MockEndpoint(g) as ep:
        result = harvest(source(ep.url), sleep=no_sleep)
    assert result.status == COMPLETE
    assert result.pages_fetched == 1
    assert result.graph == g
    assert result.graph.name == "src"


def test_paging_matches_single_shot():
    g = sample_graph()
    with mockserver.MockEndpoint(g) as ep:
        whole = harvest(source(ep.url), sleep=no_sleep)
        ep.requests.clear()
        paged = harvest(source(ep.url, page_size=7), sleep=no_sleep)
        offsets = [off for _, _, off in ep.requests]
    assert paged.status == COMPLETE
    assert paged.graph == whole.graph
    assert offsets == [0, 7, 14]
    assert paged.pages_fetched == 3


def test_page_size_one():
    g = sample_graph(3)
    with mockserver.MockEndpoint(g) as ep:
        result = harvest(source(ep.url, page_size=1), sleep=no_sleep)
    assert result.status == COMPLETE
    assert result.graph == g
    # One request per triple plus the final empty page.
    assert result.pages_fetched == len(g) + 1


def test_exact_multiple_needs_one_empty_page():
    g = sample_graph()
    n = len(g)
    with mockserver.MockEndpoint(g) as ep:
        result = harvest(source(ep.url, page_size=n), sleep=no_sleep)
    assert result.status == COMPLETE
    assert result.pages_fetched == 2
    assert result.graph == g


def test_first_page_failure_is_unavailable():
    g = sample_graph()
    with mockserver.MockEndpoint(g) as ep:
        ep.fail_offsets.add(0)
        result = harvest(source(ep.url), sleep=no_sleep)
    assert result.status == UNAVAILABLE
    assert result.reason == "HTTP 500"
    assert len(result.graph) == 0
    assert result.pages_fetched == 0


def test_later_page_failure_is_partial():
    g = sample_graph()
    with mockserver.MockEndpoint(g) as ep:
        ep.fail_offsets.add(7)
        result = harvest(source(ep.url, page_size=7), sleep=no_sleep)
    assert result.status == PARTIAL
    assert result.pages_fetched == 1
    assert len(result.graph) == 7
    assert result.reason == "HTTP 500"


def test_unreachable_endpoint_is_unavailable():
    result = harvest(source(mockserver.closed_port_url()), sleep=no_sleep)
    assert result.status == UNAVAILABLE
    assert result.reason.startswith("request failed:")


def test_malformed_payload_is_reported():
    g = sample_graph()
    with mockserver.MockEndpoint(g) as ep:
        ep.malformed_offsets.add(0)
        result = harvest(source(ep.url), sleep=no_sleep)
    assert result.status == UNAVAILABLE
    assert result.reason.startswith("malformed result set:")


def test_literal_subjects_are_rejected_as_malformed():
    g = sample_graph(2)
    with mockserver.MockEndpoint(g) as ep:
        ep.rows = [
            types.SimpleNamespace(
                subject=Literal("bad"), predicate=iri("p"), object=iri("o")
            )
        ]
        result = harvest(source(ep.url), sleep=no_sleep)
    assert result.status == UNAVAILABLE
    assert "well-formed triple" in result.reason


def test_retries_use_exponential_backoff():
    g = sample_graph()
    sleeps = []
    with mockserver.MockEndpoint(g) as ep:
        ep.fail_offsets.add(0)
        result = harvest(source(ep.url, max_retries=3), sleep=sleeps.append)
        attempts = len(ep.requests)
    assert result.status == UNAVAILABLE
    assert attempts == 4
    assert sleeps == [1.0, 2.0, 4.0]


def test_transient_failure_recovers_on_retry():
    g = sample_graph()
    sleeps = []
    with mockserver.MockEndpoint(g) as ep:
        ep.fail_offsets.add(0)

        def heal(seconds):
            sleeps.append(seconds)
            ep.fail_offsets.clear()

        result = harvest(source(ep.url, max_retries=2), sleep=heal)
    assert result.status == COMPLETE
    assert result.graph == g
    assert sleeps == [1.0]


def test_long_urls_switch_to_post():
    g = sample_graph(2)
    with mockserver.MockEndpoint(g) as ep:
        base = ep.url + "?pad=" + "x" * 2048
        result = harvest(source(base), sleep=no_sleep)
        methods = {m for m, _, _ in ep.requests}
    assert result.status == COMPLETE
    assert methods == {"POST"}


def virtuoso_labels(monkeypatch, rename=lambda label: f"nodeID://{label}"):
    plain = mockserver.term_binding

    def binding(term):
        if isinstance(term, BlankNode):
            return {"type": "bnode", "value": rename(term.label)}
        return plain(term)

    monkeypatch.setattr(mockserver, "term_binding", binding)


def test_virtuoso_blank_labels_keep_one_node_across_pages(monkeypatch):
    virtuoso_labels(monkeypatch)
    b = GraphBuilder()
    for i in range(4):
        b.add(iri(f"s{i}"), iri("link"), BlankNode(f"n{i % 2}"))
    for i in range(2):
        b.add(BlankNode(f"n{i}"), iri("label"), Literal(f"node {i}"))
    g = b.freeze()
    with mockserver.MockEndpoint(g) as ep:
        result = harvest(source(ep.url, page_size=4), sleep=no_sleep)
    # Page one holds the links, page two the blank subjects.
    assert result.status == COMPLETE
    assert result.pages_fetched == 2
    assert len(result.graph) == len(g)
    linked = {t.object for t in result.graph.match(None, iri("link"))}
    labelled = {t.subject: t.object for t in result.graph.match(None, iri("label"))}
    assert len(linked) == 2 and set(labelled) == linked
    for i in range(2):
        (node,) = {t.object for t in result.graph.match(iri(f"s{i}"), iri("link"))}
        assert labelled[node] == Literal(f"node {i}")


def test_relabelled_blank_nodes_never_merge_with_kept_labels(monkeypatch):
    # "nodeID://b0" is seen first and takes b0; the legal label "b0" must
    # then become another node rather than merge with it.
    virtuoso_labels(monkeypatch, lambda label: "nodeID://b0" if label == "a" else label)
    b = GraphBuilder()
    b.add(BlankNode("a"), iri("p"), iri("o1"))
    b.add(BlankNode("b0"), iri("p"), iri("o2"))
    g = b.freeze()
    with mockserver.MockEndpoint(g) as ep:
        result = harvest(source(ep.url), sleep=no_sleep)
    assert result.status == COMPLETE
    assert len({t.subject for t in result.graph}) == 2


def test_campaign_completes_a_virtuoso_source(tmp_path, monkeypatch):
    virtuoso_labels(monkeypatch)
    g = sample_graph()
    with mockserver.MockEndpoint(g) as ep:
        (run,) = run_campaign([source(ep.url, page_size=7)], tmp_path, **campaign_kw())
    assert run.status == COMPLETE
    assert run.triples == len(g)
    assert len(read_data(tmp_path / "src" / "data.nt.gz")) == len(g)
    prof = json.loads((tmp_path / "src" / "profile.json").read_text())
    assert prof["blank-nodes"] == 1


def test_profile_counts_per_class():
    b = GraphBuilder()
    b.add(iri("a"), RDF_TYPE, iri("C"))
    b.add(iri("b"), RDF_TYPE, iri("C"))
    b.add(iri("c"), RDF_TYPE, iri("D"))
    g = b.freeze()
    assert profile(g, (iri("C"), iri("D"), iri("E"))) == (2, 1, 0)


def tiny_catalog():
    c = Constraint(
        id="T-1",
        vocabulary="user-defined",
        family=FAMILIES["PROPERTY-DOMAIN"],
        params={"property": iri("p0"), "class": iri("C")},
        severity=Severity.ERROR,
        status=IMPLEMENTED,
        message="{focus}",
        expressivity=frozenset(("sparql",)),
    )
    return Catalog({}, (c,))


def campaign_kw(**kw):
    base = dict(catalogs={"custom": tiny_catalog()}, concurrency=1, sleep=no_sleep)
    base.update(kw)
    return base


def test_campaign_persists_data_profile_and_outcomes(tmp_path):
    g = sample_graph(bnode=False)
    with mockserver.MockEndpoint(g) as ep:
        runs = run_campaign([source(ep.url)], tmp_path, **campaign_kw())
    (run,) = runs
    assert run.status == COMPLETE
    assert not run.from_cache
    sdir = tmp_path / "src"
    assert read_data(sdir / "data.nt.gz") == g
    prof = json.loads((sdir / "profile.json").read_text())
    assert prof["status"] == COMPLETE
    assert prof["triples"] == len(g)
    doc = json.loads((sdir / "outcomes.json").read_text())
    assert doc["source"] == "src"
    assert doc["pack"] == "custom"
    assert doc["harvest-status"] == COMPLETE
    assert [o["constraint-id"] for o in doc["outcomes"]] == ["T-1"]


def test_campaign_data_files_are_byte_stable(tmp_path):
    g = sample_graph()
    with mockserver.MockEndpoint(g) as ep:
        run_campaign([source(ep.url)], tmp_path / "a", **campaign_kw())
        run_campaign([source(ep.url)], tmp_path / "b", **campaign_kw())
    first = (tmp_path / "a" / "src" / "data.nt.gz").read_bytes()
    second = (tmp_path / "b" / "src" / "data.nt.gz").read_bytes()
    assert first == second
    # The gzip header names the stored file, not a temporary one.
    assert first[10:18] == b"data.nt\x00"
    with gzip.open(tmp_path / "a" / "src" / "data.nt.gz") as z:
        assert z.read().endswith(b".\n")


def test_campaign_skips_stored_complete_sources(tmp_path):
    g = sample_graph()
    with mockserver.MockEndpoint(g) as ep:
        run_campaign([source(ep.url)], tmp_path, **campaign_kw())
        before = len(ep.requests)
        runs = run_campaign([source(ep.url)], tmp_path, **campaign_kw())
        after = len(ep.requests)
    (run,) = runs
    assert run.from_cache
    assert after == before
    assert [o.constraint_id for o in run.outcomes] == ["T-1"]


def test_campaign_checks_stored_data_when_outcomes_are_missing(tmp_path):
    g = sample_graph()
    with mockserver.MockEndpoint(g) as ep:
        run_campaign([source(ep.url)], tmp_path, **campaign_kw(do_check=False))
        assert not (tmp_path / "src" / "outcomes.json").exists()
        before = len(ep.requests)
        runs = run_campaign([source(ep.url)], tmp_path, **campaign_kw())
        assert len(ep.requests) == before
    (run,) = runs
    assert run.from_cache
    assert (tmp_path / "src" / "outcomes.json").exists()
    assert [o.constraint_id for o in run.outcomes] == ["T-1"]


def test_campaign_refetches_a_source_whose_profile_is_torn(tmp_path):
    g = sample_graph()
    sdir = tmp_path / "src"
    with mockserver.MockEndpoint(g) as ep:
        run_campaign([source(ep.url)], tmp_path, **campaign_kw())
        before = len(ep.requests)
        (sdir / "profile.json").write_bytes((sdir / "profile.json").read_bytes()[:20])
        (run,) = run_campaign([source(ep.url)], tmp_path, **campaign_kw())
        assert len(ep.requests) > before
    assert run.status == COMPLETE
    assert not run.from_cache
    assert json.loads((sdir / "profile.json").read_text())["status"] == COMPLETE
    assert sorted(p.name for p in sdir.iterdir()) == ["data.nt.gz", "outcomes.json", "profile.json"]


def test_campaign_recomputes_torn_outcomes_without_a_request(tmp_path):
    g = sample_graph()
    sdir = tmp_path / "src"
    with mockserver.MockEndpoint(g) as ep:
        run_campaign([source(ep.url)], tmp_path, **campaign_kw())
        before = len(ep.requests)
        (sdir / "outcomes.json").write_bytes((sdir / "outcomes.json").read_bytes()[:20])
        (run,) = run_campaign([source(ep.url)], tmp_path, **campaign_kw())
        assert len(ep.requests) == before
    assert run.from_cache
    assert [o.constraint_id for o in run.outcomes] == ["T-1"]
    doc = json.loads((sdir / "outcomes.json").read_text())
    assert [o["constraint-id"] for o in doc["outcomes"]] == ["T-1"]


def test_campaign_refetches_a_source_whose_stored_data_is_torn(tmp_path):
    g = sample_graph()
    sdir = tmp_path / "src"
    with mockserver.MockEndpoint(g) as ep:
        run_campaign([source(ep.url)], tmp_path, **campaign_kw())
        stored = (sdir / "data.nt.gz").read_bytes()
        before = len(ep.requests)
        (sdir / "data.nt.gz").write_bytes(stored[:20])
        (sdir / "outcomes.json").unlink()
        (run,) = run_campaign([source(ep.url)], tmp_path, **campaign_kw())
        assert len(ep.requests) > before
    assert run.status == COMPLETE
    assert not run.from_cache
    assert [o.constraint_id for o in run.outcomes] == ["T-1"]
    assert (sdir / "data.nt.gz").read_bytes() == stored
    assert sorted(p.name for p in sdir.iterdir()) == ["data.nt.gz", "outcomes.json", "profile.json"]


def test_campaign_marks_partial_sources_incomplete(tmp_path):
    g = sample_graph()
    with mockserver.MockEndpoint(g) as ep:
        ep.fail_offsets.add(7)
        runs = run_campaign(
            [source(ep.url, page_size=7)], tmp_path, **campaign_kw()
        )
    (run,) = runs
    assert run.status == PARTIAL
    assert all(o.status == "source-incomplete" for o in run.outcomes)
    assert all(o.parts_missing == 1 for o in run.outcomes)
    doc = json.loads((tmp_path / "src" / "outcomes.json").read_text())
    assert doc["harvest-status"] == PARTIAL


def test_campaign_records_unavailable_sources(tmp_path):
    runs = run_campaign(
        [source(mockserver.closed_port_url())], tmp_path, **campaign_kw()
    )
    (run,) = runs
    assert run.status == UNAVAILABLE
    assert run.outcomes == ()
    doc = json.loads((tmp_path / "src" / "outcomes.json").read_text())
    assert doc["harvest-status"] == UNAVAILABLE
    assert doc["outcomes"] == []


def test_campaign_requires_vocabulary_for_checking(tmp_path):
    with pytest.raises(ValueError) as err:
        run_campaign(
            [source("http://h/sparql", vocabulary=None)], tmp_path, **campaign_kw()
        )
    assert "src" in str(err.value)


def test_campaign_concurrency_preserves_order(tmp_path):
    g = sample_graph()
    with mockserver.MockEndpoint(g) as ep:
        sources = [
            source(ep.url, abbreviation="one"),
            source(ep.url, abbreviation="two"),
            source(ep.url, abbreviation="three"),
        ]
        runs = run_campaign(
            sources, tmp_path, **campaign_kw(concurrency=3)
        )
    assert [r.source.abbreviation for r in runs] == ["one", "two", "three"]
    assert all(r.status == COMPLETE for r in runs)


def test_campaign_after_a_complete_harvest_checks_the_complete_data(tmp_path):
    # A partial run, then a harvest that completes the source: the next
    # campaign must check the complete data, not serve the partial outcomes.
    g = sample_graph()
    with mockserver.MockEndpoint(g) as ep:
        ep.fail_offsets.add(7)
        (first,) = run_campaign([source(ep.url, page_size=7)], tmp_path, **campaign_kw())
        ep.fail_offsets.clear()
        run_campaign([source(ep.url, page_size=7)], tmp_path, **campaign_kw(do_check=False))
        before = len(ep.requests)
        (run,) = run_campaign([source(ep.url, page_size=7)], tmp_path, **campaign_kw())
        assert len(ep.requests) == before
    assert first.status == PARTIAL
    assert run.status == COMPLETE and run.triples == len(g)
    assert [o.status for o in run.outcomes] == ["violated"]
    doc = json.loads((tmp_path / "src" / "outcomes.json").read_text())
    assert doc["harvest-status"] == COMPLETE
    assert [o["status"] for o in doc["outcomes"]] == ["violated"]


def test_a_source_that_raises_does_not_stop_the_others(tmp_path):
    (tmp_path / "a").write_text("not a directory")
    g = sample_graph()
    with mockserver.MockEndpoint(g) as ep:
        a, b = run_campaign(
            [source(ep.url, abbreviation="a"), source(ep.url, abbreviation="b")],
            tmp_path,
            **campaign_kw(),
        )
    assert a.status == UNAVAILABLE
    assert str(tmp_path / "a") in a.reason
    assert (a.pages_fetched, a.triples, a.outcomes) == (0, 0, ())
    assert (tmp_path / "a").read_text() == "not a directory"
    assert b.status == COMPLETE
    assert [o.constraint_id for o in b.outcomes] == ["T-1"]
    assert (tmp_path / "b" / "outcomes.json").exists()


def test_a_lone_surrogate_makes_a_malformed_page(tmp_path):
    # JSON may escape an unpaired surrogate; no RDF term holds one.
    g = sample_graph(2)
    lone = types.SimpleNamespace(lexical="a\ud800b", language=None, datatype=XSD_STRING)
    sleeps = []
    with mockserver.MockEndpoint(g) as bad, mockserver.MockEndpoint(g) as good:
        bad.rows = [types.SimpleNamespace(subject=iri("s"), predicate=iri("p"), object=lone)]
        bad_run, good_run = run_campaign(
            [source(bad.url, abbreviation="bad", max_retries=1),
             source(good.url, abbreviation="good")],
            tmp_path,
            **campaign_kw(sleep=sleeps.append),
        )
        attempts = len(bad.requests)
    assert bad_run.status == UNAVAILABLE
    assert bad_run.reason.startswith("malformed result set:")
    assert "surrogate" in bad_run.reason
    assert attempts == 2 and sleeps == [1.0]
    assert good_run.status == COMPLETE
