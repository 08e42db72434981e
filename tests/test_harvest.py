"""Endpoint harvesting: paging, retries, failure taxonomy, campaigns."""
import gzip
import json
import math
import types
from dataclasses import replace
from urllib.parse import urlencode

import pytest

import mockserver
from rdfval import checker
from rdfval.catalog import Catalog, FAMILIES, IMPLEMENTED, Severity
from rdfval.catalog import Constraint
from rdfval.graph import GraphBuilder
from rdfval.harvest import (
    COMPLETE,
    PARTIAL,
    UNAVAILABLE,
    Source,
    _EndpointBlanks,
    _page_query,
    _parse_rows,
    harvest,
    load_sources,
    profile,
    read_data,
    run_campaign,
    write_atomic,
)
from rdfval.ntriples import parse_ntriples, serialize_ntriples
from rdfval.packs import load_fixture, load_pack
from rdfval.terms import BlankNode, Iri, Literal, RDF_TYPE, XSD_INTEGER, XSD_STRING

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
            {"abbreviation": "n", "endpoint-url": "http://h/", "timeout": math.nan},
            {"abbreviation": "i", "endpoint-url": "http://h/", "timeout": math.inf},
            {"abbreviation": ".", "endpoint-url": "http://h/"},
            {"abbreviation": "..", "endpoint-url": "http://h/"},
            {"abbreviation": "x/y", "endpoint-url": "http://h/"},
            {"abbreviation": "x\\y", "endpoint-url": "http://h/"},
            {"abbreviation": "x\u0000y", "endpoint-url": "http://h/"},
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
    assert "source 'n': timeout must be a finite positive number" in text
    assert "source 'i': timeout must be a finite positive number" in text
    # Each abbreviation names a directory under the campaign's output.
    for abbr in (".", "..", "x/y", "x\\y", "x\0y"):
        assert f"source {abbr!r}: abbreviation must be one path component" in text


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


def test_a_huge_malformed_iri_makes_a_short_reason(monkeypatch):
    bad = object()
    plain = mockserver.term_binding
    monkeypatch.setattr(
        mockserver, "term_binding", lambda t: {"type": "uri", "value": "x" * 500_000} if t is bad else plain(t)
    )
    with mockserver.MockEndpoint(sample_graph()) as ep:
        ep.rows = [types.SimpleNamespace(subject=iri("s"), predicate=iri("p"), object=bad)]
        result = harvest(source(ep.url), sleep=no_sleep)
    assert result.status == UNAVAILABLE
    assert result.reason.startswith("malformed result set: not an absolute IRI (missing scheme)")
    assert len(result.reason) < 300


def test_deeply_nested_later_page_is_malformed_and_retried():
    # json.loads raises RecursionError, not a ValueError, on such a page.
    g = sample_graph()
    sleeps = []
    with mockserver.MockEndpoint(g) as ep:
        ep.malformed_offsets.add(7)
        ep.malformed_body = b"[" * 200_000
        result = harvest(source(ep.url, page_size=7, max_retries=1), sleep=sleeps.append)
        offsets = [offset for _, _, offset in ep.requests]
    assert result.status == PARTIAL
    assert result.reason.startswith("malformed result set:")
    assert result.pages_fetched == 1
    assert len(result.graph) == 7
    assert offsets == [0, 7, 7] and sleeps == [1.0]


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


def test_an_endpoint_url_keeps_its_query_string_on_get():
    g = sample_graph(2)
    with mockserver.MockEndpoint(g) as ep:
        # The mock serves any path; a space and a non-ASCII path are sent
        # percent-encoded.
        for url in (ep.url + "?key=v", ep.url + "?key=a b", ep.url + "/spärql?key=v"):
            ep.requests.clear()
            result = harvest(source(url), sleep=no_sleep)
            assert result.status == COMPLETE, (url, result.reason)
            assert len(result.graph) == len(g)
            assert [m for m, _, _ in ep.requests] == ["GET"]


def test_get_up_to_2048_bytes_of_url_then_post():
    g = sample_graph(2)
    query = urlencode({"query": _page_query(10_000, 0)})
    with mockserver.MockEndpoint(g) as ep:
        pad = 2048 - len(ep.url + "?pad=&" + query)
        for extra, method in ((0, "GET"), (1, "POST")):
            ep.requests.clear()
            base = ep.url + "?pad=" + "x" * (pad + extra)
            result = harvest(source(base), sleep=no_sleep)
            assert result.status == COMPLETE
            assert [m for m, _, _ in ep.requests] == [method]


def test_gzip_encoded_pages_are_decoded():
    g = sample_graph(12)
    with mockserver.MockEndpoint(g) as ep:
        ep.gzip = True
        result = harvest(source(ep.url, page_size=5), sleep=no_sleep)
        offsets = [offset for _, _, offset in ep.requests]
        gzipped = list(ep.gzipped)
    assert result.status == COMPLETE
    assert set(result.graph) == set(g)
    assert gzipped == offsets == [0, 5, 10, 15]


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


def test_campaign_rerun_checks_stored_data_at_its_own_limit(tmp_path):
    def summary(run):
        return [(o.constraint_id, o.status, o.count) for o in run.outcomes]

    with mockserver.MockEndpoint(load_fixture("cube-gaps")) as ep:
        src = source(ep.url, vocabulary="qb")
        run_campaign([src], tmp_path, **campaign_kw(catalogs=None, limit=1000))
        before = len(ep.requests)
        (rerun,) = run_campaign([src], tmp_path, **campaign_kw(catalogs=None, limit=1))
        assert len(ep.requests) == before
        (fresh,) = run_campaign([src], tmp_path / "fresh", **campaign_kw(catalogs=None, limit=1))
    assert rerun.from_cache and not fresh.from_cache
    assert ("QB-C-DATA-MODEL-CONSISTENCY-01", "truncated", 1) in summary(rerun)
    assert summary(rerun) == summary(fresh)
    stored = (tmp_path / "src" / "outcomes.json").read_bytes()
    assert stored == (tmp_path / "fresh" / "src" / "outcomes.json").read_bytes()


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
    # Torn by a crash, or nested too deeply to parse.
    tears = (lambda stored: stored[:20], lambda stored: b"[" * 100_000 + b"]" * 100_000)
    for i, tear in enumerate(tears):
        out = tmp_path / str(i)
        sdir = out / "src"
        with mockserver.MockEndpoint(g) as ep:
            run_campaign([source(ep.url)], out, **campaign_kw())
            before = len(ep.requests)
            (sdir / "profile.json").write_bytes(tear((sdir / "profile.json").read_bytes()))
            (run,) = run_campaign([source(ep.url)], out, **campaign_kw())
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


def test_campaign_builds_no_violation_records(tmp_path, monkeypatch):
    built = []
    record = checker.Violation

    def counted(*args):
        built.append(args[0])
        return record(*args)

    monkeypatch.setattr(checker, "Violation", counted)
    g = load_fixture("study-archive")
    recorded = checker.check(g, load_pack("ddi-rdf"))
    assert len(built) == sum(len(o.violations) for o in recorded) > 1000
    built.clear()
    with mockserver.MockEndpoint(g) as ep:
        src = source(ep.url, vocabulary="ddi-rdf", page_size=500)
        (fetched,) = run_campaign([src], tmp_path, **campaign_kw(catalogs=None))
        (stored,) = run_campaign([src], tmp_path, **campaign_kw(catalogs=None))
    assert built == []
    assert fetched.status == COMPLETE and stored.from_cache
    # The same statuses and counts as the records check, with no records.
    want = [replace(o, violations=(), wall_time=0.0) for o in recorded]
    for run in (fetched, stored):
        assert [replace(o, wall_time=0.0) for o in run.outcomes] == want


@pytest.mark.parametrize(
    "fields",
    [{"value": 5}, {"value": None}, {"value": "x", "xml:lang": 5}, {"value": "x", "datatype": ["a"]}],
)
def test_a_literal_field_that_is_no_string_makes_a_malformed_page(tmp_path, monkeypatch, fields):
    bad = object()
    plain = mockserver.term_binding
    monkeypatch.setattr(
        mockserver, "term_binding", lambda t: {"type": "literal", **fields} if t is bad else plain(t)
    )
    g = sample_graph()
    with mockserver.MockEndpoint(g) as ep:
        ep.rows = ep.rows[:14] + [types.SimpleNamespace(subject=iri("s"), predicate=iri("p"), object=bad)]
        (run,) = run_campaign([source(ep.url, page_size=7)], tmp_path, **campaign_kw())
    # The first two pages are kept; the third is the malformed one.
    assert run.status == PARTIAL
    assert (run.pages_fetched, run.triples) == (2, 14)
    assert run.reason == "malformed result set: literal value, xml:lang and datatype must be strings"
    assert all(o.status == "source-incomplete" for o in run.outcomes)


def page(*rows) -> bytes:
    bindings = [dict(zip("spo", row)) for row in rows]
    return json.dumps({"head": {"vars": ["s", "p", "o"]}, "results": {"bindings": bindings}}).encode()


def test_repeated_bindings_build_the_terms_they_name():
    a = {"type": "uri", "value": EX + "a"}
    lit = {"type": "literal", "value": "x", "xml:lang": "en"}
    typed = {"type": "typed-literal", "value": "5", "datatype": XSD_INTEGER.text}
    node = {"type": "bnode", "value": "nodeID://n"}
    blanks = _EndpointBlanks()
    first = _parse_rows(page((a, a, a), (node, a, lit), (a, a, node)), blanks)
    second = _parse_rows(page((node, a, typed), (a, a, lit), (node, a, a)), blanks)
    A, L, N = iri("a"), Literal("x", language="en"), BlankNode("b0")
    assert first == [(A, A, A), (N, A, L), (A, A, N)]
    assert second == [(N, A, Literal("5", XSD_INTEGER)), (A, A, L), (N, A, A)]
    # One term object per distinct binding, across positions and pages.
    for term in (A, L, N):
        assert len({id(t) for row in first + second for t in row if t == term}) == 1
    # Bindings that share a value and differ in type, tag or datatype stay
    # distinct terms.
    alike = [
        {"type": "literal", "value": EX + "a"},
        {"type": "literal", "value": "x"},
        {"type": "literal", "value": "x", "xml:lang": "de"},
        {"type": "literal", "value": "x", "datatype": XSD_INTEGER.text},
    ]
    third = _parse_rows(page(*((a, a, o) for o in alike)), blanks)
    assert [o for _, _, o in third] == [
        Literal(EX + "a"), Literal("x"), Literal("x", language="de"), Literal("x", XSD_INTEGER)
    ]


def test_endpoint_labels_that_end_with_a_dot_are_relabelled():
    # N-Triples would read such a label's final "." as the end of the
    # statement, so it gets a fresh label that the written data keeps.
    blanks = _EndpointBlanks()
    kept = blanks.node("a.b")
    fresh = [blanks.node(label) for label in ("x.", "b0.", "a..", "nodeID://n.")]
    assert kept == BlankNode("a.b")
    assert [n.label for n in fresh] == ["b0", "b1", "b2", "b3"]
    b = GraphBuilder()
    for node in (kept, *fresh):
        b.add(node, iri("p"), iri("o"))
    assert len(parse_ntriples(serialize_ntriples(b.freeze()))) == 5


def test_a_uri_binding_ignores_fields_of_any_json_type():
    plain = {"type": "uri", "value": EX + "a"}
    warm = _EndpointBlanks()
    _parse_rows(page((plain, plain, plain)), warm)
    for extra in ([1, "x"], {"k": None}, 5, 2.5, True, None, "en"):
        dressed = {**plain, "xml:lang": extra, "datatype": extra, "extra": extra}
        for blanks in (_EndpointBlanks(), warm):
            assert _parse_rows(page((dressed, plain, dressed)), blanks) == [(iri("a"),) * 3]
    # A value that is no string fails as it always has.
    for value in (5, None, ["x"]):
        with pytest.raises(TypeError):
            _parse_rows(page(({"type": "uri", "value": value}, plain, plain)), warm)


def test_a_repeated_harvest_across_pages_equals_the_served_graph():
    A, L = iri("a"), Literal("x", language="en")
    b = GraphBuilder()
    for i in range(6):
        b.add(A, iri(f"p{i}"), L)
        b.add(BlankNode("n"), A, iri(f"o{i}"))
        b.add(iri(f"s{i}"), A, BlankNode("n"))
        b.add(iri(f"s{i}"), iri("p0"), A)
    g = b.freeze()
    with mockserver.MockEndpoint(g) as ep:
        result = harvest(source(ep.url, page_size=5), sleep=no_sleep)
    assert result.status == COMPLETE and result.pages_fetched == 5
    assert result.graph == g


def test_write_atomic_writes_chunks_and_keeps_the_old_file_when_they_fail(tmp_path):
    path = tmp_path / "violations.nt"
    write_atomic(path, iter([b"a\n", b"", b"b\n"]))
    assert path.read_bytes() == b"a\nb\n"

    def failing():
        yield b"c\n"
        raise RuntimeError("render failed")

    with pytest.raises(RuntimeError, match="render failed"):
        write_atomic(path, failing())
    assert path.read_bytes() == b"a\nb\n"
    assert [p.name for p in tmp_path.iterdir()] == ["violations.nt"]
