"""Seeded mutations of every input format end only in its documented error.

Each input is damaged by one to three byte-level mutations: a bit flip, a
deletion, a truncation, a run of ``[``, an escaped lone surrogate or a
5,000-digit number; a gzipped file is damaged in its compressed bytes. Whatever a mutation leaves must load or fail the way
the README says for that input, never with another exception.
"""
import gzip
import json
import random
from pathlib import Path

import pytest

import rdfval.packs
from mockserver import term_binding
from rdfval.catalog import CatalogError, load_catalog
from rdfval.graphio import load_graph
from rdfval.harvest import _EndpointBlanks, _parse_rows, _read_json, load_sources
from rdfval.ntriples import ParseError, parse_ntriples
from rdfval.packs import load_fixture, pack_text
from rdfval.report import SourceOutcomes, _read_json as read_campaign_json, parse_outcomes_document
from rdfval.turtle import parse_turtle_subset

CASES = 400
FIXTURE_DIR = Path(rdfval.packs.__file__).parent / "data" / "fixtures"

TURTLE = """\
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@base <http://example.org/base/> .
ex:s a ex:C ;
    ex:p "plain" , "tagged"@en-GB , "5"^^xsd:integer ;
    ex:q [ ex:r <rel> ; ex:t _:b1 ] .
_:b1 ex:label "line\\nbreak \\u00e9" ; ex:n "12.5e3"^^xsd:double .
""".encode("utf-8")


def mutate(rng: random.Random, data: bytes) -> bytes:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(data) + 1)
        kind = rng.randrange(6)
        if kind == 0 and i < len(data):
            data = data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1:]
        elif kind == 1:
            data = data[:i] + data[i + rng.randint(1, 16):]
        elif kind == 2:
            data = data[:i]
        else:
            insert = (b"[" * rng.choice((1, 50, 5_000)), b"\\ud800", b"9" * 5_000)[kind - 3]
            data = data[:i] + insert + data[i:]
    return data


def page_payload() -> bytes:
    g = load_fixture("study-archive")
    rows = list(g)[:250]
    assert len(rows) == 250
    bindings = [
        {"s": term_binding(t.subject), "p": term_binding(t.predicate), "o": term_binding(t.object)}
        for t in rows
    ]
    return json.dumps({"head": {"vars": ["s", "p", "o"]}, "results": {"bindings": bindings}}).encode()


def sources_text() -> bytes:
    return json.dumps([
        {"abbreviation": "alpha", "endpoint-url": "http://localhost:1/sparql", "vocabulary": "qb"},
        {"abbreviation": "beta", "endpoint-url": "https://example.org/sparql?x=1", "vocabulary": "skos",
         "page-size": 500, "timeout": 2.5, "max-retries": 1},
    ]).encode()


def profile_text() -> bytes:
    return json.dumps({
        "source": "alpha", "endpoint-url": "http://localhost:1/sparql", "status": "complete",
        "pages-fetched": 2, "reason": None, "triples": 12, "blank-nodes": 0,
        "classes": {"http://purl.org/linked-data/cube#DataSet": 1},
    }, indent=2).encode()


def outcomes_text() -> bytes:
    return json.dumps({
        "source": "alpha", "pack": "qb", "harvest-status": "partial",
        "outcomes": [
            {"constraint-id": "QB-1", "status": "violated", "count": 3, "limit": None,
             "reason": None, "parts-missing": None},
            {"constraint-id": "QB-2", "status": "source-incomplete", "count": 0, "limit": 100,
             "reason": "budget", "parts-missing": 1},
        ],
    }, indent=2).encode()


def load_gzipped_ntriples(data, tmp_path):
    path = tmp_path / "data.nt.gz"
    path.write_bytes(data)
    return load_graph(path)


def load_profile(data, tmp_path):
    path = tmp_path / "profile.json"
    path.write_bytes(data)
    return _read_json(path)  # a document, or None for a torn file


def load_outcomes(data, tmp_path):
    path = tmp_path / "outcomes.json"
    path.write_bytes(data)
    try:
        return read_campaign_json(path, parse_outcomes_document)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), exc
        raise


# name: (original input, loader, the errors the loader documents)
INPUTS = {
    "ntriples": (lambda: (FIXTURE_DIR / "thesaurus.nt").read_bytes(), lambda d, _: parse_ntriples(d), ParseError),
    "turtle": (lambda: TURTLE, lambda d, _: parse_turtle_subset(d), ParseError),
    "gzip": (lambda: gzip.compress((FIXTURE_DIR / "thesaurus.nt").read_bytes()), load_gzipped_ntriples, ValueError),
    # _fetch_page retries a page on exactly these.
    "page": (page_payload, lambda d, _: _parse_rows(d, _EndpointBlanks()), (KeyError, TypeError, ValueError)),
    "catalog": (lambda: pack_text("qb").encode("utf-8"), lambda d, _: load_catalog(d), CatalogError),
    "sources": (sources_text, lambda d, _: load_sources(d), ValueError),
    "profile": (profile_text, load_profile, ()),
    "outcomes": (outcomes_text, load_outcomes, ValueError),
}


@pytest.mark.parametrize("name", list(INPUTS))
def test_mutated_inputs_end_only_in_their_documented_error(name, tmp_path):
    make, load, documented = INPUTS[name]
    original = make()
    assert load(original, tmp_path) is not None
    rng = random.Random(f"mutations-{name}")
    for case in range(CASES):
        data = mutate(rng, original)
        try:
            load(data, tmp_path)
        except documented:
            pass
        except Exception as exc:
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc}"[:500])
