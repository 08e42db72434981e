"""Indexed graph container and its builder."""
import random

import pytest

from rdfval.graph import Graph, GraphBuilder
from rdfval.terms import BlankNode, Iri, Literal, RDF_TYPE, Triple

EX = "urn:ex:"


def tri(i, j, k):
    return Triple(Iri(EX + f"n{i}"), Iri(EX + f"p{j}"), Iri(EX + f"n{k}"))


def build(triples):
    b = GraphBuilder()
    for t in triples:
        b.add(t.subject, t.predicate, t.object)
    return b.freeze()


def test_duplicates_collapse():
    g = build([tri(1, 1, 2), tri(1, 1, 2), tri(1, 1, 3)])
    assert len(g) == 2


def test_insertion_order_does_not_matter():
    ts = [tri(i, i % 3, (i * 7) % 5) for i in range(20)]
    shuffled = ts[:]
    random.Random(3).shuffle(shuffled)
    assert build(ts) == build(shuffled)


def test_equality_is_label_sensitive():
    p, o = Iri(EX + "p"), Iri(EX + "o")
    a = build([Triple(BlankNode("a"), p, o)])
    b = build([Triple(BlankNode("b"), p, o)])
    assert a != b
    assert a == build([Triple(BlankNode("a"), p, o)])


def test_match_wildcards():
    g = build([tri(1, 1, 2), tri(1, 2, 3), tri(2, 1, 2)])
    assert len(list(g.match(None, None, None))) == 3
    assert {t.object for t in g.match(Iri(EX + "n1"), None, None)} == {
        Iri(EX + "n2"),
        Iri(EX + "n3"),
    }
    assert len(list(g.match(None, Iri(EX + "p1"), None))) == 2
    assert list(g.match(None, Iri(EX + "p1"), Iri(EX + "n3"))) == []


def test_match_literal_objects():
    s, p = Iri(EX + "s"), Iri(EX + "p")
    g = build([Triple(s, p, Literal("x")), Triple(s, p, Literal("x", language="en"))])
    assert len(list(g.match(None, None, Literal("x")))) == 1


def test_match_with_foreign_term_is_empty():
    g = build([tri(1, 1, 2)])
    assert list(g.match(Iri(EX + "absent"), None, None)) == []
    assert list(g.match(None, None, Literal("absent"))) == []


def test_iteration_is_deterministic():
    ts = [tri(i, i % 2, (i + 1) % 7) for i in range(15)]
    assert list(build(ts)) == list(build(ts))
    assert set(build(ts)) == set(ts)


def test_empty_graph():
    g = GraphBuilder().freeze()
    assert len(g) == 0
    assert list(g) == []
    assert list(g.match(None, None, None)) == []


def test_builder_validates_positions():
    b = GraphBuilder()
    with pytest.raises(ValueError):
        b.add(Literal("s"), Iri(EX + "p"), Literal("o"))
    with pytest.raises(ValueError):
        b.add(Iri(EX + "s"), BlankNode("p"), Literal("o"))


def test_builder_is_single_use():
    b = GraphBuilder()
    b.add(Iri(EX + "s"), RDF_TYPE, Iri(EX + "C"))
    b.freeze()
    with pytest.raises(RuntimeError):
        b.freeze()


def test_graph_name():
    b = GraphBuilder()
    b.add(Iri(EX + "n0"), Iri(EX + "p0"), Iri(EX + "n0"))
    assert b.freeze(name="probe").name == "probe"
