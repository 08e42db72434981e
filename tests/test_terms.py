"""Term model: construction rules, equality, canonical text."""
import pytest

from oracles import triple_text

from rdfval.terms import (
    BlankNode,
    Iri,
    Literal,
    RDF_LANGSTRING,
    RDF_TYPE,
    Triple,
    XSD_INTEGER,
    XSD_STRING,
    term_text,
)


def test_iri_requires_scheme():
    Iri("urn:ex:a")
    Iri("http://example.org/x")
    Iri("tag:host,2015:x")
    for bad in ("no-scheme", "/relative/path", "", "x"):
        with pytest.raises(ValueError):
            Iri(bad)


def test_iri_rejects_forbidden_characters():
    for bad in ("urn:ex:a b", "urn:ex:<a>", 'urn:ex:"a"', "urn:ex:{a}", "urn:ex:a\\b", "urn:ex:a\nb", "urn:ex:a\x01",
                "urn:ex:a\ud800", "urn:ex:\udfffb"):
        with pytest.raises(ValueError):
            Iri(bad)
    Iri("urn:ex:h%C3%A9llo")
    Iri("http://example.org/ünïcode/✓")


def test_blank_node_labels():
    for ok in ("a", "0start", "a.b-c_9", "dot..run", "_u"):
        assert BlankNode(ok).label == ok
    # N-Triples would read a final "." as the end of the statement.
    for bad in ("", "-lead", ".lead", "sp ace", "bad!", "dot.", "a..", "a\n"):
        with pytest.raises(ValueError):
            BlankNode(bad)


def test_error_texts_quote_a_huge_term_in_part():
    for make in (
        lambda: Iri("x" * 500_000),
        lambda: Iri("urn:" + "x" * 500_000 + " "),
        lambda: BlankNode("!" * 500_000),
        lambda: Literal("x" * 500_000 + "\ud800"),
        lambda: Literal("a", language="x" * 100_000),
    ):
        with pytest.raises(ValueError) as exc:
            make()
        assert len(str(exc.value)) < 300


def test_literal_defaults_to_string_datatype():
    lit = Literal("hello")
    assert lit.datatype == XSD_STRING
    assert lit.language is None


def test_language_tag_is_lowercased_and_forces_langstring():
    lit = Literal("x", language="EN-GB")
    assert lit.language == "en-gb"
    assert lit.datatype == RDF_LANGSTRING


def test_language_and_datatype_must_agree():
    assert Literal("x", XSD_STRING, language="en").datatype == RDF_LANGSTRING
    with pytest.raises(ValueError):
        Literal("x", XSD_INTEGER, language="en")
    with pytest.raises(ValueError):
        Literal("x", RDF_LANGSTRING)


def test_triple_positions_are_validated():
    s, p, o = Iri("urn:ex:s"), Iri("urn:ex:p"), Literal("o")
    Triple(s, p, o)
    Triple(BlankNode("b"), p, s)
    with pytest.raises(ValueError):
        Triple(Literal("s"), p, o)
    with pytest.raises(ValueError):
        Triple(s, BlankNode("b"), o)
    with pytest.raises(ValueError):
        Triple(s, Literal("p"), o)


def test_term_text_canonical_forms():
    assert term_text(Iri("urn:ex:a")) == "<urn:ex:a>"
    assert term_text(BlankNode("a.b")) == "_:a.b"
    assert term_text(Literal("plain")) == '"plain"'
    assert term_text(Literal("x", language="EN")) == '"x"@en'
    assert (
        term_text(Literal("5", XSD_INTEGER))
        == '"5"^^<http://www.w3.org/2001/XMLSchema#integer>'
    )


def test_term_text_escapes():
    assert term_text(Literal('a"b')) == '"a\\"b"'
    assert term_text(Literal("a\\b")) == '"a\\\\b"'
    assert term_text(Literal("a\nb\rc\td")) == '"a\\nb\\rc\\td"'
    assert term_text(Literal("\x01")) == '"\\u0001"'
    assert term_text(Literal("\x7f")) == '"\\u007F"'
    assert term_text(Literal("ünïcode ✓")) == '"ünïcode ✓"'


def test_triple_text_layout():
    t = Triple(Iri("urn:ex:s"), RDF_TYPE, Literal("o"))
    assert triple_text(t) == (
        '<urn:ex:s> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "o" .'
    )


def test_terms_are_hashable_values():
    assert Literal("x", language="en") == Literal("x", language="EN")
    assert Literal("5", XSD_INTEGER) != Literal("05", XSD_INTEGER)
    assert len({Iri("urn:ex:a"), Iri("urn:ex:a"), BlankNode("a")}) == 2
