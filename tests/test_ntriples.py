"""Line-oriented parser and canonical serializer."""
import random
import time

import pytest

from oracles import random_instance_graph, random_serializable_graph

from rdfval.ntriples import ParseError, parse_ntriples, serialize_ntriples
from rdfval.terms import BlankNode, Iri, Literal, Triple, XSD_INTEGER, triple_text


def parse(text):
    return parse_ntriples(text.encode("utf-8"))


def test_basic_forms():
    g = parse(
        """
        # a comment
        <urn:ex:s> <urn:ex:p> <urn:ex:o> .

        <urn:ex:s> <urn:ex:p> "plain" .
        <urn:ex:s> <urn:ex:p> "tagged"@en-GB .
        <urn:ex:s> <urn:ex:p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .
        _:b <urn:ex:p> <urn:ex:s> .
        """
    )
    assert len(g) == 5
    objects = {t.object for t in g}
    assert Literal("tagged", language="en-gb") in objects
    assert Literal("5", XSD_INTEGER) in objects


def test_string_escapes():
    g = parse(r'<urn:ex:s> <urn:ex:p> "a\tb\nc\"d\\eA\U0001F642" .')
    (t,) = list(g)
    assert t.object == Literal('a\tb\nc"d\\eA🙂')


def test_escape_validation():
    with pytest.raises(ParseError):
        parse(r'<urn:ex:s> <urn:ex:p> "\U00110000" .')
    with pytest.raises(ParseError):
        parse(r'<urn:ex:s> <urn:ex:p> "\q" .')


def test_errors_carry_line_and_column():
    with pytest.raises(ParseError) as err:
        parse('<urn:ex:s> <urn:ex:p> <urn:ex:o> .\nnot a triple\n')
    assert err.value.line == 2


def test_malformed_lines():
    for line in (
        '<urn:ex:s> <urn:ex:p> .',
        '<urn:ex:s> <urn:ex:p> <urn:ex:o>',
        '"lit" <urn:ex:p> <urn:ex:o> .',
        '<urn:ex:s> _:b <urn:ex:o> .',
        '<urn:ex:s> "p" <urn:ex:o> .',
        '<urn:ex:s> <urn:ex:p> <no space> .',
    ):
        with pytest.raises(ParseError):
            parse(line)


def test_a_blank_label_does_not_end_with_a_dot():
    # The final "." of "_:b1." ends the statement; it is no part of the label.
    with pytest.raises(ParseError) as err:
        parse("_:b1 <urn:ex:p> <urn:ex:o> .\n_:b1. <urn:ex:p> <urn:ex:o> .\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse("<urn:ex:s> <urn:ex:p> _:b1. .\n")
    g = parse("<urn:ex:s> <urn:ex:p> _:b1.\n<urn:ex:s> <urn:ex:q> _:b1 .\n<urn:ex:s> <urn:ex:q> _:b1.a .\n")
    s, p, q = Iri("urn:ex:s"), Iri("urn:ex:p"), Iri("urn:ex:q")
    b0, b1 = BlankNode("b0"), BlankNode("b1")
    assert set(g) == {Triple(s, p, b0), Triple(s, q, b0), Triple(s, q, b1)}


@pytest.mark.parametrize(
    "text, error",
    [
        ("_:a" + "." * 40_000 + "b <urn:ex:p> <urn:ex:o> .\n", False),  # one label with a long dot run
        ("_:a" + "." * 40_000 + " <urn:ex:p> <urn:ex:o> .\n", True),
        ("<urn:ex:s> <urn:ex:p> _:a" + "." * 40_000 + "\n", True),
        ("<urn:ex:s> <urn:ex:p> _:a" + ".-" * 40_000 + ". .\n", True),
    ],
    ids=["dots-in-label", "dots-after-subject", "dots-after-object", "dot-hyphen-runs"],
)
def test_long_runs_are_read_in_linear_time(text, error):
    start = time.perf_counter()
    try:
        g = parse(text)
    except ParseError:
        assert error
    else:
        assert not error and len(g) == 1
    # A scan repeated from each character takes seconds here.
    assert time.perf_counter() - start < 1.0


def test_blank_nodes_are_renamed_in_first_seen_order():
    g = parse(
        "_:zz <urn:ex:p> _:aa .\n"
        "_:aa <urn:ex:p> _:zz .\n"
    )
    labels = sorted({n.label for t in g for n in (t.subject, t.object)})
    assert labels == ["b0", "b1"]
    by_subject = {t.subject.label: t.object.label for t in g}
    assert by_subject == {"b0": "b1", "b1": "b0"}


def test_duplicate_lines_collapse():
    g = parse("<urn:ex:s> <urn:ex:p> <urn:ex:o> .\n<urn:ex:s>\t<urn:ex:p>\t<urn:ex:o> .\n")
    assert len(g) == 1


def test_serialize_is_sorted_with_trailing_newline():
    g = parse(
        '<urn:ex:z> <urn:ex:p> "2" .\n'
        '<urn:ex:a> <urn:ex:p> "1" .\n'
    )
    data = serialize_ntriples(g)
    lines = data.decode("utf-8").splitlines()
    assert lines == sorted(lines)
    assert data.endswith(b".\n")


def test_serialize_empty_graph():
    from rdfval.graph import GraphBuilder

    assert serialize_ntriples(GraphBuilder().freeze()) == b""


def test_round_trip_is_idempotent():
    text = (
        '<urn:ex:s> <urn:ex:p> "line\\nbreak" .\n'
        '<urn:ex:s> <urn:ex:p> "tab\\there"@en .\n'
        "_:b0 <urn:ex:p> _:b1 .\n"
    )
    g = parse(text)
    once = serialize_ntriples(g)
    again = serialize_ntriples(parse_ntriples(once))
    assert once == again


def test_triple_serialization_drops_duplicate_lines():
    t = Triple(Iri("urn:ex:s"), Iri("urn:ex:p"), Literal("x"))
    assert serialize_ntriples([t, t]) == b'<urn:ex:s> <urn:ex:p> "x" .\n'
    # Repeats 280 triples apart and a reversed tail, over non-ASCII lines.
    s, p = Iri("urn:ex:s"), Iri("urn:ex:p")
    texts = ["x", "\u00e9", "\u65e5\u672c", "\U0001F600", "zz", "a b", "\u00c9"]
    triples = [Triple(s, p, Literal(texts[i * 5 % 7] + str(i % 40))) for i in range(400)]
    triples += [Triple(s, Iri(f"urn:ex:\u00fc{i % 3}"), s) for i in range(9)] + triples[::-3]
    expected = "".join(line + "\n" for line in sorted({triple_text(t) for t in triples}))
    assert serialize_ntriples(triples) == expected.encode("utf-8")


def test_a_graph_serializes_as_its_triples_do():
    # A graph is written from its ids and interned terms, a list of triples
    # through Triple and triple_text: both must give the same bytes.
    for case in range(300):
        rng = random.Random(18_000 + case)
        g = (random_serializable_graph if case % 2 else random_instance_graph)(rng)
        assert serialize_ntriples(g) == serialize_ntriples(list(g)), case


@pytest.mark.parametrize("start", [0x00, 0x20, 0x5B, 0x7E, 0x80, 0x10FF00])
def test_every_literal_character_survives_a_round_trip(start):
    s, p = Iri("urn:ex:s"), Iri("urn:ex:p")
    texts = [chr(c) + "x" for c in range(start, start + 0x40) if not 0xD800 <= c < 0xE000]
    triples = [Triple(s, p, Literal(t)) for t in texts]
    data = serialize_ntriples(triples)
    raw = data.decode("utf-8").replace("\n", "")
    assert not any(chr(c) in raw for c in [*range(0x20), 0x7F])
    back = {t.object.lexical for t in parse_ntriples(data)}
    assert back == set(texts)
