"""The loaders against term-by-term construction.

N-Triples text written with non-canonical spellings must parse to the
graph ``GraphBuilder.add`` builds over the same terms, with the same term
ids; an error must surface at the first occurrence of the bad token; and
the id-level merge of ``validate --data`` files must equal a merge through
``Triple`` objects.
"""
import gzip
import random
from pathlib import Path

import pytest

import rdfval.packs
from oracles import random_instance_graph, random_serializable_graph
from rdfval.cli import _read_graphs
from rdfval.graph import GraphBuilder
from rdfval.graphio import load_graph
from rdfval.ntriples import ParseError, parse_ntriples
from rdfval.packs import FIXTURES
from rdfval.terms import BlankNode, Iri, Literal, RDF_LANGSTRING, XSD_STRING, term_text
from rdfval.turtle import parse_turtle_subset

_SHORT_ESCAPES = {"\t": "t", "\b": "b", "\n": "n", "\r": "r", "\f": "f", '"': '"', "\\": "\\"}


def spell_lexical(rng, lexical: str) -> str:
    out = []
    for ch in lexical:
        forced = ch in '"\\\n\r'
        roll = rng.random()
        if roll < 0.15 and ord(ch) <= 0xFFFF:
            out.append(f"\\u{ord(ch):04{rng.choice('Xx')}}")
        elif roll < 0.25:
            out.append(f"\\U{ord(ch):08X}")
        elif ch in _SHORT_ESCAPES and (forced or roll < 0.5):
            out.append("\\" + _SHORT_ESCAPES[ch])
        elif forced:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def spell_case(rng, tag: str) -> str:
    return "".join(c.upper() if rng.random() < 0.5 else c for c in tag)


def spell(rng, term, blank_labels) -> str:
    if isinstance(term, Iri):
        return f"<{term.text}>"
    if isinstance(term, BlankNode):
        return f"_:{blank_labels[term]}"
    body = f'"{spell_lexical(rng, term.lexical)}"'
    if term.language is not None:
        return f"{body}@{spell_case(rng, term.language)}"
    if term.datatype == XSD_STRING and rng.random() < 0.6:
        return body
    return f"{body}^^<{term.datatype.text}>"


def noncanonical_document(rng, triples):
    """N-Triples text for ``triples`` in a random order with repeats, and
    the triples in the order they were written."""
    blank_labels = {}
    for t in triples:
        for term in (t.subject, t.object):
            if isinstance(term, BlankNode) and term not in blank_labels:
                # Arbitrary legal labels, each reused on every line of its node.
                blank_labels[term] = rng.choice(["q", "Z9", "_u", "a.b-c"]) + str(len(blank_labels))
    order = list(triples) + [rng.choice(triples) for _ in range(len(triples) // 4)]
    rng.shuffle(order)
    eol = rng.choice(["\n", "\r\n"])
    lines = []
    for t in order:
        ws = lambda: rng.choice([" ", "\t", "  ", " \t "])  # noqa: E731
        line = ws().join(spell(rng, x, blank_labels) for x in (t.subject, t.predicate, t.object)) + ws() + "."
        if rng.random() < 0.2:
            line = ws() + line
        if rng.random() < 0.2:
            line += ws() + "# trailing comment"
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(rng.choice(["# comment line", "", "   ", "#"]))
    return eol.join(lines) + rng.choice(["", eol]), order


def built_by_add(order):
    """What the parser must produce: blank nodes renamed b<n> in
    first-seen order, terms interned in written order."""
    names = {}

    def rename(term):
        if isinstance(term, BlankNode):
            if term not in names:
                names[term] = BlankNode(f"b{len(names)}")
            return names[term]
        return term

    b = GraphBuilder()
    for t in order:
        b.add(rename(t.subject), t.predicate, rename(t.object))
    return b.freeze()


def same_graph(a, b) -> bool:
    """Equal triples, term ids and SPO order."""
    return list(a.match_ids(None, None, None)) == list(b.match_ids(None, None, None)) and list(a) == list(b)


@pytest.mark.parametrize("make", [random_serializable_graph, random_instance_graph])
def test_noncanonical_ntriples_parse_like_builder_add(make):
    for seed in range(150):
        rng = random.Random(seed)
        triples = list(make(rng))
        text, order = noncanonical_document(rng, triples)
        parsed = parse_ntriples(text.encode("utf-8"))
        assert same_graph(parsed, built_by_add(order)), (seed, text)


def test_spellings_of_one_term_share_an_id():
    g = parse_ntriples(
        b'<urn:ex:s> <urn:ex:p> "A"@en .\n'
        b'<urn:ex:s> <urn:ex:p> "\\u0041"@EN .\n'
        b'<urn:ex:s> <urn:ex:q> "A" .\n'
        b'<urn:ex:s> <urn:ex:q> "\\U00000041"^^<http://www.w3.org/2001/XMLSchema#string> .\n'
    )
    assert sorted(term_text(t.object) for t in g) == ['"A"', '"A"@en']
    assert [g.term(i) for i in range(4)] == [
        Iri("urn:ex:s"), Iri("urn:ex:p"), Literal("A", language="en"), Iri("urn:ex:q"),
    ]


# ---- errors at the first occurrence ----------------------------------------

GOOD = "<urn:ex:s> <urn:ex:p> <urn:ex:o> .\n"


def as_input(text):
    """The UTF-8 bytes of ``text``, or ``text`` itself when it holds a lone
    surrogate: only a str can carry one."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        return text


@pytest.mark.parametrize(
    "text, line, column, reason",
    [
        # A bad IRI first seen as an object, then repeated as a subject.
        (GOOD + '<urn:ex:s> <urn:ex:p> <nope> .\n<nope> <urn:ex:p> "x" .\n',
         2, 24, "missing scheme"),
        # A bad datatype IRI, repeated.
        (GOOD + '<urn:ex:s>  <urn:ex:p> "1"^^<int> .\n<urn:ex:s> <urn:ex:p> "1"^^<int> .\n',
         2, 30, "missing scheme"),
        # A bad escape after the same literal spelled correctly.
        (GOOD + '<urn:ex:s> <urn:ex:p> "a\\tb" .\n<urn:ex:s> <urn:ex:p> "a\\qb" .\n'
         + '<urn:ex:s> <urn:ex:p> "a\\qb" .\n', 3, 25, "unknown escape"),
        (GOOD + '\t<urn:ex:s> <urn:ex:p> "\\u00ZZ"@en .\n<urn:ex:s> <urn:ex:p> "\\u00ZZ"@en .\n',
         2, 25, "bad \\u escape"),
        # A lone surrogate cannot be written back out as UTF-8.
        (GOOD + '<urn:a> <urn:p> "a\\uD800b" .\n', 2, 19, "surrogate"),
        # Raw lone surrogates, which only a str can carry: in a literal, in a
        # predicate and in a datatype IRI.
        (GOOD + '<urn:a> <urn:p> "a\ud800b" .\n', 2, 17, "surrogate"),
        (GOOD + '<urn:a> <urn:p\udc00> "ab" .\n', 2, 10, "forbidden character"),
        (GOOD + '<urn:a> <urn:p> "x"^^<urn:d\udfff> .\n', 2, 23, "forbidden character"),
        # A language tag longer than eight letters.
        (GOOD + '<urn:ex:s> <urn:ex:p> "x"@en .\n  <urn:ex:s> <urn:ex:p> "x"@englishxx .\n',
         3, 3, "malformed triple line"),
        # A predicate IRI that was fine as a subject elsewhere is still checked.
        (GOOD + "<urn:ex:s> <urn:ex:p> <urn:ex:o> .\r\n<urn:ex:s> <p> <urn:ex:o> .\r\n",
         3, 13, "missing scheme"),
        # An rdf:langString literal without a tag, after the tagged spelling.
        (GOOD + '<urn:ex:s> <urn:ex:p> "x"@en .\n<urn:ex:s>  <urn:ex:p> "x"^^<' + RDF_LANGSTRING.text
         + '> .\n<urn:ex:s> <urn:ex:p> "x"^^<' + RDF_LANGSTRING.text + "> .\n",
         3, 24, "requires a language tag"),
    ],
)
def test_ntriples_errors_at_first_occurrence(text, line, column, reason):
    with pytest.raises(ParseError) as err:
        parse_ntriples(as_input(text))
    assert (err.value.line, err.value.column) == (line, column)
    assert reason in err.value.reason


@pytest.mark.parametrize(
    "text, line, column, reason",
    [
        ("@prefix ex: <urn:ex:> .\nex:s ex:p ex:o .\nex:s ex:p <nope> .\n",
         3, 11, "relative IRI"),
        ("@prefix ex: <urn:ex:> .\nex:s ex:p 'x' .\n", 2, 11, "single-quoted"),
        ("@prefix ex: <urn:ex:> .\nex:s ex:p \"ok\"@en, \"x\"@englishxx .\n",
         2, 32, "unexpected word"),
        ("@prefix ex: <urn:ex:> .\nex:s ex:p \"\\q\" .\nex:s ex:p \"\\q\" .\n",
         2, 12, "unknown escape"),
        ("@prefix ex: <urn:ex:> .\nex:s ex:p \"a\\U0000DFFF\" .\n", 2, 13, "surrogate"),
        ("@prefix ex: <urn:ex:> .\nex:s ex:p \"a\ud800\" .\n", 2, 11, "surrogate"),
        ("@prefix ex: <urn:ex:> .\nex:s ex:p <urn:\udfff> .\n", 2, 11, "forbidden character"),
        ("@prefix ex: <urn:ex:> .\nex:s ex:p \"\"\"x\"\"\" .\n", 2, 11, "triple-quoted"),
        ("@prefix ex: <urn:ex:> .\nex:s ex:p 12 .\n", 2, 11, "numeric"),
        ("@prefix ex: <urn:ex:> .\nex:s ex:p ( ex:o ) .\n", 2, 11, "collection"),
        ("ex:s <urn:ex:p> <urn:ex:o> .\n", 1, 1, "undeclared prefix"),
        ("@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
         '<urn:ex:s> <urn:ex:p> "x"@en, "x"^^rdf:langString .\n', 2, 31, "requires a language tag"),
    ],
)
def test_turtle_errors_keep_their_position(text, line, column, reason):
    with pytest.raises(ParseError) as err:
        parse_turtle_subset(as_input(text))
    assert (err.value.line, err.value.column) == (line, column)
    assert reason in err.value.reason


def test_turtle_redefined_prefix_and_base_resolve_afresh():
    g = parse_turtle_subset(
        b"@prefix ex: <urn:a:> .\n"
        b"ex:s ex:p ex:o .\n"
        b"@prefix ex: <urn:b:> .\n"
        b"ex:s ex:p ex:o .\n"
        b"@base <http://one.example/> .\n"
        b"<s> <p> <o> .\n"
        b"@base <http://two.example/> .\n"
        b"<s> <p> <o> .\n"
    )
    assert sorted(" ".join(term_text(x) for x in (t.subject, t.predicate, t.object)) for t in g) == [
        "<http://one.example/s> <http://one.example/p> <http://one.example/o>",
        "<http://two.example/s> <http://two.example/p> <http://two.example/o>",
        "<urn:a:s> <urn:a:p> <urn:a:o>",
        "<urn:b:s> <urn:b:p> <urn:b:o>",
    ]


def test_turtle_bracketed_objects_keep_add_order():
    g = parse_turtle_subset(
        b'<urn:ex:s> <urn:ex:p> [ <urn:ex:q> "v" ], <urn:ex:o> .\n'
    )
    b = GraphBuilder()
    b.add(BlankNode("b0"), Iri("urn:ex:q"), Literal("v"))
    b.add(Iri("urn:ex:s"), Iri("urn:ex:p"), BlankNode("b0"))
    b.add(Iri("urn:ex:s"), Iri("urn:ex:p"), Iri("urn:ex:o"))
    assert same_graph(g, b.freeze())


# ---- the multi-file merge --------------------------------------------------


def merge_through_triples(paths):
    """The merge ``validate --data`` made before it moved ids."""
    builder = GraphBuilder()
    for i, path in enumerate(paths):
        for t in load_graph(path):
            s = BlankNode(f"f{i}.{t.subject.label}") if isinstance(t.subject, BlankNode) else t.subject
            o = BlankNode(f"f{i}.{t.object.label}") if isinstance(t.object, BlankNode) else t.object
            builder.add(s, t.predicate, o)
    return builder.freeze(name="data")


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_id_level_merge_equals_triple_level_merge(tmp_path, name):
    fixture = Path(rdfval.packs.__file__).parent / "data" / "fixtures" / f"{name}.nt"
    lines = [x for x in fixture.read_text(encoding="utf-8").split("\n") if x]
    paths = []
    for k, suffix in enumerate([".nt", ".nt.gz", ".ttl"]):
        part = lines[k::3] + [
            "_:b0 <urn:ex:link> _:b1 .",
            f"_:b1 <urn:ex:link> {lines[k].split(' ')[0]} .",
        ]
        data = ("\n".join(part) + "\n").encode("utf-8")
        path = tmp_path / f"part{k}{suffix}"
        path.write_bytes(gzip.compress(data) if suffix.endswith(".gz") else data)
        paths.append(str(path))
    for chosen in (paths, paths[::-1], paths[1:]):
        merged = _read_graphs(tuple(chosen))
        reference = merge_through_triples(chosen)
        assert same_graph(merged, reference)
        assert merged.name == reference.name == "data"
        assert len(merged) == sum(len(load_graph(p)) for p in chosen)
