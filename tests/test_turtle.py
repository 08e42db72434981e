"""Turtle subset reader: accepted syntax, explicit refusals, and agreement
with the reference reader in `turtle_reference`."""
import random
import time

import pytest

from rdfval.ntriples import ParseError, parse_ntriples, serialize_ntriples
from rdfval.terms import BlankNode, Iri, Literal, RDF_TYPE, Triple, XSD_STRING
from rdfval.turtle import UnsupportedFeature, parse_turtle_subset
from test_mutations import TURTLE, mutate
from turtle_reference import parse_reference


def parse(text, **kw):
    return parse_turtle_subset(text.encode("utf-8"), **kw)


def test_prefixes_and_keyword_a():
    g = parse(
        """
        @prefix ex: <urn:ex:> .
        ex:s a ex:C .
        ex:s ex:p "v" .
        """
    )
    assert len(g) == 2
    assert (
        len(list(g.match(Iri("urn:ex:s"), RDF_TYPE, Iri("urn:ex:C")))) == 1
    )


def test_object_lists_and_predicate_object_lists():
    g = parse(
        """
        @prefix ex: <urn:ex:> .
        ex:s ex:p "a" , "b" ; ex:q ex:o .
        """
    )
    assert len(g) == 3
    assert {t.object for t in g.match(None, Iri("urn:ex:p"), None)} == {
        Literal("a"),
        Literal("b"),
    }


def test_base_resolves_relative_iris():
    g = parse(
        """
        @base <http://b.example/dir/> .
        <s> <p> <../up> .
        """
    )
    (t,) = list(g)
    assert t.subject == Iri("http://b.example/dir/s")
    assert t.object == Iri("http://b.example/up")


def test_property_list_blank_nodes_are_sequentially_named():
    g = parse(
        """
        @prefix ex: <urn:ex:> .
        ex:s ex:p [ ex:q "v" ] .
        _:named ex:p ex:s .
        """
    )
    text = serialize_ntriples(g).decode("utf-8")
    assert "_:b0" in text and "_:b1" in text
    assert "_:named" not in text


def test_language_tags_and_typed_literals():
    g = parse(
        """
        @prefix ex: <urn:ex:> .
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
        ex:s ex:p "x"@EN-latn-GB , "5"^^xsd:integer .
        """
    )
    objects = {t.object for t in g}
    assert Literal("x", language="en-latn-gb") in objects


def test_matches_equivalent_ntriples():
    ttl = parse(
        """
        @prefix ex: <urn:ex:> .
        ex:a a ex:C ;
            ex:p ex:b , "lit"@de .
        """
    )
    nt = parse_ntriples(
        b'<urn:ex:a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:ex:C> .\n'
        b'<urn:ex:a> <urn:ex:p> <urn:ex:b> .\n'
        b'<urn:ex:a> <urn:ex:p> "lit"@de .\n'
    )
    assert ttl == nt


def test_out_of_subset_syntax_is_refused_not_garbled():
    cases = [
        "@prefix ex: <urn:ex:> . ex:s ex:p ( 1 2 ) .",
        "@prefix ex: <urn:ex:> . ex:s ex:p 5 .",
        "@prefix ex: <urn:ex:> . ex:s ex:p true .",
        '@prefix ex: <urn:ex:> . ex:s ex:p """long""" .',
        "PREFIX ex: <urn:ex:>\nex:s ex:p ex:o .",
    ]
    for doc in cases:
        with pytest.raises(UnsupportedFeature):
            parse(doc)


def test_unsupported_feature_is_a_parse_error():
    assert issubclass(UnsupportedFeature, ParseError)


def test_plain_syntax_errors():
    for doc in (
        "@prefix ex: <urn:ex:> . ex:s ex:p .",
        "ex:s ex:p ex:o .",
        "@prefix ex: <urn:ex:> . ex:s ex:p ex:o",
    ):
        with pytest.raises(ParseError):
            parse(doc)


# ---- nesting, PN_LOCAL and the reference reader ----------------------------


def test_nesting_depth_is_not_bounded_by_the_recursion_limit():
    depth = 10_000
    ttl = "@prefix ex: <urn:ex:> .\nex:s ex:p " + "[ ex:p " * depth + "ex:o" + " ]" * depth + " .\n"
    nodes = ["<urn:ex:s>"] + [f"_:b{k}" for k in range(depth)] + ["<urn:ex:o>"]
    nt = "".join(f"{a} <urn:ex:p> {b} .\n" for a, b in zip(nodes, nodes[1:]))
    g = parse(ttl)
    assert len(g) == depth + 1
    assert g == parse_ntriples(nt.encode("utf-8"))


@pytest.mark.parametrize(
    "obj, local", [("ex:a..b .", "a..b"), ("ex:a-.", "a-"), ("ex:_a .", "_a"), ("ex:9z.", "9z"), ("ex:a.b-c.", "a.b-c")]
)
def test_local_names_of_turtle_1_1_parse(obj, local):
    (t,) = list(parse(f"@prefix ex: <urn:ex:> .\nex:s ex:p {obj}\n"))
    assert t.object == Iri("urn:ex:" + local)


@pytest.mark.parametrize(
    "local, column, reason",
    [(".a", 15, "expected subject"), ("-a", 14, "unexpected character '-'"), ("a..", 16, "expected subject")],
)
def test_local_names_outside_turtle_1_1_are_positioned_errors(local, column, reason):
    with pytest.raises(ParseError) as err:
        parse(f"@prefix ex: <urn:ex:> .\nex:s ex:p ex:{local} .\n")
    assert (err.value.line, err.value.column, err.value.reason) == (2, column, reason)


@pytest.mark.parametrize(
    "text, error",
    [
        ("ex:s ex:p ex:a" + "." * 40_000 + "b .\n", None),  # one name with a long dot run
        ("ex:s ex:p ex:a" + "." * 40_000 + "\n", "expected subject"),
        ("ex:s ex:p _:a" + "." * 40_000 + "\n", "expected subject"),
        ("b-" * 40_000, "unexpected word 'b'"),  # each "b" starts a prefix scan
        ("ex:s ex:p " + "a-" * 40_000, "unexpected character '-'"),
        ('"' + '\\"' * 40_000, "unexpected character '\"'"),  # each quote starts a string scan
    ],
    ids=["dots-in-name", "dots-after-name", "dots-after-blank-label", "hyphenated-words", "a-hyphens", "escaped-quotes"],
)
def test_long_runs_are_read_in_linear_time(text, error):
    start = time.perf_counter()
    try:
        g = parse("@prefix ex: <urn:ex:> .\n" + text)
    except ParseError as exc:
        assert exc.reason == error
    else:
        assert error is None
        assert next(iter(g)).object == Iri("urn:ex:a" + "." * 40_000 + "b")
    # A scan repeated from each character takes seconds here.
    assert time.perf_counter() - start < 1.0


def test_blank_labels_hold_dots_but_do_not_end_with_one():
    start = time.perf_counter()
    long = "_:b1" + "." * 40_000 + "a"
    g = parse(f"@prefix ex: <urn:ex:> .\nex:s ex:p _:b1.\nex:s ex:q _:b1.a , {long} , _:b1 .\n")
    s, p, q = Iri("urn:ex:s"), Iri("urn:ex:p"), Iri("urn:ex:q")
    b0, b1, b2 = (BlankNode(f"b{n}") for n in range(3))
    assert set(g) == {Triple(s, p, b0), Triple(s, q, b1), Triple(s, q, b2), Triple(s, q, b0)}
    assert time.perf_counter() - start < 1.0


LOCALS = ["a", "b", "s1", "a.b", "x-y", "_u", "9", "a..b", "Z_"]


def random_iri(rng, prefixes, base):
    roll = rng.random()
    if roll < 0.45 and prefixes:
        return f"{rng.choice(sorted(prefixes))}:{rng.choice(LOCALS)}"
    if roll < 0.7 and base:
        return rng.choice(["<x>", "<../up>", "<#f>", "<d/e>", "<?q=1>"])
    return f"<urn:ex:{rng.choice(LOCALS)}>"


def random_literal(rng, prefixes):
    body = rng.choice(["v", "", "a b", "é", "tab\\there", "q\\\"", "\\u00E9\\U0001F600", "line\\nbreak", "5"])
    space = " " if rng.random() < 0.1 else ""
    roll = rng.random()
    if roll < 0.3:
        return f'"{body}"{space}@{rng.choice(["en", "EN-gb", "de-CH-1996"])}'
    if roll < 0.55:
        dt = "xsd:integer" if "xsd" in prefixes and rng.random() < 0.5 else "<http://www.w3.org/2001/XMLSchema#date>"
        return f'"{body}"{space}^^{space}{dt}'
    return f'"{body}"'


def random_object(rng, prefixes, base, depth):
    roll = rng.random()
    if roll < 0.35:
        return random_literal(rng, prefixes)
    if roll < 0.45:
        return f"_:{rng.choice(['x', 'y', 'n1', 'b0', 'x.y'])}"
    if roll < 0.55 and depth < 48:
        if rng.random() < 0.2:
            return "[]"
        return f"[ {random_pol(rng, prefixes, base, depth + 1)} ]"
    return random_iri(rng, prefixes, base)


def random_pol(rng, prefixes, base, depth):
    items = []
    for _ in range(rng.randint(1, 3)):
        verb = "a" if rng.random() < 0.2 else random_iri(rng, prefixes, base)
        objects = [random_object(rng, prefixes, base, depth) for _ in range(rng.randint(1, 3))]
        items.append(f"{verb} {' , '.join(objects)}")
    sep = rng.choice([" ; ", " ;\n  ", " ;; "])
    return sep.join(items) + rng.choice(["", "", " ;", " ; ;"])


def random_document(rng):
    """A random valid document of the subset, every feature mixed."""
    prefixes, base, out = set(), None, []
    for _ in range(rng.randint(3, 12)):
        roll = rng.random()
        if roll < 0.2:
            name = rng.choice(["ex", "p", "", "xsd"])
            ns = rng.choice(["urn:a:", "urn:b/"] + ["http://www.w3.org/2001/XMLSchema#"] * 2 * (name == "xsd"))
            out.append(f"@prefix {name}: <{ns if base is None or rng.random() < 0.5 else 'ns/'}> .")
            prefixes.add(name)
        elif roll < 0.3:
            base = rng.choice(["http://one.example/dir/", "http://two.example/a/b"])
            out.append(f"@base <{base}> .")
        elif roll < 0.37:
            out.append("# a comment . [ ; ,")
        else:
            if rng.random() < 0.15:
                subject = f"[ {random_pol(rng, prefixes, base, 1)} ]" if rng.random() < 0.7 else "[ ]"
            elif rng.random() < 0.2:
                subject = f"_:{rng.choice(['x', 'y', 'n1', 'x.y'])}"
            else:
                subject = random_iri(rng, prefixes, base)
            if subject.startswith("[") and rng.random() < 0.3:
                out.append(f"{subject} .")
            else:
                out.append(f"{subject} {random_pol(rng, prefixes, base, 0)} .")
        # A comment runs to the end of its line.
        out.append("\n" if out[-1].startswith("#") or rng.random() < 0.6 else rng.choice([" ", "  # end\n"]))
    return "".join(out)


HAZARDS = ["@prefix", "@base", ";", ",", ".", "[", "]", "[ ]", "^^", "@en", "a", "ex:a", "_:x", '"h"', "<urn:h>", "#\n"]


def hazard(rng, doc):
    """``doc`` with one token from ``HAZARDS`` put in place of a space."""
    spaces = [k for k, c in enumerate(doc) if c == " "]
    k = rng.choice(spaces) if spaces else len(doc)
    return doc[:k] + f" {rng.choice(HAZARDS)} " + doc[k + 1 :]


def outcome(read, data):
    try:
        g = read(data)
    except ParseError as exc:
        return type(exc), exc.line, exc.column, exc.reason
    return list(g.match_ids(None, None, None)), list(g)


def test_reader_matches_the_reference_reader():
    rng = random.Random("turtle-reference")
    parsed = 0
    for case in range(300):
        data = TURTLE if case % 10 == 0 else random_document(rng).encode("utf-8")
        for doc in (data, mutate(rng, data), hazard(rng, data.decode("utf-8")).encode("utf-8")):
            expected = outcome(parse_reference, doc)
            assert outcome(parse_turtle_subset, doc) == expected, (case, doc)
            parsed += doc is data and not isinstance(expected[0], type)
    assert parsed == 300  # the documents themselves all parse


def test_each_term_is_built_once(monkeypatch):
    built = []

    def counting(post_init):
        def counted(self):
            built.append(self)
            post_init(self)

        return counted

    for cls in (Iri, Literal, BlankNode):
        monkeypatch.setattr(cls, "__post_init__", counting(cls.__post_init__))
    doc = """
        @prefix ex: <urn:ex:> .
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
        ex:s ex:p ex:o , <urn:ex:r> , _:n , "5"^^xsd:integer , "v"@en ; ex:q _:n , "5"^^xsd:integer .
        <urn:ex:r> ex:p "v"@en , "6"^^xsd:integer , [ ex:q ex:s ] , <urn:ex:r> .
        _:n ex:p "v"@en , "w" , "w"^^<urn:ex:dt> , ex:o , "w"^^<urn:ex:dt> .
    """
    g = parse(doc)
    monkeypatch.undo()
    terms = {t.subject for t in g} | {t.predicate for t in g} | {t.object for t in g}
    datatypes = {t.datatype for t in terms if isinstance(t, Literal) and t.language is None} - {XSD_STRING}
    # Each spelling is built once; so are the two directive IRIs.
    assert len(built) == len(terms | datatypes) + 2


@pytest.mark.parametrize(
    "text, column, reason",
    [
        # A tagged literal's memo entry does not stand for a typed one.
        ('ex:s ex:p "x"@en , "x"^^@en .', 25, "expected datatype IRI"),
        # A directive after ";" is no predicate.
        ("ex:s ex:p ex:o ; @prefix ex: <urn:ex:> .", 18, "expected predicate"),
        # A directive after a string is no language tag.
        ('ex:s ex:p "x"@prefix ex: <urn:ex:> .', 14, "expected '.'"),
    ],
)
def test_memoized_spellings_keep_their_errors(text, column, reason):
    with pytest.raises(ParseError) as err:
        parse("@prefix ex: <urn:ex:> .\n" + text)
    assert (err.value.line, err.value.column, err.value.reason) == (2, column, reason)


def test_a_redefined_prefix_changes_typed_literals():
    g = parse('@prefix d: <urn:a:> .\n<urn:s> <urn:p> "1"^^d:t .\n@prefix d: <urn:b:> .\n<urn:s> <urn:p> "1"^^d:t .\n')
    assert {t.object.datatype for t in g} == {Iri("urn:a:t"), Iri("urn:b:t")}
