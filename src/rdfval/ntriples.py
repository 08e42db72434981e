"""N-Triples reading and writing.

Parsing is line-oriented and atomic: the first malformed line aborts the
whole parse with its line and column. Blank node labels are renamed
``_:b{n}`` in parse order so serialization is deterministic. Serialization
is canonical: one triple per line, canonical term text, lines sorted
bytewise.
"""
from __future__ import annotations

import re
from typing import Iterator

from .graph import Graph, GraphBuilder
from .terms import BlankNode, Iri, Literal, XSD_STRING, term_text


class ParseError(ValueError):
    """Syntax error with 1-based line and column of the offending input."""

    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


_IRIREF = r"<([^\x00-\x20<>\"{}|^`\\]*)>"
# A label may hold dots but not end with one; each dot run is scanned once.
_BLANK = r"_:([A-Za-z0-9_][A-Za-z0-9_\-]*(?:\.+[A-Za-z0-9_\-]+)*)"
_LITERAL = r'"([^"\\\n\r]*(?:\\.[^"\\\n\r]*)*)"(?:@([a-zA-Z]{1,8}(?:-[a-zA-Z0-9]{1,8})*)|\^\^' + _IRIREF + r")?"

# One whole line from its first character, with its line break if any.
_LINE_RE = re.compile(
    rf"[ \t]*(?:(?:{_IRIREF}|{_BLANK})[ \t]+{_IRIREF}[ \t]+"
    rf"(?:{_IRIREF}|{_BLANK}|{_LITERAL})[ \t]*\.[ \t]*)?(?:#.*)?\r?(?:\n|\Z)"
)

_STRING_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


def unescape_string(raw: str, line: int, column: int) -> str:
    """Resolve N-Triples string escapes; positions feed error reports."""
    if "\\" not in raw:
        return raw
    out = []
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise ParseError(line, column + i, "dangling escape")
        e = raw[i + 1]
        if e in _STRING_ESCAPES:
            out.append(_STRING_ESCAPES[e])
            i += 2
        elif e == "u" or e == "U":
            width = 4 if e == "u" else 8
            hexpart = raw[i + 2 : i + 2 + width]
            if len(hexpart) != width or not re.fullmatch(r"[0-9A-Fa-f]+", hexpart):
                raise ParseError(line, column + i, f"bad \\{e} escape")
            code = int(hexpart, 16)
            if code > 0x10FFFF:
                raise ParseError(line, column + i, "escape beyond Unicode range")
            if 0xD800 <= code <= 0xDFFF:
                # A lone surrogate is no character: UTF-8 cannot encode it.
                raise ParseError(line, column + i, "escape names a surrogate code point")
            out.append(chr(code))
            i += 2 + width
        else:
            raise ParseError(line, column + i, f"unknown escape \\{e}")
    return "".join(out)


def decode_utf8(data: bytes | str) -> str:
    """``data`` as text; bytes that are not UTF-8 are a ParseError on the
    line of the first bad byte."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad_line = data[: exc.start].count(b"\n") + 1
        raise ParseError(bad_line, 1, f"input is not UTF-8: {exc.reason}") from None


def _column_of_error(line_text: str) -> int:
    # The regex rejected the line; walk it to report a useful column.
    stripped = line_text.rstrip()
    i = 0
    while i < len(stripped) and stripped[i] in " \t":
        i += 1
    if i < len(stripped) and stripped[i] == '"':
        # Most common case worth pinpointing: an unterminated literal.
        j = i + 1
        while j < len(stripped):
            if stripped[j] == "\\":
                j += 2
                continue
            if stripped[j] == '"':
                return j + 1
            j += 1
        return len(line_text) + 1
    return i + 1


def parse_ntriples(
    data: bytes | str, name: str | None = None, *, into: GraphBuilder | None = None, blank_prefix: str = ""
) -> Graph | None:
    """Parse N-Triples text into a frozen Graph; given ``into``, add its
    triples to that builder instead and return None.

    Duplicate triples collapse (set semantics). The whole parse fails on the
    first malformed line. Blank labels become ``blank_prefix`` followed by
    ``b0``, ``b1``, ... in first-seen order.
    """
    text = decode_utf8(data)
    del data  # frees input bytes the caller passed without keeping
    builder = GraphBuilder() if into is None else into
    _add_lines(text, builder, blank_prefix)
    if into is None:
        # The text and the parse memos are gone before the indexes are built.
        del text
        return builder.freeze(name=name)


def _add_lines(text: str, builder: GraphBuilder, blank_prefix: str) -> None:
    """Add every triple line of ``text`` to ``builder``.

    Each distinct token spelling (IRI text, blank label, literal groups) is
    turned into a term, checked and interned once; a repeat maps straight
    to its id.
    """
    intern = builder.intern
    add_ids = builder.add_ids
    match = _LINE_RE.match
    iris: dict[str, int] = {}
    blanks: dict[str, int] = {}
    literals: dict[tuple[str, str | None, str | None], int] = {}
    datatypes: dict[str, Iri] = {}
    n = len(text)
    start = 0
    lineno = 0
    while start < n:
        lineno += 1
        m = match(text, start)
        if m is None:
            end = text.find("\n", start)
            if end < 0:
                end = n
            line = text[start:end]
            if line.endswith("\r"):
                line = line[:-1]
            start = end + 1
            if line.isspace():
                continue
            raise ParseError(lineno, _column_of_error(line), "malformed triple line")
        line_start = start
        start = m.end()
        si, sb, pi, oi, ob, lex, lang, dt = m.groups()
        if si is not None:
            s = iris.get(si)
            if s is None:
                s = iris[si] = intern(_make_iri(si, lineno, m.start(1) - line_start))
        elif sb is not None:
            s = blanks.get(sb)
            if s is None:
                s = blanks[sb] = intern(BlankNode(f"{blank_prefix}b{len(blanks)}"))
        else:
            continue  # blank or comment-only line
        p = iris.get(pi)
        if p is None:
            p = iris[pi] = intern(_make_iri(pi, lineno, m.start(3) - line_start))
        if oi is not None:
            o = iris.get(oi)
            if o is None:
                o = iris[oi] = intern(_make_iri(oi, lineno, m.start(4) - line_start))
        elif ob is not None:
            o = blanks.get(ob)
            if o is None:
                o = blanks[ob] = intern(BlankNode(f"{blank_prefix}b{len(blanks)}"))
        else:
            key = (lex, lang, dt)
            o = literals.get(key)
            if o is None:
                lexical = unescape_string(lex, lineno, m.start(6) - line_start + 1)
                datatype = None
                if dt is not None:
                    datatype = datatypes.get(dt)
                    if datatype is None:
                        datatype = datatypes[dt] = _make_iri(dt, lineno, m.start(8) - line_start)
                term = make_literal(lexical, lang, datatype, lineno, m.start(6) - line_start)
                o = literals[key] = intern(term)
        add_ids(s, p, o)


def _make_iri(text: str, lineno: int, offset: int) -> Iri:
    try:
        return Iri(text)
    except ValueError as exc:
        raise ParseError(lineno, offset + 1, str(exc)) from None


def make_literal(
    lexical: str, language: str | None, datatype: Iri | None, line: int, column: int
) -> Literal:
    """The literal of a parsed string token whose opening quote is at
    ``column``; a literal the term model rejects, such as an rdf:langString
    without a language tag, raises ParseError there."""
    try:
        return Literal(lexical, datatype or XSD_STRING, language)
    except ValueError as exc:
        raise ParseError(line, column, str(exc)) from None


def serialize_ntriples(g: Graph) -> bytes:
    """Canonical N-Triples bytes: one line per triple, sorted by code point
    (which is UTF-8 byte order).

    The lines are written from the graph's ids and interned terms, which it
    checked when they were built.  They are unique, since the triples are
    distinct and ``term_text`` is injective on terms."""
    lines = sorted(_graph_lines(g))
    lines.append("")  # the final newline; an empty graph is no bytes
    text = "\n".join(lines)
    # The lines are freed here, before the encoded copy.
    del lines
    return text.encode("utf-8")


def _graph_lines(g: Graph) -> Iterator[str]:
    term = g.term
    subject = None
    for s, p, o in g.match_ids(None, None, None):
        # The rows come in subject order: a subject's text is made once
        # per run of its triples.
        if s != subject:
            subject = s
            head = f"{term_text(term(s))} "
        yield f"{head}{term_text(term(p))} {term_text(term(o))} ."
