"""N-Triples reading and writing.

Parsing is line-oriented and atomic: the first malformed line aborts the
whole parse with its line and column. Blank node labels are renamed
``_:b{n}`` in parse order so serialization is deterministic. Serialization
is canonical: one triple per line, canonical term text, lines sorted
bytewise.
"""
from __future__ import annotations

import re
from typing import Iterable

from .graph import Graph, GraphBuilder
from .terms import (
    BlankNode,
    Iri,
    Literal,
    Term,
    Triple,
    triple_text,
)


class ParseError(ValueError):
    """Syntax error with 1-based line and column of the offending input."""

    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


_IRIREF = r"<([^\x00-\x20<>\"{}|^`\\]*)>"
_BLANK = r"_:([A-Za-z0-9_][A-Za-z0-9_.\-]*)"
_LITERAL = r'"((?:[^"\\\n\r]|\\.)*)"(?:@([a-zA-Z]{1,8}(?:-[a-zA-Z0-9]{1,8})*)|\^\^' + _IRIREF + r")?"

_LINE_RE = re.compile(
    rf"^[ \t]*(?:(?:{_IRIREF}|{_BLANK})[ \t]+{_IRIREF}[ \t]+"
    rf"(?:{_IRIREF}|{_BLANK}|{_LITERAL})[ \t]*\.[ \t]*)?(?:#.*)?$"
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
            out.append(chr(code))
            i += 2 + width
        else:
            raise ParseError(line, column + i, f"unknown escape \\{e}")
    return "".join(out)


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


class _BlankScope:
    """Renames blank labels to b0, b1, ... in first-seen order."""

    __slots__ = ("_map",)

    def __init__(self) -> None:
        self._map: dict[str, BlankNode] = {}

    def node(self, label: str) -> BlankNode:
        node = self._map.get(label)
        if node is None:
            node = BlankNode(f"b{len(self._map)}")
            self._map[label] = node
        return node


def parse_ntriples(data: bytes | str, name: str | None = None) -> Graph:
    """Parse N-Triples text into a frozen Graph.

    Duplicate triples collapse (set semantics). The whole parse fails on the
    first malformed line.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            bad_line = data[: exc.start].count(b"\n") + 1
            raise ParseError(bad_line, 1, f"input is not UTF-8: {exc.reason}") from None
    else:
        text = data
    builder = GraphBuilder()
    scope = _BlankScope()
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.endswith("\r"):
            line = line[:-1]
        if not line or line.isspace():
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise ParseError(lineno, _column_of_error(line), "malformed triple line")
        if m.group(1) is None and m.group(2) is None:
            continue  # comment-only line
        subject: Term
        if m.group(1) is not None:
            subject = _make_iri(m.group(1), lineno, m.start(1))
        else:
            subject = scope.node(m.group(2))
        predicate = _make_iri(m.group(3), lineno, m.start(3))
        obj: Term
        if m.group(4) is not None:
            obj = _make_iri(m.group(4), lineno, m.start(4))
        elif m.group(5) is not None:
            obj = scope.node(m.group(5))
        else:
            lexical = unescape_string(m.group(6), lineno, m.start(6) + 1)
            lang = m.group(7)
            dt = m.group(8)
            if lang is not None:
                obj = Literal(lexical, language=lang)
            elif dt is not None:
                obj = Literal(lexical, datatype=_make_iri(dt, lineno, m.start(8)))
            else:
                obj = Literal(lexical)
        builder.add(subject, predicate, obj)
    return builder.freeze(name=name)


def _make_iri(text: str, lineno: int, start: int) -> Iri:
    try:
        return Iri(text)
    except ValueError as exc:
        raise ParseError(lineno, start + 1, str(exc)) from None


def canonical_lines(lines: Iterable[str]) -> bytes:
    """Canonical N-Triples bytes from triple lines without newlines:
    unique lines, sorted by code point (which is UTF-8 byte order)."""
    unique = sorted(set(lines))
    if not unique:
        return b""
    return ("\n".join(unique) + "\n").encode("utf-8")


def serialize_ntriples(g: Graph | Iterable[Triple]) -> bytes:
    """Canonical N-Triples bytes: sorted unique lines, one triple each."""
    return canonical_lines(triple_text(t) for t in g)
