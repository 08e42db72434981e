"""The Turtle subset reader as it was before its one-pass rewrite.

It tokenizes with one regex match per token, tracking lines and columns,
and parses by recursive descent. The only change is the ``PN_LOCAL`` rule
of Turtle 1.1: a local name may not start with ``.`` or ``-`` nor end with
``.``. ``test_turtle`` checks the reader against it, triple for triple and
error for error.
"""
from __future__ import annotations

import re
from urllib.parse import urljoin

from rdfval.graph import Graph, GraphBuilder
from rdfval.ntriples import ParseError, decode_utf8, make_literal, unescape_string
from rdfval.terms import BlankNode, Iri, Literal, RDF_TYPE, SCHEME_RE, Term
from rdfval.turtle import UnsupportedFeature


# Leading whitespace, then one optional alternation, tried in this priority
# order; the first alternative that matches names the token. A triple-quoted
# string comes first because STRING would take its first two quotes. Other
# unsupported forms cannot start any token, so they surface where nothing
# but whitespace matches (``_reject``).
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:"
    + "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in [
            ("TRIPLE_QUOTED", r'"""'),
            ("COMMENT", r"#[^\n]*"),
            ("PREFIX_DIR", r"@prefix\b"),
            ("BASE_DIR", r"@base\b"),
            ("IRIREF", r"<[^\x00-\x20<>\"{}|^`\\]*>"),
            ("BLANK", r"_:[A-Za-z0-9_][A-Za-z0-9_\-]*(?:\.+[A-Za-z0-9_\-]+)*"),
            ("STRING", r'"(?:[^"\\\n\r]|\\.)*"'),
            ("LANGTAG", r"@[a-zA-Z]{1,8}(?:-[a-zA-Z0-9]{1,8})*"),
            ("DTSEP", r"\^\^"),
            ("PNAME", r"(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_](?:[A-Za-z0-9_\-]|\.(?=[A-Za-z0-9_\-.]*[A-Za-z0-9_\-]))*)?"),
            ("A", r"a(?![A-Za-z0-9_])"),
            ("DOT", r"\."),
            ("SEMI", r";"),
            ("COMMA", r","),
            ("LBRACKET", r"\["),
            ("RBRACKET", r"\]"),
            ("LPAREN", r"\("),
            ("WORD", r"[A-Za-z][A-Za-z0-9_]*"),
        ]
    )
    + ")?"
)


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value: str, line: int, column: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        m = match(text, pos)
        kind = m.lastgroup
        end = m.end()
        # Only the leading whitespace can hold newlines.
        start = end if kind is None else m.start(kind)
        if start != pos:
            newlines = text.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, start) + 1
        col = start - line_start + 1
        if kind is None:
            if end < n:
                _reject(text, end, line, col)
        elif kind == "COMMENT":
            pass
        elif kind == "WORD":
            word = m.group(kind)
            if word.upper() in ("PREFIX", "BASE"):
                raise UnsupportedFeature(line, col, "SPARQL-style directive")
            if word in ("true", "false"):
                raise UnsupportedFeature(line, col, "boolean literal shorthand")
            raise ParseError(line, col, f"unexpected word {word!r}")
        elif kind == "LPAREN":
            raise UnsupportedFeature(line, col, "collection")
        elif kind == "TRIPLE_QUOTED":
            raise UnsupportedFeature(line, col, "triple-quoted string")
        else:
            append(_Token(kind, m.group(kind), line, col))
        pos = end
    tokens.append(_Token("EOF", "", line, n - line_start + 1))
    return tokens


def _reject(text: str, pos: int, line: int, col: int) -> None:
    """Raise the error for a position where no token starts."""
    ch = text[pos]
    if text.startswith("'''", pos):
        raise UnsupportedFeature(line, col, "triple-quoted string")
    if text.startswith("<<", pos):
        raise UnsupportedFeature(line, col, "quoted triple")
    if ch == "'":
        raise UnsupportedFeature(line, col, "single-quoted string")
    if ch.isdigit() or (ch in "+-" and pos + 1 < len(text) and (text[pos + 1].isdigit() or text[pos + 1] == ".")):
        raise UnsupportedFeature(line, col, "numeric literal shorthand")
    raise ParseError(line, col, f"unexpected character {ch!r}")


class _TurtleParser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.base: str | None = None
        self.prefixes: dict[str, str] = {}
        self.builder = GraphBuilder()
        # IRIREF/PNAME token text -> its checked IRI, valid until the next
        # directive. Ids are assigned when a triple is added, as a
        # bracketed object adds its own triples before the outer one.
        self._iris: dict[str, Iri] = {}
        self._blank_count = 0
        self._blank_map: dict[str, BlankNode] = {}

    # ---- token helpers ------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(tok.line, tok.column, f"expected {what}")
        return tok

    def _fresh_blank(self) -> BlankNode:
        node = BlankNode(f"b{self._blank_count}")
        self._blank_count += 1
        return node

    def _labeled_blank(self, label: str) -> BlankNode:
        node = self._blank_map.get(label)
        if node is None:
            node = self._fresh_blank()
            self._blank_map[label] = node
        return node

    # ---- IRI handling -------------------------------------------------------

    def _resolve_iri(self, raw: str, tok: _Token) -> Iri:
        relative = not SCHEME_RE.match(raw)
        if relative and self.base is None:
            raise ParseError(tok.line, tok.column, f"relative IRI without a base: {raw!r}")
        try:  # urljoin raises ValueError too, on a bracket in the base's authority
            return Iri(urljoin(self.base, raw) if relative else raw)
        except ValueError as exc:
            raise ParseError(tok.line, tok.column, str(exc)) from None

    def _iri(self, tok: _Token) -> Iri:
        """The IRI an IRIREF or PNAME token stands for."""
        iri = self._iris.get(tok.value)
        if iri is None:
            if tok.kind == "IRIREF":
                iri = self._resolve_iri(tok.value[1:-1], tok)
            else:
                iri = self._expand_pname(tok)
            self._iris[tok.value] = iri
        return iri

    def _expand_pname(self, tok: _Token) -> Iri:
        m = re.match(r"^([A-Za-z][A-Za-z0-9_\-]*)?:(.*)$", tok.value)
        prefix = m.group(1) or ""
        local = m.group(2)
        ns = self.prefixes.get(prefix)
        if ns is None:
            raise ParseError(tok.line, tok.column, f"undeclared prefix {prefix + ':'!r}")
        try:
            return Iri(ns + local)
        except ValueError as exc:
            raise ParseError(tok.line, tok.column, str(exc)) from None

    # ---- grammar ------------------------------------------------------------

    def parse(self) -> None:
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind == "PREFIX_DIR":
                self.next()
                pname = self.expect("PNAME", "prefix name")
                if not pname.value.endswith(":") or ":" in pname.value[:-1]:
                    raise ParseError(pname.line, pname.column, "expected prefix declaration")
                iritok = self.expect("IRIREF", "IRI")
                self.expect("DOT", "'.'")
                prefix = pname.value[:-1]
                self.prefixes[prefix] = self._resolve_iri(iritok.value[1:-1], iritok).text
                self._iris.clear()
            elif tok.kind == "BASE_DIR":
                self.next()
                iritok = self.expect("IRIREF", "IRI")
                self.expect("DOT", "'.'")
                self.base = self._resolve_iri(iritok.value[1:-1], iritok).text
                self._iris.clear()
            else:
                self._triples()
                self.expect("DOT", "'.'")

    def _triples(self) -> None:
        tok = self.peek()
        if tok.kind == "LBRACKET":
            subject = self._blank_property_list()
            # A bare "[ ... ] ." statement is legal; further predicates optional.
            if self.peek().kind != "DOT":
                self._predicate_object_list(subject)
            return
        subject = self._subject()
        self._predicate_object_list(subject)

    def _subject(self) -> Term:
        tok = self.next()
        if tok.kind == "IRIREF" or tok.kind == "PNAME":
            return self._iri(tok)
        if tok.kind == "BLANK":
            return self._labeled_blank(tok.value[2:])
        raise ParseError(tok.line, tok.column, "expected subject")

    def _predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self._verb()
            self._object_list(subject, predicate)
            if self.peek().kind == "SEMI":
                # Consume runs of semicolons; a trailing one ends the list.
                while self.peek().kind == "SEMI":
                    self.next()
                nxt = self.peek().kind
                if nxt in ("DOT", "RBRACKET", "EOF"):
                    return
                continue
            return

    def _verb(self) -> Iri:
        tok = self.next()
        if tok.kind == "A":
            return RDF_TYPE
        if tok.kind == "IRIREF" or tok.kind == "PNAME":
            return self._iri(tok)
        raise ParseError(tok.line, tok.column, "expected predicate")

    def _object_list(self, subject: Term, predicate: Iri) -> None:
        intern = self.builder.intern
        while True:
            obj = self._object()
            self.builder.add_ids(intern(subject), intern(predicate), intern(obj))
            if self.peek().kind == "COMMA":
                self.next()
                continue
            return

    def _object(self) -> Term:
        tok = self.peek()
        if tok.kind == "LBRACKET":
            return self._blank_property_list()
        self.next()
        if tok.kind == "IRIREF" or tok.kind == "PNAME":
            return self._iri(tok)
        if tok.kind == "BLANK":
            return self._labeled_blank(tok.value[2:])
        if tok.kind == "STRING":
            return self._literal(tok)
        raise ParseError(tok.line, tok.column, "expected object")

    def _literal(self, tok: _Token) -> Literal:
        raw = tok.value[1:-1]
        lexical = unescape_string(raw, tok.line, tok.column + 1)
        language = datatype = None
        nxt = self.peek()
        if nxt.kind == "LANGTAG":
            self.next()
            language = nxt.value[1:]
        elif nxt.kind == "DTSEP":
            self.next()
            dtok = self.next()
            if dtok.kind != "IRIREF" and dtok.kind != "PNAME":
                raise ParseError(dtok.line, dtok.column, "expected datatype IRI")
            datatype = self._iri(dtok)
        return make_literal(lexical, language, datatype, tok.line, tok.column)

    def _blank_property_list(self) -> BlankNode:
        open_tok = self.expect("LBRACKET", "'['")
        node = self._fresh_blank()
        if self.peek().kind == "RBRACKET":
            self.next()
            return node
        self._predicate_object_list(node)
        closing = self.next()
        if closing.kind != "RBRACKET":
            raise ParseError(open_tok.line, open_tok.column, "unclosed '['")
        return node


def parse_reference(data: bytes | str) -> Graph:
    parser = _TurtleParser(decode_utf8(data))
    parser.parse()
    return parser.builder.freeze()
