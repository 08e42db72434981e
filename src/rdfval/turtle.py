"""Turtle subset reader.

Supported: ``@prefix``/``@base`` directives, IRIs and prefixed names, the
``a`` keyword, object lists (``,``), predicate-object lists (``;``),
blank-node property lists (``[ ]``), labeled blank nodes, and string
literals with language tags or datatypes. Everything else in full Turtle
(collections, numeric/boolean shorthand, triple-quoted strings, SPARQL-style
directives, quoted triples) raises UnsupportedFeature rather than parsing
wrongly.

One ``findall`` of ``_TOKEN_RE`` splits the whole text into tokens in C; a
token's kind follows from its text. No positions are kept: an error re-scans
the text up to the failing token for its line and column, and a refused
token is an error before any grammar error. The grammar walks the tokens
with an index and keeps open ``[ ]`` lists on an explicit stack, so nesting
depth is bounded by memory alone. Each IRI or prefixed name spelling (until
the next directive), blank label and literal spelling becomes a term once.
Term ids follow the order in which triples are added, so the triples inside
a bracketed object take ids before the triple that holds it.
"""
from __future__ import annotations

import re
from itertools import islice
from operator import itemgetter
from urllib.parse import urljoin

from .graph import Graph, GraphBuilder
from .ntriples import ParseError, decode_utf8, make_literal, unescape_string
from .terms import BlankNode, Iri, Literal, RDF_TYPE, SCHEME_RE


class UnsupportedFeature(ParseError):
    """Input uses Turtle syntax outside the supported subset."""

    def __init__(self, line: int, column: int, feature: str):
        super().__init__(line, column, f"unsupported syntax: {feature}")
        self.feature = feature


# Whitespace and comments, then at most one token, in one of three groups: a
# directive, a token of the subset or a refused token. The last alternative
# takes any other character, so the matches cover the text and only the
# final ones are empty. Only the first refused token is reported, so its
# match takes the rest of the text: a failed scan, such as the prefix part
# of a name that turns out to have no ":", is then never repeated from each
# later character. A local name or a blank label may not start with "." or
# "-" nor end with "."; its dot runs are scanned once each, so long runs
# stay linear. A name with and one without a prefix are two alternatives,
# which match faster than one with an optional prefix.
_LOCAL = r"(?:[A-Za-z0-9_][A-Za-z0-9_\-]*(?:\.+[A-Za-z0-9_\-]+)*)?"
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*(?:(@prefix\b|@base\b)|("
    r"<[^\x00-\x20<>\"{}|^`\\]*>"
    r"|_:[A-Za-z0-9_][A-Za-z0-9_\-]*(?:\.+[A-Za-z0-9_\-]+)*"
    r'|"(?!"")(?:[^"\\\n\r]|\\.)*"'
    r"|@[a-zA-Z]{1,8}(?:-[a-zA-Z0-9]{1,8})*"
    r"|\^\^"
    rf"|[A-Za-z][A-Za-z0-9_\-]*:{_LOCAL}|:{_LOCAL}"
    r"|a(?![A-Za-z0-9_])"
    r"|[.;,\[\]]"
    r')|("""|[A-Za-z][A-Za-z0-9_]*|[^ \t\r\n])[\s\S]*)?'
)


def _offset(text: str, k: int) -> int:
    """Where token ``k`` starts; past the last token, the end of the text."""
    m = next(islice(_TOKEN_RE.finditer(text), k, None))
    return m.start(m.lastindex) if m.lastindex else m.end()


def _error_at(text: str, offset: int, reason: str, cls: type[ParseError] = ParseError) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return cls(line, offset - text.rfind("\n", 0, offset), reason)


def _refusal(text: str, k: int, token: str) -> ParseError:
    """The error for refused token ``k``."""
    pos = _offset(text, k)
    nxt = text[pos + 1 : pos + 2]
    if token == '"""' or text.startswith("'''", pos):
        feature = "triple-quoted string"
    elif token[0].isascii() and token[0].isalpha():
        if token.upper() in ("PREFIX", "BASE"):
            feature = "SPARQL-style directive"
        elif token in ("true", "false"):
            feature = "boolean literal shorthand"
        else:
            return _error_at(text, pos, f"unexpected word {token!r}")
    elif token == "(":
        feature = "collection"
    elif token == "<" and nxt == "<":
        feature = "quoted triple"
    elif token == "'":
        feature = "single-quoted string"
    elif token.isdigit() or (token in "+-" and (nxt.isdigit() or nxt == ".")):
        feature = "numeric literal shorthand"
    else:
        return _error_at(text, pos, f"unexpected character {token!r}")
    return _error_at(text, pos, feature, UnsupportedFeature)


_DIRECTIVES = ("@prefix", "@base")
_OBJECT, _VERB, _END = range(3)  # what a statement reads next


class _Reader:
    """One document's tokens, the directives in force and the term memos,
    which map each spelling to its term."""

    def __init__(self, text: str, blank_prefix: str):
        self.text = text
        self.blank_prefix = blank_prefix
        tokens = _TOKEN_RE.findall(text)
        if any(map(itemgetter(2), tokens)):
            k = next(k for k, tok in enumerate(tokens) if tok[2])
            raise _refusal(text, k, tokens[k][2])
        # One column is kept, and the tuples, most of the tokens' memory, are
        # freed before any triple is added. A token of the subset never reads
        # "@prefix" or "@base", which the directive group takes first.
        self.texts = [d or t for d, t, _ in tokens]
        self.base: str | None = None
        self.prefixes: dict[str, str] = {}
        # IRIs and literals are dropped at each directive, since a prefixed
        # name or a relative IRI may then mean another IRI.
        self.iris: dict[str, Iri] = {}
        self.literals: dict[str | tuple[str, ...], Literal] = {}
        self.blanks: dict[str, BlankNode] = {}
        self.blank_count = 0

    def error(self, k: int, reason: str, shift: int = 0) -> ParseError:
        """A ParseError at token ``k``, or ``shift`` characters into it."""
        return _error_at(self.text, _offset(self.text, k) + shift, reason)

    def fresh_blank(self) -> BlankNode:
        self.blank_count += 1
        return BlankNode(f"{self.blank_prefix}b{self.blank_count - 1}")

    def labeled_blank(self, t: str) -> BlankNode:
        node = self.blanks.get(t)
        if node is None:
            node = self.blanks[t] = self.fresh_blank()
        return node

    def resolve(self, raw: str, k: int) -> Iri:
        relative = not SCHEME_RE.match(raw)
        if relative and self.base is None:
            raise self.error(k, f"relative IRI without a base: {raw!r}")
        try:  # urljoin raises ValueError too, on a bracket in the base's authority
            return Iri(urljoin(self.base, raw) if relative else raw)
        except ValueError as exc:
            raise self.error(k, str(exc)) from None

    def iri(self, k: int, expected: str) -> Iri:
        """The IRI that the IRIREF or prefixed name at ``k`` stands for."""
        t = self.texts[k]
        iri = self.iris.get(t)
        if iri is None:
            if t[:1] == "<":
                iri = self.resolve(t[1:-1], k)
            elif ":" in t and t[0] not in '_"':
                prefix, _, local = t.partition(":")
                ns = self.prefixes.get(prefix)
                if ns is None:
                    raise self.error(k, f"undeclared prefix {prefix + ':'!r}")
                try:
                    iri = Iri(ns + local)
                except ValueError as exc:
                    raise self.error(k, str(exc)) from None
            else:
                raise self.error(k, f"expected {expected}")
            self.iris[t] = iri
        return iri

    def literal(self, k: int) -> tuple[Literal, int]:
        """The literal whose string token is at ``k``, and its last token."""
        texts = self.texts
        t, suffix = texts[k], texts[k + 1]
        if suffix[:1] == "@" and suffix not in _DIRECTIVES:
            key, end = (t, suffix), k + 1
        elif suffix == "^^":
            key, end = (t, suffix, texts[k + 2]), k + 2
        else:
            key, end = t, k
        lit = self.literals.get(key)
        if lit is None:
            try:
                lexical = unescape_string(t[1:-1], 0, 0)
            except ParseError as exc:
                raise self.error(k, exc.reason, 1 + exc.column) from None
            language = datatype = None
            if end == k + 1:
                language = suffix[1:]
            elif suffix == "^^":
                datatype = self.iri(k + 2, "datatype IRI")
            try:
                lit = make_literal(lexical, language, datatype, 0, 0)
            except ParseError as exc:
                raise self.error(k, exc.reason) from None
            self.literals[key] = lit
        return lit, end

    def directive(self, k: int) -> int:
        """Apply the directive at ``k``; the index after it."""
        texts = self.texts
        prefix = None
        if texts[k] == "@prefix":
            k += 1
            pname = texts[k]
            if ":" not in pname or pname[0] in '<_"':
                raise self.error(k, "expected prefix name")
            if not pname.endswith(":"):
                raise self.error(k, "expected prefix declaration")
            prefix = pname[:-1]
        if texts[k + 1][:1] != "<":
            raise self.error(k + 1, "expected IRI")
        if texts[k + 2] != ".":
            raise self.error(k + 2, "expected '.'")
        value = self.resolve(texts[k + 1][1:-1], k + 1).text
        if prefix is None:
            self.base = value
        else:
            self.prefixes[prefix] = value
        self.iris.clear()
        self.literals.clear()
        return k + 3

    def read(self, builder: GraphBuilder) -> None:
        """Add the document's triples to ``builder``, interning each term
        when its first triple is added."""
        texts, iris = self.texts, self.iris
        intern, add_ids = builder.intern, builder.add_ids
        # One entry per open "[": the subject and predicate whose object it
        # is (None for a statement's subject), its node, the index of "[".
        stack: list[tuple] = []
        i = 0
        while True:
            t = texts[i]
            if not t:
                return  # the end of the input
            if t in _DIRECTIVES:
                i = self.directive(i)
                continue
            # A statement: its subject, then predicates and objects, until
            # the next step is the closing ".".
            step = _VERB
            if t == "[":
                subject = self.fresh_blank()
                i += 1
                if texts[i] != "]":
                    stack.append((None, None, subject, i - 1))
                else:
                    i += 1
                    if texts[i] == ".":  # a lone "[ ]"
                        step = _END
            else:
                subject = iris.get(t)
                if subject is None:
                    subject = self.labeled_blank(t) if t[0] == "_" else self.iri(i, "subject")
                i += 1
            while step == _VERB:
                t = texts[i]
                predicate = RDF_TYPE if t == "a" else iris.get(t)
                if predicate is None:
                    predicate = self.iri(i, "predicate")
                i += 1
                step = _OBJECT
                while step == _OBJECT:
                    t = texts[i]
                    obj = iris.get(t)
                    if obj is None:
                        if t[:1] == '"':
                            obj, i = self.literal(i)
                        elif t == "[":
                            obj = self.fresh_blank()
                            if texts[i + 1] != "]":
                                # The bracket's own triples come first.
                                stack.append((subject, predicate, obj, i))
                                subject = obj
                                i += 1
                                step = _VERB
                                break
                            i += 1
                        elif t[:1] == "_":
                            obj = self.labeled_blank(t)
                        else:
                            obj = self.iri(i, "object")
                    i += 1
                    add_ids(intern(subject), intern(predicate), intern(obj))
                    # After an object: another object, another predicate, or
                    # the end of a list, which may close brackets.
                    while True:
                        t = texts[i]
                        if t == ",":
                            i += 1
                            break
                        if t == ";":
                            i += 1
                            while texts[i] == ";":
                                i += 1
                            t = texts[i]
                            if t != "." and t != "]" and t:
                                step = _VERB
                                break
                        if not stack:
                            step = _END
                            break
                        subject_of, predicate_of, node, opened = stack.pop()
                        if t != "]":
                            raise self.error(opened, "unclosed '['")
                        i += 1
                        if subject_of is None:  # a statement's "[ ]" subject
                            subject = node
                            step = _END if texts[i] == "." else _VERB
                            break
                        subject, predicate = subject_of, predicate_of
                        add_ids(intern(subject), intern(predicate), intern(node))
            if texts[i] != ".":
                raise self.error(i, "expected '.'")
            i += 1


def parse_turtle_subset(
    data: bytes | str, name: str | None = None, *, into: GraphBuilder | None = None, blank_prefix: str = ""
) -> Graph | None:
    """Parse the supported Turtle subset into a frozen Graph; given ``into``,
    add its triples to that builder instead and return None. Blank nodes
    become ``blank_prefix`` followed by ``b0``, ``b1``, ... in reading order."""
    text = decode_utf8(data)
    del data  # frees input bytes the caller passed without keeping
    builder = GraphBuilder() if into is None else into
    # The reader, its tokens and its memos are gone once read returns.
    _Reader(text, blank_prefix).read(builder)
    if into is None:
        del text
        return builder.freeze(name=name)
