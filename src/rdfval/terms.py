"""RDF terms and triples.

Three term kinds: IRIs, blank nodes, and literals. Literals always carry a
datatype; a language tag is present exactly when the datatype is
``rdf:langString``, and tags are lowercased on construction so equality is
case-insensitive by construction.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

XSD = "http://www.w3.org/2001/XMLSchema#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"

SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
# A lone surrogate (D800-DFFF) is no Unicode scalar value and UTF-8 cannot
# hold it, so neither an IRI nor a lexical form may carry one.
BAD_IRI_CHARS = re.compile(r'[\x00-\x20<>"{}|^`\\\ud800-\udfff]')
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")
_BLANK_LABEL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]*$")
_LANG_TAG_RE = re.compile(r"^[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})*$")


class Term:
    """Base class for Iri, BlankNode, and Literal."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Iri(Term):
    text: str

    def __post_init__(self) -> None:
        if not SCHEME_RE.match(self.text):
            raise ValueError(f"not an absolute IRI (missing scheme): {self.text!r}")
        if BAD_IRI_CHARS.search(self.text):
            raise ValueError(f"forbidden character in IRI: {self.text!r}")

    def __repr__(self) -> str:
        return f"Iri({self.text!r})"


@dataclass(frozen=True, slots=True)
class BlankNode(Term):
    label: str

    def __post_init__(self) -> None:
        if not _BLANK_LABEL_RE.match(self.label):
            raise ValueError(f"bad blank node label: {self.label!r}")

    def __repr__(self) -> str:
        return f"BlankNode({self.label!r})"


XSD_STRING = Iri(XSD + "string")
XSD_BOOLEAN = Iri(XSD + "boolean")
XSD_INTEGER = Iri(XSD + "integer")
XSD_NON_NEGATIVE_INTEGER = Iri(XSD + "nonNegativeInteger")
XSD_DECIMAL = Iri(XSD + "decimal")
XSD_DOUBLE = Iri(XSD + "double")
XSD_DATE = Iri(XSD + "date")
XSD_DATETIME = Iri(XSD + "dateTime")
XSD_GYEAR = Iri(XSD + "gYear")
XSD_ANY_URI = Iri(XSD + "anyURI")

RDF_TYPE = Iri(RDF + "type")
RDF_LANGSTRING = Iri(RDF + "langString")


@dataclass(frozen=True, slots=True)
class Literal(Term):
    lexical: str
    datatype: Iri = field(default=XSD_STRING)
    language: str | None = None

    def __post_init__(self) -> None:
        if not self.lexical.isascii() and _SURROGATE_RE.search(self.lexical):
            raise ValueError(f"surrogate code point in literal: {self.lexical!r}")
        lang = self.language
        if lang is not None:
            if not _LANG_TAG_RE.match(lang):
                raise ValueError(f"bad language tag: {lang!r}")
            object.__setattr__(self, "language", lang.lower())
            # A tagged literal is an rdf:langString; callers may omit the datatype.
            if self.datatype == XSD_STRING:
                object.__setattr__(self, "datatype", RDF_LANGSTRING)
            elif self.datatype != RDF_LANGSTRING:
                raise ValueError("language tag requires the rdf:langString datatype")
        elif self.datatype == RDF_LANGSTRING:
            raise ValueError("rdf:langString literal requires a language tag")

    def __repr__(self) -> str:
        if self.language is not None:
            return f"Literal({self.lexical!r}, language={self.language!r})"
        if self.datatype == XSD_STRING:
            return f"Literal({self.lexical!r})"
        return f"Literal({self.lexical!r}, datatype={self.datatype.text!r})"


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self) -> None:
        if isinstance(self.subject, Literal):
            raise ValueError("triple subject cannot be a literal")
        if not isinstance(self.subject, (Iri, BlankNode)):
            raise ValueError("triple subject must be an IRI or blank node")
        if not isinstance(self.predicate, Iri):
            raise ValueError("triple predicate must be an IRI")
        if not isinstance(self.object, Term):
            raise ValueError("triple object must be a term")


_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
    "\b": "\\b",
    "\f": "\\f",
}


_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f\x7f"\\]')


def _escape_literal(text: str) -> str:
    if _NEEDS_ESCAPE.search(text) is None:
        return text
    out = []
    for ch in text:
        esc = _ESCAPES.get(ch)
        if esc is not None:
            out.append(esc)
        elif ch < "\x20" or ch == "\x7f":
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def plain_literal_text(lexical: str) -> str:
    """Canonical N-Triples rendering of a plain (xsd:string) literal."""
    return f'"{_escape_literal(lexical)}"'


def term_text(term: Term) -> str:
    """Canonical N-Triples rendering of a term.

    Plain strings (xsd:string) omit the datatype suffix; language-tagged
    literals render with their lowercased tag.
    """
    if isinstance(term, Iri):
        return f"<{term.text}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        body = plain_literal_text(term.lexical)
        if term.language is not None:
            return f"{body}@{term.language}"
        if term.datatype == XSD_STRING:
            return body
        return f"{body}^^<{term.datatype.text}>"
    raise TypeError(f"not a term: {term!r}")


def triple_text(t: Triple) -> str:
    """One canonical N-Triples line, without the newline."""
    return (
        f"{term_text(t.subject)} {term_text(t.predicate)} {term_text(t.object)} ."
    )
