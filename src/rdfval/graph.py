"""Immutable indexed triple store.

Each distinct term is interned once and referenced by a dense integer id.
The three orderings (SPO, POS, OSP) are sorted sequences of packed integer
triples. One rule picks the index for each of the eight bound/unbound
shapes: POS when the predicate is bound and the subject is not, OSP when
the object is bound and the predicate is not, SPO otherwise. The bound
positions then form a prefix of that index's order, so every lookup is a
pair of bisections. SPO and POS are built at freeze; validation never binds
the object without the predicate, so OSP is built on the first such lookup.
While a packed triple fits in 64 bits (up to 2**21 distinct terms) each
index is an ``array("Q")`` of machine words; wider graphs keep plain lists
of ints. Graphs are immutable once built; builders are single-writer.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import groupby
from typing import Iterator, Sequence

from .terms import Iri, Literal, Term, Triple

# Packing uses at least 21 bits per position so graphs with up to two million
# distinct terms keep index entries within one machine word.
_MIN_BITS = 21


def _words(entries: list[int], bits: int) -> Sequence[int]:
    """A sorted index: 8-byte words when three ``bits``-wide positions fit
    in 64 bits, else the list itself."""
    return array("Q", entries) if 3 * bits <= 64 else entries


class Graph:
    """A frozen set of triples with SPO/POS/OSP indexes.

    Build via ``GraphBuilder``. SPO and POS are word arrays (plain lists
    past 2**21 distinct terms); OSP is built by the first lookup that binds
    the object but not the predicate. All query operations answer as if
    read-only and are safe to share across threads: threads racing on the
    first OSP lookup each build a complete index, and one of them is kept.
    """

    __slots__ = ("name", "_terms", "_ids", "_bits", "_mask", "_spo", "_pos", "_osp")

    def __init__(
        self,
        terms: list[Term],
        ids: dict[Term, int],
        flat: list[int],
        name: str | None = None,
    ):
        """``flat`` holds the triples as ids, subject, predicate, object,
        one triple after another; it is emptied once packed."""
        self.name = name
        self._terms = terms
        self._ids = ids
        bits = max(_MIN_BITS, max(1, len(terms)).bit_length())
        self._bits = bits
        mask = self._mask = (1 << bits) - 1
        two = 2 * bits
        it = iter(flat)
        packed = [(s << two) | (p << bits) | o for s, p, o in zip(it, it, it)]
        flat.clear()
        packed.sort()
        spo = self._spo = _words([v for v, _ in groupby(packed)], bits)
        del packed
        self._pos = _words(sorted((((v >> bits) & mask) << two) | ((v & mask) << bits) | (v >> two) for v in spo), bits)
        self._osp: Sequence[int] | None = None

    # ---- size and iteration -------------------------------------------------

    def __len__(self) -> int:
        return len(self._spo)

    def __iter__(self) -> Iterator[Triple]:
        bits, mask = self._bits, self._mask
        terms = self._terms
        for v in self._spo:
            yield Triple(terms[v >> (2 * bits)], terms[(v >> bits) & mask], terms[v & mask])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if len(self) != len(other):
            return False
        return set(self) == set(other)

    def __hash__(self) -> int:  # pragma: no cover - graphs are not dict keys
        raise TypeError("graphs are unhashable")

    # ---- term interning -----------------------------------------------------

    def term_id(self, term: Term) -> int | None:
        """Dense id of an interned term, or None if absent from the graph."""
        return self._ids.get(term)

    def term(self, term_id: int) -> Term:
        return self._terms[term_id]

    # ---- matching -----------------------------------------------------------

    def _osp_index(self) -> Sequence[int]:
        osp = self._osp
        if osp is None:
            # Assigned once, complete: a racing thread keeps its own build.
            bits, mask = self._bits, self._mask
            two = 2 * bits
            osp = self._osp = _words(sorted(((v & mask) << two) | ((v >> two) << bits) | ((v >> bits) & mask) for v in self._spo), bits)
        return osp

    def _lookup(self, s: int | None, p: int | None, o: int | None) -> tuple[Sequence[int], str, range]:
        """The index serving a lookup (by the rule in the module docstring),
        its field order, and the range of its entries that match."""
        if p is not None and s is None:
            index, order, a, b, c = self._pos, "pos", p, o, s
        elif o is not None and p is None:
            index, order, a, b, c = self._osp_index(), "osp", o, s, p
        else:
            index, order, a, b, c = self._spo, "spo", s, p, o
        if a is None:
            return index, order, range(len(index))
        bits = self._bits
        lo, width = a << (2 * bits), 1 << (2 * bits)
        if b is not None:
            lo, width = lo | (b << bits), 1 << bits
            if c is not None:
                lo, width = lo | c, 1
        return index, order, range(bisect_left(index, lo), bisect_left(index, lo + width))

    def _bound_ids(self, s: Term | None, p: Term | None, o: Term | None) -> list[int | None] | None:
        """Ids of the bound terms, None for unbound ones; None overall when a
        bound term is absent from the graph."""
        ids = [None if t is None else self._ids.get(t, -1) for t in (s, p, o)]
        return None if -1 in ids else ids

    def match_ids(
        self, s: int | None, p: int | None, o: int | None
    ) -> Iterator[tuple[int, int, int]]:
        """Matching triples as id tuples; index row order (deterministic)."""
        index, order, rows = self._lookup(s, p, o)
        bits, mask = self._bits, self._mask
        two = 2 * bits
        if order == "spo":
            for i in rows:
                v = index[i]
                yield (v >> two, (v >> bits) & mask, v & mask)
        elif order == "pos":
            for i in rows:
                v = index[i]
                yield (v & mask, v >> two, (v >> bits) & mask)
        else:
            for i in rows:
                v = index[i]
                yield ((v >> bits) & mask, v & mask, v >> two)

    def match(
        self,
        s: Term | None = None,
        p: Term | None = None,
        o: Term | None = None,
    ) -> Iterator[Triple]:
        """Triples agreeing with every bound position.

        The index with the longest bound prefix serves the scan, so output
        order is deterministic for a given pattern shape.
        """
        ids = self._bound_ids(s, p, o)
        if ids is None:
            return
        terms = self._terms
        for a, b, c in self.match_ids(*ids):
            yield Triple(terms[a], terms[b], terms[c])

    def count(self, s: Term | None = None, p: Term | None = None, o: Term | None = None) -> int:
        """Number of matching triples, without materializing them."""
        ids = self._bound_ids(s, p, o)
        return 0 if ids is None else len(self._lookup(*ids)[2])


class GraphBuilder:
    """Accumulates triples, then freezes them into a Graph.

    Triples are kept as term ids in one flat list. ``add`` checks the term
    kinds; loaders that know them already call ``intern`` once per distinct
    term and ``add_ids`` per triple. Construction is single-writer; the
    frozen result is shareable.
    """

    __slots__ = ("_terms", "_ids", "_flat", "_frozen")

    def __init__(self) -> None:
        self._terms: list[Term] = []
        self._ids: dict[Term, int] = {}
        self._flat: list[int] = []
        self._frozen = False

    def intern(self, term: Term) -> int:
        """The id of ``term`` in the graph being built, assigned in
        first-interned order."""
        i = self._ids.get(term)
        if i is None:
            i = len(self._terms)
            self._ids[term] = i
            self._terms.append(term)
        return i

    def add_ids(self, s: int, p: int, o: int) -> None:
        """Add a triple of interned ids; the caller guarantees a non-literal
        subject and an IRI predicate."""
        if self._frozen:
            raise RuntimeError("builder already frozen")
        self._flat += (s, p, o)

    def add(self, s: Term, p: Term, o: Term) -> None:
        if self._frozen:
            raise RuntimeError("builder already frozen")
        if isinstance(s, Literal):
            raise ValueError("triple subject cannot be a literal")
        if not isinstance(p, Iri):
            raise ValueError("triple predicate must be an IRI")
        self.add_ids(self.intern(s), self.intern(p), self.intern(o))

    def __len__(self) -> int:
        return len(self._flat) // 3

    def freeze(self, name: str | None = None) -> Graph:
        if self._frozen:
            raise RuntimeError("builder already frozen")
        self._frozen = True
        g = Graph(self._terms, self._ids, self._flat, name=name)
        self._terms = []
        self._ids = {}
        return g
