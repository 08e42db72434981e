"""Immutable indexed triple store.

Each distinct term is interned once and referenced by a dense integer id,
and a graph holds at most 2**32 distinct terms.  The three orderings (SPO,
POS, OSP) are compressed-sparse-row indexes: for an ordering (a, b, c),
``offsets[a]`` to ``offsets[a + 1]`` is the run of entries led by id ``a``,
and each entry is one ``array("Q")`` word ``(b << 32) | c``, sorted within
its run.  An index costs 8 bytes per triple plus 8 bytes per term.

One rule picks the index for each of the eight bound/unbound shapes: POS
when the predicate is bound and the subject is not, OSP when the object is
bound and the predicate is not, SPO otherwise.  The bound positions then
form a prefix of that index's order, so the leading id picks a run and a
bound second position or a full triple is one or two bisections inside
it.  ``Graph.values`` hands out the ids at one position of the matches as
a strided read-only view of the words, with no generator and no tuple per
match.  SPO and POS are built at freeze; validation never binds the object
without the predicate, so OSP is built on the first such lookup.  Graphs
are immutable once built and safe to share across threads; builders are
single-writer.
"""
from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain, groupby, islice, repeat
from operator import eq, sub
from typing import Iterator, Sequence

from .terms import Iri, Literal, Term, Triple

# Where the b and c halves of a word fall when its bytes are read as two
# 32-bit ids, by level, and where each of its bytes falls, from the least
# significant up.
_HALVES = (None, 1, 0) if sys.byteorder == "little" else (None, 0, 1)
_LANES = range(8) if sys.byteorder == "little" else range(7, -1, -1)
# Which of an index's levels (lead 0, b 1, c 2) holds subject, predicate
# and object.
_SPO, _POS, _OSP = (0, 1, 2), (2, 0, 1), (1, 2, 0)
# Keys are consumed this many at a time, so that their list shrinks while
# the arrays made from them grow.
_STEP = 1 << 12

# An index: its offsets per leading id, its words, and its words read as
# 32-bit halves, a read-only view.
_Index = tuple[array, array, memoryview]


def _sorted_keys(flat: list[int], width: int) -> list[int]:
    """The distinct triples of ``flat`` (ids, three by three) as sorted
    keys ``(s << 2 * width) | (p << width) | o``; ``flat`` is emptied."""
    two = 2 * width
    keys: list[int] = []
    while flat:
        it = iter(flat[-3 * _STEP :])
        del flat[-3 * _STEP :]
        keys += [(s << two) | (p << width) | o for s, p, o in zip(it, it, it)]
    keys.sort()
    if any(map(eq, keys, islice(keys, 1, None))):
        keys = [k for k, _ in groupby(keys)]
    return keys


def _split(keys: list[int], width: int) -> tuple[array, array]:
    """The low parts ``(b << width) | c`` and the leading ids of sorted
    keys of an ordering (a, b, c), in order; ``keys`` is emptied."""
    two = 2 * width
    low, leads = array("Q"), array("I")
    while keys:
        chunk = keys[-_STEP:]
        del keys[-_STEP:]
        chunk.reverse()
        low.extend(map(((1 << two) - 1).__and__, chunk))
        leads.extend(map(two.__rrshift__, chunk))
    low.reverse()
    leads.reverse()
    return low, leads


def _offsets(leads: array, n: int) -> array:
    """The offsets of an index over ``n`` terms, given the leading id of
    each of its entries."""
    runs = Counter(leads)
    return array("Q", accumulate(map(runs.get, range(n), repeat(0)), initial=0))


def _index(low: array, offsets: array, width: int) -> _Index:
    """The index with these offsets whose entries have these low parts of
    ``width``-bit ids; ``low`` becomes its words."""
    if width < 32:
        # Widen each (b << width) | c to (b << 32) | c a byte lane at a
        # time: move the bytes of b up, highest first, then clear the
        # lanes between c and b.
        size = width // 8
        with memoryview(low) as view, view.cast("B") as lanes:
            for j in reversed(range(size)):
                lanes[_LANES[4 + j] :: 8] = lanes[_LANES[size + j] :: 8]
            zeros = bytes(len(low))
            for j in range(size, 4):
                lanes[_LANES[j] :: 8] = zeros
    return offsets, low, memoryview(low).toreadonly().cast("B").cast("I")


def _leads(offsets: array) -> Iterator[int]:
    """The leading id of each entry of an index, in order."""
    return chain.from_iterable(map(repeat, range(len(offsets) - 1), map(sub, islice(offsets, 1, None), offsets)))


class Graph:
    """A frozen set of triples with SPO/POS/OSP indexes.

    Build via ``GraphBuilder``.  SPO and POS are built at freeze, OSP by
    the first lookup that binds the object but not the predicate; each is
    a compressed-sparse-row index of 64-bit words (see the module
    docstring), so the graph holds at most 2**32 distinct terms.  All
    query operations answer as if read-only and are safe to share across
    threads: threads racing on the first OSP lookup each build a complete
    index, and one of them is kept.
    """

    __slots__ = ("name", "_terms", "_ids", "_spo", "_pos", "_osp")

    def __init__(
        self,
        terms: list[Term],
        ids: dict[Term, int],
        flat: list[int],
        name: str | None = None,
    ):
        """``flat`` holds the triples as ids, subject, predicate, object,
        one triple after another; it is emptied once packed."""
        n = len(terms)
        if n > 1 << 32:
            raise ValueError(f"a graph holds at most 2**32 distinct terms, not {n}")
        self.name = name
        self._terms = terms
        self._ids = ids
        # Ids are packed a whole number of bytes wide, for _index to widen.
        width = 8 * max(1, -(-(n - 1).bit_length() // 8))
        low, leads = _split(_sorted_keys(flat, width), width)
        offsets = _offsets(leads, n)
        # The keys of POS are those of SPO, rotated.
        keys = [(x << width) | a for a, x in zip(leads, low)]
        del leads
        self._spo = _index(low, offsets, width)
        keys.sort()
        low, leads = _split(keys, width)
        self._pos = _index(low, _offsets(leads, n), width)
        self._osp: _Index | None = None

    # ---- size and iteration -------------------------------------------------

    def __len__(self) -> int:
        return len(self._spo[1])

    def __iter__(self) -> Iterator[Triple]:
        terms = self._terms
        for s, p, o in self.match_ids(None, None, None):
            yield Triple(terms[s], terms[p], terms[o])

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

    def _osp_index(self) -> _Index:
        osp = self._osp
        if osp is None:
            # The keys of OSP are those of POS, rotated.
            offsets, words, _ = self._pos
            keys = [(w << 32) | a for a, w in zip(_leads(offsets), words)]
            keys.sort()
            # Assigned once, complete: a racing thread keeps its own build.
            low, leads = _split(keys, 32)
            osp = self._osp = _index(low, _offsets(leads, len(offsets) - 1), 32)
        return osp

    def _lookup(self, s: int | None, p: int | None, o: int | None) -> tuple[_Index, tuple[int, int, int], int | None, int, int]:
        """The index serving a lookup (by the rule in the module docstring),
        the level of each of subject, predicate and object in it, the
        bound leading id, and the range of its entries that match."""
        if p is not None and s is None:
            index, levels, a, b, c = self._pos, _POS, p, o, s
        elif o is not None and p is None:
            index, levels, a, b, c = self._osp_index(), _OSP, o, s, p
        else:
            index, levels, a, b, c = self._spo, _SPO, s, p, o
        offsets, words, _ = index
        if a is None:
            return index, levels, None, 0, len(words)
        lo, hi = offsets[a], offsets[a + 1]
        if b is not None:
            key = b << 32
            if c is None:
                lo = bisect_left(words, key, lo, hi)
                hi = bisect_left(words, key + (1 << 32), lo, hi)
            else:
                key |= c
                lo = bisect_left(words, key, lo, hi)
                hi = lo + 1 if lo < hi and words[lo] == key else lo
        return index, levels, a, lo, hi

    def _bound_ids(self, s: Term | None, p: Term | None, o: Term | None) -> list[int | None] | None:
        """Ids of the bound terms, None for unbound ones; None overall when a
        bound term is absent from the graph."""
        ids = [None if t is None else self._ids.get(t, -1) for t in (s, p, o)]
        return None if -1 in ids else ids

    def values(self, s: int | None, p: int | None, o: int | None, pos: int) -> Sequence[int]:
        """The ids at position ``pos`` (0 subject, 1 predicate, 2 object) of
        the triples matching the bound ids, in index row order, the order
        of ``match_ids``.  A bound position reads its own id.  Unless
        ``pos`` leads the index, this is a read-only view of the index."""
        index, levels, a, lo, hi = self._lookup(s, p, o)
        level = levels[pos]
        if level:
            return index[2][2 * lo + _HALVES[level] : 2 * hi : 2]
        if a is not None:
            return (a,) * (hi - lo)
        return array("I", _leads(index[0]))

    def match_ids(
        self, s: int | None, p: int | None, o: int | None
    ) -> Iterator[tuple[int, int, int]]:
        """Matching triples as id tuples; index row order (deterministic)."""
        return zip(self.values(s, p, o, 0), self.values(s, p, o, 1), self.values(s, p, o, 2))

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
        if ids is None:
            return 0
        _, _, _, lo, hi = self._lookup(*ids)
        return hi - lo


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
