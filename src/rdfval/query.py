"""Conjunctive pattern evaluation over frozen graphs.

The pattern language is deliberately small: triple patterns joined by And,
filters, a depth-bounded cycle probe, and two correlated sub-patterns,
evaluated once per incoming row with that row's bindings: NotExists keeps
the row when its pattern has no solution (negation as failure), and Count
binds a variable to the number of solutions (a correlated count, after
Kim, "On Optimizing an SQL-like Nested Query", ACM TODS 7(3), 1982).  A
sub-pattern's variables that the enclosing pattern does not bind stay
inside it.  A filter is a test: a comparison of two terms (Compare, each
side a variable or a constant), or a kind, datatype, language or regex
test of a variable, and Not negates a test.  A count feeds filters and
the results only; no triple pattern reads it.  Plans are unions of flat
pipelines of index scans over the graph's sorted indexes, so result
order is deterministic for a given graph and pattern.

Planning gives every variable and constant of a pipeline a slot; a row is
a list of graph ids indexed by slot, except that a Count's `into` slot
holds its count literal.  Each triple pattern is laid out once.  run_plan
yields each result as a tuple of those raw values for the plan's columns;
only evaluate turns them into Terms.

run_plan compiles each pipeline, once per call and against the graph,
into nested closures `row -> stop`, after Neumann, "Efficiently Compiling
Efficient Query Plans for Modern Hardware" (VLDB 2011).  A scan calls the
next step's closure once per match, a filter's expression tree is
compiled to closures, and a true result stops every enclosing loop, which
is how a NotExists body ends at its first match; a Count body runs to its
end.  A scan that needs a constant the graph lacks compiles to no rows.
Only the outermost loop of a pipeline is a generator, so results stream:
a caller that stops early leaves the rest of that loop unrun.
Comparisons read a literal memo that lives for one run_plan call, so
each literal is parsed once per run.

Comparison semantics (documented here because filters depend on them):
numeric literals compare by value with integer → decimal → double
promotion; date, dateTime, and gYear literals compare by temporal value
(XSD 1.1 Part 2, §3.3.7): two zoned values by UTC instant, two unzoned
ones by local time, and a zoned with an unzoned one only where they are
more than 14 hours apart, so that the order holds in every zone; boolean
literals compare by value under = and != only; plain strings order
bytewise; = and != on any other pair of same-kind terms is term identity.
Everything else (ordering IRIs, mixing kinds, an indeterminate temporal
order) is a type error, which makes the enclosing filter reject the
binding rather than abort the evaluation.

Evaluation is read-only; any number of evaluations may share one graph.
"""
from __future__ import annotations

import re
import time
from dataclasses import dataclass
from operator import eq, ge, gt, itemgetter, le, lt, ne
from typing import Iterator, Mapping, Union

from .datatypes import boolean_value, is_valid_for_datatype, numeric_value, temporal_order, temporal_value
from .graph import Graph
from .terms import Iri, Literal, Term, XSD_BOOLEAN, XSD_INTEGER, XSD_STRING


class PlanError(ValueError):
    """A pattern cannot be planned (free variables, bad operator, bad regex)."""


class BudgetExceeded(Exception):
    """Raised when evaluation passes its deadline."""


@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


Atom = Union[Term, Variable]

# ---------------------------------------------------------------------------
# Expressions

class Expr:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Constant(Expr):
    term: Term


@dataclass(frozen=True, slots=True)
class Var(Expr):
    variable: Variable


@dataclass(frozen=True, slots=True)
class Compare(Expr):
    """Compares two terms, each a variable's value or a constant."""

    op: str
    lhs: Var | Constant
    rhs: Var | Constant


@dataclass(frozen=True, slots=True)
class Not(Expr):
    """Negates a test; the negation of a type error is a type error."""

    expr: Expr


@dataclass(frozen=True, slots=True)
class Regex(Expr):
    """Unanchored regular-expression test over a literal's lexical form or
    an IRI's text, in Python syntax; inline ``(?i)`` makes it
    case-insensitive."""

    variable: Variable
    pattern: str


@dataclass(frozen=True, slots=True)
class IsValidForDatatype(Expr):
    """True when the bound literal conforms to `datatype`, or to its own
    datatype when none is given."""

    variable: Variable
    datatype: Iri | None = None


@dataclass(frozen=True, slots=True)
class LangMatches(Expr):
    variable: Variable
    language_range: str


@dataclass(frozen=True, slots=True)
class SameLanguage(Expr):
    """True when both variables hold tagged literals with equal tags; false
    when either literal is untagged; a type error otherwise."""

    left: Variable
    right: Variable


@dataclass(frozen=True, slots=True)
class IsIri(Expr):
    variable: Variable


@dataclass(frozen=True, slots=True)
class IsLiteral(Expr):
    variable: Variable


# ---------------------------------------------------------------------------
# Patterns


class Pattern:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class TriplePattern(Pattern):
    subject: Atom
    predicate: Atom
    object: Atom


@dataclass(frozen=True, slots=True)
class And(Pattern):
    parts: tuple[Pattern, ...]

    def __init__(self, parts=()):
        object.__setattr__(self, "parts", tuple(parts))


@dataclass(frozen=True, slots=True)
class NotExists(Pattern):
    """Keeps a row exactly when `pattern` has no solution under it."""

    pattern: Pattern


@dataclass(frozen=True, slots=True)
class Count(Pattern):
    """Binds `into`, for each row, to the number of solutions of `pattern`
    under that row, as an xsd:integer literal, 0 included."""

    pattern: Pattern
    into: Variable


@dataclass(frozen=True, slots=True)
class Filter(Pattern):
    expr: Expr


@dataclass(frozen=True, slots=True)
class CycleProbe(Pattern):
    """Binds `variable` to each subject of `property` that can reach itself
    via `property` within `max_depth` hops.  It runs before the triple
    patterns beside it, in its pipeline or in the NotExists or Count pattern
    that holds it, and its variable must not be bound before it."""

    variable: Variable
    property: Iri
    max_depth: int


# ---------------------------------------------------------------------------
# Variable discovery


def expr_vars(e: Expr) -> set[Variable]:
    if isinstance(e, Compare):
        return expr_vars(e.lhs) | expr_vars(e.rhs)
    if isinstance(e, Not):
        return expr_vars(e.expr)
    if isinstance(e, Var):
        return {e.variable}
    if isinstance(e, Constant):
        return set()
    if isinstance(e, SameLanguage):
        return {e.left, e.right}
    return {e.variable}


def _pattern_uses(p: Pattern) -> set[Variable]:
    if isinstance(p, TriplePattern):
        return {a for a in (p.subject, p.predicate, p.object) if isinstance(a, Variable)}
    if isinstance(p, And):
        out: set[Variable] = set()
        for part in p.parts:
            out |= _pattern_uses(part)
        return out
    if isinstance(p, NotExists):
        return _pattern_uses(p.pattern)
    if isinstance(p, Filter):
        return expr_vars(p.expr)
    if isinstance(p, CycleProbe):
        return {p.variable}
    return _pattern_uses(p.pattern) | {p.into}


# ---------------------------------------------------------------------------
# Plans

# Slot 0 of every row is never written: a position a scan binds reads None
# from it, which leaves that position open in the index lookup.  The slot
# of a constant the graph lacks holds _ABSENT, which nothing matches.
_OPEN = 0
_ABSENT = -1
_Slots = Mapping[Atom, int]


@dataclass(frozen=True, slots=True)
class _Scan:
    """A triple pattern laid out over its pipeline's slots.  `key` reads
    the slot of each constant or bound variable, `_OPEN` elsewhere; the
    (position, slot) pairs of `binds` are bound by the scan, and the
    (position, position) pairs of `same` are a repeated variable that must
    match itself."""

    key: tuple[int, int, int]
    binds: tuple[tuple[int, int], ...]
    same: tuple[tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class _Nested:
    """The steps of a NotExists pattern, or of a Count pattern whose count
    goes to the slot `into`."""

    steps: tuple["Step", ...]
    into: int | None = None


Step = Union[_Scan, Filter, _Nested, CycleProbe]


@dataclass(frozen=True, slots=True)
class Pipeline:
    """Steps over one row layout.  `slots` numbers every variable and
    constant of the pipeline, nested patterns included, from 1; `out`
    pairs each variable in scope at the end with its slot."""

    steps: tuple[Step, ...]
    slots: _Slots
    out: tuple[tuple[Variable, int], ...]


@dataclass(frozen=True, slots=True)
class Plan:
    """Executable form of a pattern: a union of linear pipelines.

    `columns` are the variables whose values make up each result row, in
    order; a pipeline that does not bind one reads None there.  `path`
    and `value` name the property and object of interest to a caller, and
    are inert during evaluation itself; either may also be a fixed term
    when the pattern does not bind it.
    """

    pipelines: tuple[Pipeline, ...]
    path: Variable | Iri | None = None
    value: Variable | Term | None = None
    columns: tuple[Variable, ...] = ()


def _validate_test(e: Expr, problems: list[str]) -> None:
    """Add the problems of a filter's test, or of a test inside Not."""
    if isinstance(e, (Var, Constant)):
        problems.append(f"filter on the bare term {e!r}: a filter takes a test")
    elif isinstance(e, Not):
        _validate_test(e.expr, problems)
    elif isinstance(e, Regex):
        try:
            re.compile(e.pattern)
        except re.error as exc:
            problems.append(f"bad regex {e.pattern!r}: {exc}")
    elif isinstance(e, Compare):
        if e.op not in _OPS:
            problems.append(f"unknown comparison operator {e.op!r}")
        for side in (e.lhs, e.rhs):
            if not isinstance(side, (Var, Constant)):
                problems.append(f"comparison operand {side!r} is not a variable or constant")


def _flatten(p: Pattern) -> list[Pattern]:
    if isinstance(p, And):
        out: list[Pattern] = []
        for part in p.parts:
            out.extend(_flatten(part))
        return out
    return [p]


def _slot(slots: dict[Atom, int], atom: Atom) -> int:
    return slots.setdefault(atom, len(slots) + 1)


def _lay_out(
    tp: TriplePattern, slots: dict[Atom, int], bound: dict[Variable, bool], problems: list[str]
) -> _Scan:
    """Lay out a triple pattern and add its variables to `bound`, which
    maps each bound variable to whether its slot holds a count literal.
    A count feeds filters and results only, so no triple pattern reads one."""
    key: list[int] = []
    binds, same = [], []
    first: dict[Variable, int] = {}
    for pos, atom in enumerate((tp.subject, tp.predicate, tp.object)):
        if not isinstance(atom, Variable) or atom in bound:
            if bound.get(atom):
                problems.append(f"triple pattern reads the count ?{atom.name}")
            key.append(_slot(slots, atom))
            continue
        key.append(_OPEN)
        if atom in first:
            same.append((pos, first[atom]))
        else:
            first[atom] = pos
            binds.append((pos, _slot(slots, atom)))
    bound.update(dict.fromkeys(first, False))
    return _Scan(tuple(key), tuple(binds), tuple(same))


def _order_segment(
    items: list[Pattern], slots: dict[Atom, int], bound: dict[Variable, bool], problems: list[str]
) -> tuple[Step, ...]:
    """Greedy step ordering for a pipeline or a nested pattern; `bound`
    gains the variables the items bind, in binding order.

    Triple patterns are picked most-bound-first; cycle probes, filters and
    nested patterns are placed at the earliest point where every variable
    they share with the items' scope is bound.
    """
    binders = [item for item in items if isinstance(item, (TriplePattern, CycleProbe))]
    counts = {item.into for item in items if isinstance(item, Count)}
    in_scope = bound.keys() | _pattern_uses(And(binders)) | counts

    steps: list[Step] = []
    pending = list(items)
    while pending:
        placed = None
        for item in pending:
            if isinstance(item, CycleProbe):
                if item.variable in bound:
                    problems.append(f"cycle probe variable ?{item.variable.name} is already bound")
                _slot(slots, item.variable)
                _slot(slots, item.property)
                bound[item.variable] = False
                steps.append(item)
                placed = item
                break
            elif isinstance(item, Filter):
                used = expr_vars(item.expr)
                if not used <= in_scope:
                    missing = sorted(v.name for v in used - in_scope)
                    problems.append(f"filter references unbound ?{', ?'.join(missing)}")
                    placed = item
                    break
                if used <= bound.keys():
                    _validate_test(item.expr, problems)
                    steps.append(item)
                    placed = item
                    break
            elif isinstance(item, (NotExists, Count)):
                shared = _pattern_uses(item.pattern) & in_scope
                if shared <= bound.keys():
                    inner = _order_segment(_flatten(item.pattern), slots, dict(bound), problems)
                    into = None
                    if isinstance(item, Count):
                        if item.into in bound:
                            problems.append(f"count variable ?{item.into.name} is already bound")
                        into = _slot(slots, item.into)
                        bound[item.into] = True
                    steps.append(_Nested(inner, into))
                    placed = item
                    break
        if placed is not None:
            pending.remove(placed)
            continue
        best = None
        best_score = -1
        for item in pending:
            if not isinstance(item, TriplePattern):
                continue
            score = sum(
                1
                for a in (item.subject, item.predicate, item.object)
                if not isinstance(a, Variable) or a in bound
            )
            if score > best_score:
                best, best_score = item, score
        if best is None:
            break
        steps.append(_lay_out(best, slots, bound, problems))
        pending.remove(best)
    # Only counts whose patterns read their own counts are left waiting.
    problems.extend(f"count ?{v.name} waits on itself" for v in counts - bound.keys())
    return tuple(steps)


def plan(p: Pattern) -> Plan:
    """Compile a pattern to a single-pipeline plan.

    Raises PlanError when a Filter references a variable nothing in its
    scope binds, when an expression is malformed (a bare term as a test, a
    comparison of anything but terms, a bad regex or operator), when a
    triple pattern reads a count, or when a count or cycle-probe variable
    is bound twice or a count's pattern reads it.  Plans depend on the
    pattern alone, never on graph statistics.
    """
    problems: list[str] = []
    slots: dict[Atom, int] = {}
    bound: dict[Variable, bool] = {}
    steps = _order_segment(_flatten(p), slots, bound, problems)
    if problems:
        raise PlanError("; ".join(problems))
    out = tuple((v, slots[v]) for v in bound)
    return Plan(pipelines=(Pipeline(steps, slots, out),), columns=tuple(bound))


# ---------------------------------------------------------------------------
# Compilation
# Steps bind slots in place and never clear them.  The plan reads a slot
# only where it is bound; a caller reads what it keeps before resuming.

_OPS = {"=": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


class _ExprTypeError(Exception):
    """Expression type error; the enclosing filter rejects the binding."""


def _literal(t: Term) -> Literal:
    if not isinstance(t, Literal):
        raise _ExprTypeError
    return t


def _boolean_value(lit: Literal) -> bool:
    value = boolean_value(lit)
    if value is None:
        raise _ExprTypeError
    return value


def _stop(row: list) -> bool:
    return True


def _getter(slots: list[int]):
    """`row -> tuple` of the values at `slots`, a tuple even for one slot."""
    if len(slots) == 1:
        (s,) = slots
        return lambda row: (row[s],)
    return itemgetter(*slots) if slots else (lambda row: ())


def _push(rows, nxt):
    """The closure that pushes each row of a generator function into nxt."""

    def push(row: list) -> bool:
        for r in rows(row):
            if nxt(r):
                return True
        return False

    return push


def _ticker(deadline: float | None):
    """Called once per loop iteration over index matches or cycle steps;
    every 1024th call checks the deadline.  Filters and nested patterns run
    inside such an iteration, or once for a pipeline with no loop, so they
    need no tick of their own."""
    if deadline is None:
        return lambda: None
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1
        if count & 1023 == 1 and time.monotonic() > deadline:
            raise BudgetExceeded

    return tick


def _literal_memo(g: Graph):
    """`entry(value)`: for a slot value or term that is a literal, the
    entry (term, numeric value, temporal value), parsed once per memo; for
    any other term, the term itself."""
    memo: dict = {}
    term = g.term

    def entry(value):
        e = memo.get(value)
        if e is None:
            t = term(value) if value.__class__ is int else value
            if not isinstance(t, Literal):
                return t
            e = memo[value] = (t, numeric_value(t), temporal_value(t))
        return e

    return entry


def _compare(apply, a, b) -> bool:
    """`apply`, an operator of _OPS, over two memo entries or other terms."""
    if a.__class__ is tuple and b.__class__ is tuple:
        if a[1] is not None and b[1] is not None:
            return apply(a[1], b[1])
        if a[2] is not None and b[2] is not None:
            order = temporal_order(a[2], b[2])
            if order is None:
                raise _ExprTypeError
            return apply(order, 0)
        a, b = a[0], b[0]
        equality = apply is eq or apply is ne
        if a.datatype == XSD_BOOLEAN and b.datatype == XSD_BOOLEAN:
            if equality:
                return apply(_boolean_value(a), _boolean_value(b))
            raise _ExprTypeError
        if equality:
            return apply(a, b)
        if a.datatype == XSD_STRING and b.datatype == XSD_STRING:
            return apply(a.lexical, b.lexical)
        raise _ExprTypeError
    if a.__class__ is tuple or b.__class__ is tuple or not (apply is eq or apply is ne):
        raise _ExprTypeError
    return apply(a, b)


class _Compiler:
    """Compiles one pipeline against a graph.  `row` is its initial row,
    which holds the constants' ids; `tick` and `entry` serve a whole run."""

    __slots__ = ("g", "slots", "row", "tick", "entry")

    def __init__(self, g: Graph, slots: _Slots, row: list, tick, entry):
        self.g, self.slots, self.row, self.tick, self.entry = g, slots, row, tick, entry

    def outer(self, steps: tuple[Step, ...], columns: list[int]):
        """A generator function over the outermost loop of `steps`, its
        first scan or cycle probe.  After each turn with results it yields
        the list of their tuples of the values at the slots `columns`, and
        empties it when resumed."""
        loops = [i for i, step in enumerate(steps) if isinstance(step, (_Scan, CycleProbe))]
        if loops and self.absent(steps[loops[0]]):
            # The outermost loop matches nothing, so nothing else is compiled.
            return lambda row: ()
        found: list[tuple] = []
        append, get = found.append, _getter(columns)

        def emit(row: list) -> bool:
            append(get(row))
            return False

        if not loops:
            rows, guard, nxt = (lambda row: (row,)), _stop, self.steps(steps, emit)
        else:
            i = loops[0]
            rows = self.scan_rows(steps[i]) if isinstance(steps[i], _Scan) else self.cycle_rows(steps[i])
            # The steps before the loop bind nothing later steps read but a
            # count, which stays set in the row: a row passes them if it
            # reaches the end of their chain.
            guard, nxt = self.steps(steps[:i], _stop), self.steps(steps[i + 1 :], emit)

        def drive(row: list):
            if guard(row):
                for r in rows(row):
                    nxt(r)
                    if found:
                        yield found
                        found.clear()

        return drive

    def steps(self, steps: tuple[Step, ...], nxt):
        for step in reversed(steps):
            if isinstance(step, _Scan):
                nxt = self.scan(step, nxt)
            elif isinstance(step, Filter):
                nxt = self.filter(step.expr, nxt)
            elif isinstance(step, _Nested):
                nxt = self.nested(step, nxt)
            else:
                nxt = _push(self.cycle_rows(step), nxt)
        return nxt

    def absent(self, step: _Scan | CycleProbe) -> bool:
        """Whether the scan or cycle probe needs a constant the graph lacks."""
        key = step.key if isinstance(step, _Scan) else (self.slots[step.property],)
        return _ABSENT in (self.row[s] for s in key)

    def scan(self, step: _Scan, nxt):
        # Scans that bind up to two slots and check nothing, the common
        # shapes, loop over the ids the index hands out without a generator.
        if step.same or len(step.binds) > 2 or self.absent(step):
            return _push(self.scan_rows(step), nxt)
        (s, p, o), values, tick = step.key, self.g.values, self.tick
        if not step.binds:
            # Every position is bound: a triple matches once or not at all.

            def probe(row: list) -> bool:
                if len(values(row[s], row[p], row[o], 2)):
                    tick()
                    return nxt(row)
                return False

            return probe
        if len(step.binds) == 1:
            ((pos, slot),) = step.binds

            def scan(row: list) -> bool:
                for v in values(row[s], row[p], row[o], pos):
                    tick()
                    row[slot] = v
                    if nxt(row):
                        return True
                return False

            return scan
        (pos, slot), (pos2, slot2) = step.binds

        def scan2(row: list) -> bool:
            a, b, c = row[s], row[p], row[o]
            for v, v2 in zip(values(a, b, c, pos), values(a, b, c, pos2)):
                tick()
                row[slot] = v
                row[slot2] = v2
                if nxt(row):
                    return True
            return False

        return scan2

    def scan_rows(self, step: _Scan):
        """A generator function that yields the row once per match, with
        the step's slots bound."""
        if self.absent(step):
            return lambda row: ()
        (s, p, o), binds, same, tick = step.key, step.binds, step.same, self.tick
        if same:
            match = self.g.match_ids

            def rows(row: list):
                for m in match(row[s], row[p], row[o]):
                    tick()
                    if any(m[i] != m[j] for i, j in same):
                        continue
                    for pos, slot in binds:
                        row[slot] = m[pos]
                    yield row

            return rows
        values = self.g.values
        if len(binds) == 1:
            ((pos, slot),) = binds

            def rows(row: list):
                for v in values(row[s], row[p], row[o], pos):
                    tick()
                    row[slot] = v
                    yield row

            return rows
        if len(binds) == 2:
            (pos, slot), (pos2, slot2) = binds

            def rows(row: list):
                a, b, c = row[s], row[p], row[o]
                for v, v2 in zip(values(a, b, c, pos), values(a, b, c, pos2)):
                    tick()
                    row[slot] = v
                    row[slot2] = v2
                    yield row

            return rows

        def rows(row: list):
            key = row[s], row[p], row[o]
            # No position bound, or every one: then one column of the
            # match, if any.
            columns = [values(*key, pos) for pos, _ in binds] or [values(*key, 2)]
            for found in zip(*columns):
                tick()
                for (_, slot), v in zip(binds, found):
                    row[slot] = v
                yield row

        return rows

    def cycle_rows(self, step: CycleProbe):
        """A generator function that yields the row once per subject of the
        property that reaches itself within the depth, bound to the step's
        variable."""
        if self.absent(step):
            return lambda row: ()
        pid = self.row[self.slots[step.property]]
        slot, depth, values, tick = self.slots[step.variable], step.max_depth, self.g.values, self.tick

        def rows(row: list):
            succ: dict[int, list[int]] = {}
            for s, o in zip(values(None, pid, None, 0), values(None, pid, None, 2)):
                succ.setdefault(s, []).append(o)
            for start in sorted(succ):
                tick()
                frontier = [start]
                visited: set[int] = set()
                found = False
                for _ in range(depth):
                    nxt: list[int] = []
                    for node in frontier:
                        for o in succ.get(node, ()):
                            tick()
                            if o == start:
                                found = True
                                break
                            if o not in visited:
                                visited.add(o)
                                nxt.append(o)
                        if found:
                            break
                    if found or not nxt:
                        break
                    frontier = nxt
                if found:
                    row[slot] = start
                    yield row

        return rows

    def nested(self, step: _Nested, nxt):
        """The chain of a nested pattern's steps, run on each row: a
        NotExists stops it at the first match and passes the row on when
        there is none; a Count runs it to the end, tallying the matches, and
        passes the row on with the tally in `into`."""
        into = step.into
        if into is None:
            inner = self.steps(step.steps, _stop)

            def anti_join(row: list) -> bool:
                return False if inner(row) else nxt(row)

            return anti_join
        n = 0

        def tally(row: list) -> bool:
            nonlocal n
            n += 1
            return False

        inner = self.steps(step.steps, tally)
        literals: dict[int, Literal] = {}

        def count(row: list) -> bool:
            nonlocal n
            n = 0
            inner(row)
            literal = literals.get(n)
            if literal is None:
                literal = literals[n] = Literal(str(n), XSD_INTEGER)
            row[into] = literal
            return nxt(row)

        return count

    def filter(self, e: Expr, nxt):
        test = self.flag(e)

        def filter(row: list) -> bool:
            try:
                if not test(row):
                    return False
            except _ExprTypeError:
                return False
            return nxt(row)

        return filter

    def term(self, variable: Variable):
        """`row -> Term` for a variable."""
        s, term = self.slots[variable], self.g.term
        return lambda row: term(v) if (v := row[s]).__class__ is int else v

    def flag(self, e: Expr):
        """`row -> bool` for a test."""
        if isinstance(e, Compare):
            apply, a, b = _OPS[e.op], self.operand(e.lhs), self.operand(e.rhs)
            return lambda row: _compare(apply, a(row), b(row))
        if isinstance(e, Not):
            f = self.flag(e.expr)
            return lambda row: not f(row)
        if isinstance(e, SameLanguage):
            left, right = self.term(e.left), self.term(e.right)

            def same_language(row: list) -> bool:
                a, b = _literal(left(row)), _literal(right(row))
                return a.language is not None and a.language == b.language

            return same_language
        get = self.term(e.variable)
        if isinstance(e, IsIri):
            return lambda row: isinstance(get(row), Iri)
        if isinstance(e, IsLiteral):
            return lambda row: isinstance(get(row), Literal)
        if isinstance(e, Regex):
            search = re.compile(e.pattern).search

            def regex(row: list) -> bool:
                t = get(row)
                return search(t.text if isinstance(t, Iri) else _literal(t).lexical) is not None

            return regex
        if isinstance(e, IsValidForDatatype):
            datatype = e.datatype

            def valid(row: list) -> bool:
                t = _literal(get(row))
                return is_valid_for_datatype(t.lexical, datatype or t.datatype)

            return valid
        rng = e.language_range.lower()

        def lang_matches(row: list) -> bool:
            tag = _literal(get(row)).language
            return tag is not None and (rng == "*" or tag == rng or tag.startswith(rng + "-"))

        return lang_matches

    def operand(self, e: Var | Constant):
        """`row -> entry` of the literal memo, for a side of a comparison."""
        entry = self.entry
        if isinstance(e, Constant):
            c = entry(e.term)
            return lambda row: c
        s = self.slots[e.variable]
        return lambda row: entry(row[s])


def run_plan(g: Graph, p: Plan, *, deadline: float | None = None) -> Iterator[tuple]:
    """Execute a plan, yielding one tuple per result row: the value of each
    of `p.columns`, which is a graph id, a Count's literal, or None where
    the row's pipeline does not bind that column.

    Each pipeline is compiled when the iteration reaches it; the rows of
    one turn of its outermost loop are built before the first is yielded.
    """
    tick = _ticker(deadline)
    tick()
    entry = _literal_memo(g)
    for pipeline in p.pipelines:
        row: list = [None] * (len(pipeline.slots) + 1)
        for atom, slot in pipeline.slots.items():
            if not isinstance(atom, Variable):
                tid = g.term_id(atom)
                row[slot] = _ABSENT if tid is None else tid
        # A column out of the pipeline's final scope reads slot _OPEN.
        bound = dict(pipeline.out)
        columns = [bound.get(v, _OPEN) for v in p.columns]
        compiler = _Compiler(g, pipeline.slots, row, tick, entry)
        for found in compiler.outer(pipeline.steps, columns)(row):
            yield from found


def evaluate(
    g: Graph, p: Pattern, *, deadline: float | None = None
) -> Iterator[dict[Variable, Term]]:
    """Evaluate a pattern under conjunctive set semantics.

    Bindings come out as plain dicts, one per solution, total over the
    pattern's in-scope variables; NotExists keeps a binding exactly when
    its pattern has no solution under that binding, and Count binds its
    `into` variable to the number of those solutions.
    """
    planned = plan(p)
    columns, term = planned.columns, g.term
    return (
        {v: term(x) if x.__class__ is int else x for v, x in zip(columns, row)}
        for row in run_plan(g, planned, deadline=deadline)
    )
