"""Conjunctive pattern evaluation over frozen graphs.

The pattern language is deliberately small: triple patterns joined by And,
negation as failure (NotExists), expression filters, grouped counting and
a depth-bounded cycle probe.  Plans are unions of linear pipelines; each
pipeline is a nested-loop join over the graph's sorted indexes, so result
order is deterministic for a given graph and pattern.

Planning gives every variable and constant of a pipeline a slot; a row is
a list of graph ids indexed by slot, except that a GroupCount's `into`
slot holds its count literal.  Each triple pattern is laid out once, so
one scan routine serves joins and NotExists probes alike: a NotExists runs
its inner steps on the same row and stops at the first match.

Comparison semantics (documented here because filters depend on them):
numeric literals compare by value with integer → decimal → double
promotion; date, dateTime, and gYear literals compare by temporal value;
boolean literals compare by value under = and != only; plain strings
order bytewise; = and != on any other pair of same-kind terms is term
identity.  Everything else (ordering IRIs, mixing kinds) is a type error,
which makes the enclosing filter reject the binding rather than abort the
evaluation.

Evaluation is read-only; any number of evaluations may share one graph.
"""
from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from .datatypes import boolean_value, is_valid_for_datatype, numeric_value, temporal_key
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

COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")


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
    op: str
    lhs: Expr
    rhs: Expr


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


FALSE = Literal("false", XSD_BOOLEAN)

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
    pattern: Pattern


@dataclass(frozen=True, slots=True)
class Filter(Pattern):
    expr: Expr


@dataclass(frozen=True, slots=True)
class GroupCount(Pattern):
    """Group the incoming bindings by `group_vars` and bind the per-group
    row count to `into`."""

    group_vars: tuple[Variable, ...]
    into: Variable

    def __init__(self, group_vars, into):
        object.__setattr__(self, "group_vars", tuple(group_vars))
        object.__setattr__(self, "into", into)


@dataclass(frozen=True, slots=True)
class CycleProbe(Pattern):
    """Binds `variable` to each subject of `property` that can reach itself
    via `property` within `max_depth` hops.  It runs before the triple
    patterns of its segment, and its variable must not be bound before it."""

    variable: Variable
    property: Iri
    max_depth: int


# ---------------------------------------------------------------------------
# Variable discovery


def expr_vars(e: Expr) -> set[Variable]:
    if isinstance(e, Compare):
        return expr_vars(e.lhs) | expr_vars(e.rhs)
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
    return set(p.group_vars)


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
    (position, slot) pairs of `binds` are bound by the scan, those of
    `counts` hold a count literal to look up, and the (position, position)
    pairs of `same` are a repeated variable that must match itself."""

    key: tuple[int, int, int]
    binds: tuple[tuple[int, int], ...]
    same: tuple[tuple[int, int], ...]
    counts: tuple[tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class _AntiJoin:
    stages: tuple["Stage", ...]


Step = Union[_Scan, Filter, _AntiJoin, CycleProbe]


@dataclass(frozen=True, slots=True)
class Stage:
    steps: tuple[Step, ...]
    group: GroupCount | None = None


@dataclass(frozen=True, slots=True)
class Pipeline:
    """Stages over one row layout.  `slots` numbers every variable and
    constant of the pipeline, NotExists parts included, from 1; `out`
    pairs each variable in scope at the end with its slot."""

    stages: tuple[Stage, ...]
    slots: _Slots
    out: tuple[tuple[Variable, int], ...]


@dataclass(frozen=True, slots=True)
class Plan:
    """Executable form of a pattern: a union of linear pipelines.

    `focus`, `path`, and `value` name where in each emitted row a caller
    should read the subject, property, and object of interest; they are
    inert during evaluation itself.  `path` and `value` may also be fixed
    terms when the pattern does not bind them.
    """

    pipelines: tuple[Pipeline, ...]
    focus: Variable | None = None
    path: Variable | Iri | None = None
    value: Variable | Term | None = None


def _validate_expr(e: Expr, problems: list[str]) -> None:
    if isinstance(e, Regex):
        try:
            re.compile(e.pattern)
        except re.error as exc:
            problems.append(f"bad regex {e.pattern!r}: {exc}")
    elif isinstance(e, Compare):
        if e.op not in COMPARE_OPS:
            problems.append(f"unknown comparison operator {e.op!r}")
        _validate_expr(e.lhs, problems)
        _validate_expr(e.rhs, problems)


def _flatten(p: Pattern) -> list[Pattern]:
    if isinstance(p, And):
        out: list[Pattern] = []
        for part in p.parts:
            out.extend(_flatten(part))
        return out
    return [p]


def _slot(slots: dict[Atom, int], atom: Atom) -> int:
    return slots.setdefault(atom, len(slots) + 1)


def _lay_out(tp: TriplePattern, slots: dict[Atom, int], bound: dict[Variable, bool]) -> _Scan:
    """Lay out a triple pattern and add its variables to `bound`, which
    maps each bound variable to whether its slot holds a count literal."""
    key: list[int] = []
    binds, same, counts = [], [], []
    first: dict[Variable, int] = {}
    for pos, atom in enumerate((tp.subject, tp.predicate, tp.object)):
        if not isinstance(atom, Variable) or bound.get(atom) is False:
            key.append(_slot(slots, atom))
            continue
        key.append(_OPEN)
        if atom in bound:
            counts.append((pos, slots[atom]))
        elif atom in first:
            same.append((pos, first[atom]))
        else:
            first[atom] = pos
            binds.append((pos, _slot(slots, atom)))
    bound.update(dict.fromkeys(first, False))
    return _Scan(tuple(key), tuple(binds), tuple(same), tuple(counts))


def _order_segment(
    items: list[Pattern], slots: dict[Atom, int], bound: dict[Variable, bool], problems: list[str]
) -> tuple[Step, ...]:
    """Greedy step ordering for one pipeline segment; `bound` gains the
    variables the segment binds, in binding order.

    Triple patterns are picked most-bound-first; cycle probes, filters and
    anti-joins are placed at the earliest point where every variable they
    share with the segment is bound.
    """
    binders = [item for item in items if isinstance(item, (TriplePattern, CycleProbe))]
    in_scope = bound.keys() | _pattern_uses(And(binders))

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
                    _validate_expr(item.expr, problems)
                    steps.append(item)
                    placed = item
                    break
            elif isinstance(item, NotExists):
                shared = _pattern_uses(item.pattern) & in_scope
                if shared <= bound.keys():
                    inner, _ = _plan_stages(item.pattern, slots, dict(bound), problems)
                    steps.append(_AntiJoin(inner))
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
        steps.append(_lay_out(best, slots, bound))
        pending.remove(best)
    return tuple(steps)


def _plan_stages(
    p: Pattern, slots: dict[Atom, int], bound: dict[Variable, bool], problems: list[str]
) -> tuple[tuple[Stage, ...], dict[Variable, bool]]:
    """The stages of a pattern planned after `bound`, and what is bound
    after them."""
    stages: list[Stage] = []
    segment: list[Pattern] = []
    for item in _flatten(p):
        if isinstance(item, GroupCount):
            stages.append(Stage(_order_segment(segment, slots, bound, problems), group=item))
            for v in item.group_vars:
                if v not in bound:
                    problems.append(f"group variable ?{v.name} is never bound")
            _slot(slots, item.into)
            bound = {v: bound.get(v, False) for v in item.group_vars}
            bound[item.into] = True
            segment = []
        else:
            segment.append(item)
    ordered = _order_segment(segment, slots, bound, problems)
    if ordered or not stages:
        stages.append(Stage(ordered))
    return tuple(stages), bound


def plan(p: Pattern) -> Plan:
    """Compile a pattern to a single-pipeline plan.

    Raises PlanError when a Filter, NotExists, or GroupCount references a
    variable no triple pattern binds, or an expression is malformed.  Plans
    depend on the pattern alone, never on graph statistics.
    """
    problems: list[str] = []
    slots: dict[Atom, int] = {}
    stages, bound = _plan_stages(p, slots, {}, problems)
    if problems:
        raise PlanError("; ".join(problems))
    out = tuple((v, slots[v]) for v in bound)
    return Plan(pipelines=(Pipeline(stages, slots, out),))


# ---------------------------------------------------------------------------
# Expression evaluation

_REGEX_CACHE: dict[str, re.Pattern] = {}


def _compiled(pattern: str) -> re.Pattern:
    rx = _REGEX_CACHE.get(pattern)
    if rx is None:
        rx = _REGEX_CACHE[pattern] = re.compile(pattern)
    return rx


class _ExprTypeError(Exception):
    """Expression type error; the enclosing filter rejects the binding."""


def _boolean_value(lit: Literal) -> bool:
    value = boolean_value(lit)
    if value is None:
        raise _ExprTypeError
    return value


def _term(g: Graph, value) -> Term:
    """The term a slot holds: a graph id, or a count literal."""
    return g.term(value) if isinstance(value, int) else value


def _apply_cmp(op: str, a, b) -> bool:
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def _compare_terms(op: str, a: Term, b: Term) -> bool:
    if isinstance(a, Literal) and isinstance(b, Literal):
        na, nb = numeric_value(a), numeric_value(b)
        if na is not None and nb is not None:
            return _apply_cmp(op, na, nb)
        ka, kb = temporal_key(a), temporal_key(b)
        if ka is not None and kb is not None:
            return _apply_cmp(op, ka, kb)
        if a.datatype == XSD_BOOLEAN and b.datatype == XSD_BOOLEAN:
            if op in ("=", "!="):
                return _apply_cmp(op, _boolean_value(a), _boolean_value(b))
            raise _ExprTypeError
        if op in ("=", "!="):
            same = a.lexical == b.lexical and a.datatype == b.datatype and a.language == b.language
            return same if op == "=" else not same
        if a.datatype == XSD_STRING and b.datatype == XSD_STRING:
            return _apply_cmp(op, a.lexical, b.lexical)
        raise _ExprTypeError
    if isinstance(a, Literal) or isinstance(b, Literal):
        raise _ExprTypeError
    if op in ("=", "!="):
        same = a == b
        return same if op == "=" else not same
    raise _ExprTypeError


def _eval_expr(e: Expr, row: list, slots: _Slots, g: Graph):
    if isinstance(e, Constant):
        return e.term
    if isinstance(e, Var):
        return _term(g, row[slots[e.variable]])
    if isinstance(e, Compare):
        lhs = _eval_expr(e.lhs, row, slots, g)
        rhs = _eval_expr(e.rhs, row, slots, g)
        if isinstance(lhs, bool) or isinstance(rhs, bool):
            if isinstance(lhs, Literal):
                lhs = _boolean_value(lhs)
            if isinstance(rhs, Literal):
                rhs = _boolean_value(rhs)
            if not (isinstance(lhs, bool) and isinstance(rhs, bool)) or e.op not in ("=", "!="):
                raise _ExprTypeError
            return _apply_cmp(e.op, lhs, rhs)
        return _compare_terms(e.op, lhs, rhs)
    if isinstance(e, Regex):
        t = _term(g, row[slots[e.variable]])
        if isinstance(t, Literal):
            text = t.lexical
        elif isinstance(t, Iri):
            text = t.text
        else:
            raise _ExprTypeError
        return _compiled(e.pattern).search(text) is not None
    if isinstance(e, IsValidForDatatype):
        t = _term(g, row[slots[e.variable]])
        if not isinstance(t, Literal):
            raise _ExprTypeError
        return is_valid_for_datatype(t.lexical, e.datatype or t.datatype)
    if isinstance(e, LangMatches):
        t = _term(g, row[slots[e.variable]])
        if not isinstance(t, Literal):
            raise _ExprTypeError
        if t.language is None:
            return False
        rng = e.language_range.lower()
        return rng == "*" or t.language == rng or t.language.startswith(rng + "-")
    if isinstance(e, SameLanguage):
        a = _term(g, row[slots[e.left]])
        b = _term(g, row[slots[e.right]])
        if not (isinstance(a, Literal) and isinstance(b, Literal)):
            raise _ExprTypeError
        if a.language is None or b.language is None:
            return False
        return a.language == b.language
    if isinstance(e, IsIri):
        return isinstance(_term(g, row[slots[e.variable]]), Iri)
    if isinstance(e, IsLiteral):
        return isinstance(_term(g, row[slots[e.variable]]), Literal)
    raise _ExprTypeError


def _filter_accepts(expr: Expr, row: list, slots: _Slots, g: Graph) -> bool:
    try:
        value = _eval_expr(expr, row, slots, g)
    except _ExprTypeError:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, Literal):
        try:
            return _boolean_value(value)
        except _ExprTypeError:
            return False
    return False


# ---------------------------------------------------------------------------
# Pipeline execution
# Steps bind slots in place and never clear them.  The plan reads a slot
# only where it is bound; a caller reads what it keeps before resuming.


class _Ticker:
    __slots__ = ("deadline", "count")

    def __init__(self, deadline: float | None):
        self.deadline = deadline
        self.count = 0

    def tick(self) -> None:
        if self.deadline is None:
            return
        self.count += 1
        if self.count & 1023 == 1 and time.monotonic() > self.deadline:
            raise BudgetExceeded


def _scan(g: Graph, step: _Scan, row: list, ticker: _Ticker):
    """Yield the row once per match, with the step's slots bound."""
    s, p, o = step.key
    key = [row[s], row[p], row[o]]
    for pos, slot in step.counts:
        tid = g.term_id(row[slot])
        key[pos] = _ABSENT if tid is None else tid
    if _ABSENT in key:
        return
    for match in g.match_ids(*key):
        ticker.tick()
        if step.same and any(match[i] != match[j] for i, j in step.same):
            continue
        for pos, slot in step.binds:
            row[slot] = match[pos]
        yield row


def _run_steps(
    g: Graph, slots: _Slots, steps: tuple[Step, ...], i: int, row: list, ticker: _Ticker
):
    if i == len(steps):
        yield row
        return
    step = steps[i]
    if isinstance(step, _Scan):
        rows = _scan(g, step, row, ticker)
    elif isinstance(step, Filter):
        ticker.tick()
        rows = (row,) if _filter_accepts(step.expr, row, slots, g) else ()
    elif isinstance(step, _AntiJoin):
        ticker.tick()
        rows = (row,) if next(_run_stages(g, slots, step.stages, row, ticker), None) is None else ()
    else:
        rows = _cycle_starts(g, slots, step, row, ticker)
    if i + 1 == len(steps):
        yield from rows
    else:
        for _ in rows:
            yield from _run_steps(g, slots, steps, i + 1, row, ticker)


def _cycle_starts(g: Graph, slots: _Slots, step: CycleProbe, row: list, ticker: _Ticker):
    pid = row[slots[step.property]]
    if pid == _ABSENT:
        return
    succ: dict[int, list[int]] = {}
    for s, _, o in g.match_ids(None, pid, None):
        succ.setdefault(s, []).append(o)
    slot = slots[step.variable]
    for start in sorted(succ):
        ticker.tick()
        frontier = [start]
        visited: set[int] = set()
        found = False
        for _ in range(step.max_depth):
            nxt: list[int] = []
            for node in frontier:
                for o in succ.get(node, ()):
                    ticker.tick()
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


def _group(gc: GroupCount, slots: _Slots, rows, base: list, ticker: _Ticker):
    """One fresh row per group, copied from `base` for its constants."""
    keys = [slots[v] for v in gc.group_vars]
    counts: dict[tuple, int] = {}
    for row in rows:
        ticker.tick()
        key = tuple([row[s] for s in keys])
        counts[key] = counts.get(key, 0) + 1
    into = slots[gc.into]
    for key, n in counts.items():
        out = base.copy()
        for s, value in zip(keys, key):
            out[s] = value
        out[into] = Literal(str(n), XSD_INTEGER)
        yield out


def _stage_rows(g: Graph, slots: _Slots, stage: Stage, rows, ticker: _Ticker):
    for row in rows:
        yield from _run_steps(g, slots, stage.steps, 0, row, ticker)


def _run_stages(g: Graph, slots: _Slots, stages: tuple[Stage, ...], row: list, ticker: _Ticker):
    """The rows of `stages` run from `row`; every stage but the last ends in
    a group."""
    rows = _run_steps(g, slots, stages[0].steps, 0, row, ticker)
    for stage, after in zip(stages, stages[1:]):
        rows = _stage_rows(g, slots, after, _group(stage.group, slots, rows, row, ticker), ticker)
    last = stages[-1].group
    return rows if last is None else _group(last, slots, rows, row, ticker)


def run_plan(
    g: Graph, p: Plan, *, deadline: float | None = None
) -> Iterator[dict[Variable, Term]]:
    """Execute a plan, yielding one fresh Term-valued dict per result row."""
    ticker = _Ticker(deadline)
    ticker.tick()
    for pipeline in p.pipelines:
        slots = pipeline.slots
        row: list = [None] * (len(slots) + 1)
        for atom, slot in slots.items():
            if not isinstance(atom, Variable):
                tid = g.term_id(atom)
                row[slot] = _ABSENT if tid is None else tid
        for done in _run_stages(g, slots, pipeline.stages, row, ticker):
            yield {v: _term(g, done[s]) for v, s in pipeline.out}


def evaluate(
    g: Graph, p: Pattern, *, deadline: float | None = None
) -> Iterator[dict[Variable, Term]]:
    """Evaluate a pattern under conjunctive set semantics.

    Bindings come out as plain dicts, one per solution, total over the
    pattern's in-scope variables; NotExists keeps a binding exactly when
    its inner pattern has no solution under that binding; GroupCount emits
    one binding per group with the count bound to its `into` variable.
    """
    return run_plan(g, plan(p), deadline=deadline)
