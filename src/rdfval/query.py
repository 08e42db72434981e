"""Conjunctive pattern evaluation over frozen graphs.

The pattern language is deliberately small: triple patterns joined by And,
negation as failure (NotExists), expression filters, and grouped counting.
Plans are unions of linear pipelines; each pipeline is a nested-loop join
over the graph's sorted indexes, so result order is deterministic for a
given graph and pattern.

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


# ---------------------------------------------------------------------------
# Variable discovery


def _tp_vars(tp: TriplePattern) -> set[Variable]:
    return {a for a in (tp.subject, tp.predicate, tp.object) if isinstance(a, Variable)}


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
        return _tp_vars(p)
    if isinstance(p, And):
        out: set[Variable] = set()
        for part in p.parts:
            out |= _pattern_uses(part)
        return out
    if isinstance(p, NotExists):
        return _pattern_uses(p.pattern)
    if isinstance(p, Filter):
        return expr_vars(p.expr)
    return set(p.group_vars)


# ---------------------------------------------------------------------------
# Plans


@dataclass(frozen=True, slots=True)
class _FilterStep:
    expr: Expr


@dataclass(frozen=True, slots=True)
class _AntiJoin:
    pipeline: "Pipeline"
    # Set when the inner pattern is a single triple pattern with distinct
    # variables; existence can then be probed without the pipeline machinery.
    simple: "TriplePattern | None" = None


@dataclass(frozen=True, slots=True)
class CycleProbe:
    """Emits one row per subject of `property` that can reach itself via
    `property` within `max_depth` hops.  Always a row-producing first step."""

    variable: Variable
    property: Iri
    max_depth: int


Step = Union[TriplePattern, _FilterStep, _AntiJoin, CycleProbe]


@dataclass(frozen=True, slots=True)
class Stage:
    steps: tuple[Step, ...]
    group: GroupCount | None = None


@dataclass(frozen=True, slots=True)
class Pipeline:
    stages: tuple[Stage, ...]


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


def _order_segment(
    items: list[Pattern],
    incoming: set[Variable],
    problems: list[str],
) -> tuple[Step, ...]:
    """Greedy step ordering for one pipeline segment.

    Triple patterns are picked most-bound-first; filters and anti-joins are
    placed at the earliest point where every variable they share with the
    segment is bound.
    """
    segment_binds: set[Variable] = set()
    for item in items:
        if isinstance(item, TriplePattern):
            segment_binds |= _tp_vars(item)
    in_scope = incoming | segment_binds

    steps: list[Step] = []
    pending = list(items)
    bound = set(incoming)
    while pending:
        placed = None
        for item in pending:
            if isinstance(item, Filter):
                used = expr_vars(item.expr)
                if not used <= in_scope:
                    missing = sorted(v.name for v in used - in_scope)
                    problems.append(f"filter references unbound ?{', ?'.join(missing)}")
                    placed = item
                    break
                if used <= bound:
                    _validate_expr(item.expr, problems)
                    steps.append(_FilterStep(item.expr))
                    placed = item
                    break
            elif isinstance(item, NotExists):
                shared = _pattern_uses(item.pattern) & in_scope
                if shared <= bound:
                    inner = plan(item.pattern, _outer=bound)
                    steps.append(_AntiJoin(inner.pipelines[0], _simple_tp(item.pattern)))
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
        steps.append(best)
        bound |= _tp_vars(best)
        pending.remove(best)
    return tuple(steps)


def _simple_tp(p: Pattern) -> TriplePattern | None:
    if not isinstance(p, TriplePattern):
        return None
    vars_seen = [a for a in (p.subject, p.predicate, p.object) if isinstance(a, Variable)]
    if len(vars_seen) != len(set(vars_seen)):
        return None
    return p


def plan(p: Pattern, *, _outer: set[Variable] | None = None) -> Plan:
    """Compile a pattern to a single-pipeline plan.

    Raises PlanError when a Filter, NotExists, or GroupCount references a
    variable no triple pattern binds, or an expression is malformed.  Plans
    depend on the pattern alone, never on graph statistics.
    """
    problems: list[str] = []
    items = _flatten(p)
    incoming = set(_outer or ())

    stages: list[Stage] = []
    segment: list[Pattern] = []
    bound = set(incoming)
    for item in items:
        if isinstance(item, GroupCount):
            available = bound | {
                v
                for part in segment
                if isinstance(part, TriplePattern)
                for v in _tp_vars(part)
            }
            for v in item.group_vars:
                if v not in available:
                    problems.append(f"group variable ?{v.name} is never bound")
            stages.append(Stage(_order_segment(segment, bound, problems), group=item))
            bound = set(item.group_vars) | {item.into}
            segment = []
        else:
            segment.append(item)
    ordered = _order_segment(segment, bound, problems)
    if ordered or not stages:
        stages.append(Stage(ordered))

    if problems:
        raise PlanError("; ".join(problems))
    return Plan(pipelines=(Pipeline(tuple(stages)),))


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


def _term_of(row: Mapping[Variable, object], v: Variable, g: Graph) -> Term:
    got = row.get(v)
    if got is None:
        raise _ExprTypeError
    return g.term(got) if isinstance(got, int) else got  # type: ignore[return-value]


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


def _eval_expr(e: Expr, row: Mapping[Variable, object], g: Graph):
    if isinstance(e, Constant):
        return e.term
    if isinstance(e, Var):
        return _term_of(row, e.variable, g)
    if isinstance(e, Compare):
        lhs = _eval_expr(e.lhs, row, g)
        rhs = _eval_expr(e.rhs, row, g)
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
        t = _term_of(row, e.variable, g)
        if isinstance(t, Literal):
            text = t.lexical
        elif isinstance(t, Iri):
            text = t.text
        else:
            raise _ExprTypeError
        return _compiled(e.pattern).search(text) is not None
    if isinstance(e, IsValidForDatatype):
        t = _term_of(row, e.variable, g)
        if not isinstance(t, Literal):
            raise _ExprTypeError
        return is_valid_for_datatype(t.lexical, e.datatype or t.datatype)
    if isinstance(e, LangMatches):
        t = _term_of(row, e.variable, g)
        if not isinstance(t, Literal):
            raise _ExprTypeError
        if t.language is None:
            return False
        rng = e.language_range.lower()
        return rng == "*" or t.language == rng or t.language.startswith(rng + "-")
    if isinstance(e, SameLanguage):
        a = _term_of(row, e.left, g)
        b = _term_of(row, e.right, g)
        if not (isinstance(a, Literal) and isinstance(b, Literal)):
            raise _ExprTypeError
        if a.language is None or b.language is None:
            return False
        return a.language == b.language
    if isinstance(e, IsIri):
        return isinstance(_term_of(row, e.variable, g), Iri)
    if isinstance(e, IsLiteral):
        return isinstance(_term_of(row, e.variable, g), Literal)
    raise _ExprTypeError


def _filter_accepts(expr: Expr, row: Mapping[Variable, object], g: Graph) -> bool:
    try:
        value = _eval_expr(expr, row, g)
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


def _scan(g: Graph, tp: TriplePattern, row: dict, ticker: _Ticker):
    """Yield the row once per match, with this pattern's fresh variables
    bound; bindings are removed again when the generator resumes, so any
    retained row must be copied by the consumer."""
    slots = (tp.subject, tp.predicate, tp.object)
    fixed: list[int | None] = [None, None, None]
    for i, atom in enumerate(slots):
        if isinstance(atom, Variable):
            got = row.get(atom)
            if got is None:
                continue
            if isinstance(got, int):
                fixed[i] = got
            else:
                tid = g.term_id(got)
                if tid is None:
                    return
                fixed[i] = tid
        else:
            tid = g.term_id(atom)
            if tid is None:
                return
            fixed[i] = tid
    fresh: list[tuple[int, Variable]] = []
    seen_vars: set[Variable] = set()
    for i, atom in enumerate(slots):
        if fixed[i] is None and isinstance(atom, Variable) and atom not in seen_vars:
            fresh.append((i, atom))
            seen_vars.add(atom)
    for match in g.match_ids(fixed[0], fixed[1], fixed[2]):
        ticker.tick()
        ok = True
        for i, atom in fresh:
            row[atom] = match[i]
        for i, atom in enumerate(slots):
            # A variable repeated within the pattern must match itself;
            # slots with a fixed id already agree by construction.
            if fixed[i] is None and row[atom] != match[i]:
                ok = False
                break
        if ok:
            yield row
        for _, atom in fresh:
            row.pop(atom, None)


def _probe_exists(g: Graph, tp: TriplePattern, row: dict) -> bool:
    probe: list[int | None] = [None, None, None]
    for i, atom in enumerate((tp.subject, tp.predicate, tp.object)):
        if isinstance(atom, Variable):
            got = row.get(atom)
            if got is None:
                continue
            if not isinstance(got, int):
                got = g.term_id(got)
                if got is None:
                    return False
            probe[i] = got
        else:
            tid = g.term_id(atom)
            if tid is None:
                return False
            probe[i] = tid
    for _ in g.match_ids(probe[0], probe[1], probe[2]):
        return True
    return False


def _run_steps(g: Graph, steps: tuple[Step, ...], i: int, row: dict, ticker: _Ticker):
    if i == len(steps):
        yield row
        return
    step = steps[i]
    if isinstance(step, TriplePattern):
        for _ in _scan(g, step, row, ticker):
            yield from _run_steps(g, steps, i + 1, row, ticker)
    elif isinstance(step, _FilterStep):
        ticker.tick()
        if _filter_accepts(step.expr, row, g):
            yield from _run_steps(g, steps, i + 1, row, ticker)
    elif isinstance(step, _AntiJoin):
        ticker.tick()
        if step.simple is not None:
            hit = _probe_exists(g, step.simple, row)
        else:
            hit = False
            for _ in _run_pipeline(g, step.pipeline, dict(row), ticker):
                hit = True
                break
        if not hit:
            yield from _run_steps(g, steps, i + 1, row, ticker)
    else:
        for _ in _cycle_starts(g, step, row, ticker):
            yield from _run_steps(g, steps, i + 1, row, ticker)


def _cycle_starts(g: Graph, step: CycleProbe, row: dict, ticker: _Ticker):
    pid = g.term_id(step.property)
    if pid is None:
        return
    succ: dict[int, list[int]] = {}
    for s, _, o in g.match_ids(None, pid, None):
        succ.setdefault(s, []).append(o)
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
            row[step.variable] = start
            yield row
            row.pop(step.variable, None)


def _group(gc: GroupCount, rows, ticker: _Ticker):
    counts: dict[tuple, int] = {}
    for row in rows:
        ticker.tick()
        key = tuple(row.get(v) for v in gc.group_vars)
        counts[key] = counts.get(key, 0) + 1
    for key, n in counts.items():
        out = dict(zip(gc.group_vars, key))
        out[gc.into] = Literal(str(n), XSD_INTEGER)
        yield out


def _stage_rows(g: Graph, stage: Stage, rows, ticker: _Ticker):
    for row in rows:
        yield from _run_steps(g, stage.steps, 0, row, ticker)


def _run_pipeline(g: Graph, pipeline: Pipeline, row: dict, ticker: _Ticker):
    rows = iter((row,))
    for stage in pipeline.stages:
        rows = _stage_rows(g, stage, rows, ticker)
        if stage.group is not None:
            rows = _group(stage.group, rows, ticker)
    return rows


def run_plan(
    g: Graph, p: Plan, *, deadline: float | None = None
) -> Iterator[dict[Variable, Term]]:
    """Execute a plan, yielding one fresh Term-valued dict per result row."""
    ticker = _Ticker(deadline)
    ticker.tick()
    for pipeline in p.pipelines:
        for row in _run_pipeline(g, pipeline, {}, ticker):
            yield {
                v: (g.term(val) if isinstance(val, int) else val)
                for v, val in row.items()
            }


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
