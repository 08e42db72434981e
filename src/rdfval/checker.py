"""Compile constraints to plans, run them, and collect outcomes.

Class membership is explicit rdf:type only; there is no subclass
inference.  Each violation is identified by its (focus, path, value)
triple, deduplicated, and reported once.  A constraint's violations are
in report order: by the display text of the focus (an IRI's text, a
literal's lexical form or ``_:label``), then the focus's kind (``BlankNode``
< ``Iri`` < ``Literal``), then the display texts of the path and the value,
then the value's kind, where an absent path or value has the empty text
and kind.  All failure modes are encoded in outcomes, never raised out of
check().
"""
from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Iterator

from .catalog import PLACEHOLDER_RE, Catalog, Constraint, IMPLEMENTED, Severity
from .graph import Graph, GraphBuilder
from .ntriples import serialize_ntriples
from .query import (
    And,
    BudgetExceeded,
    Compare,
    Constant,
    Count,
    CycleProbe,
    Filter,
    IsIri,
    IsLiteral,
    IsValidForDatatype,
    LangMatches,
    Not,
    NotExists,
    Pattern,
    Plan,
    Regex,
    SameLanguage,
    TriplePattern as TP,
    Var,
    Variable,
    plan,
    run_plan,
)
from .terms import (
    BlankNode,
    Iri,
    Literal,
    RDF_TYPE,
    Term,
    XSD_INTEGER,
    escape_literal,
    plain_literal_text,
    term_text,
)

SKOS_IN_SCHEME = Iri("http://www.w3.org/2004/02/skos/core#inScheme")
QB = "http://purl.org/linked-data/cube#"

DEFAULT_LIMIT = 10_000
DEFAULT_BUDGET = 60.0
DEFAULT_CYCLE_DEPTH = 20

# Fixed reporting vocabulary for violation graphs.
REPORT_NS = "urn:rdfval:report#"
REPORT_ROOT = Iri(REPORT_NS + "root")
REPORT_PATH = Iri(REPORT_NS + "path")
REPORT_VALUE = Iri(REPORT_NS + "value")
REPORT_SEVERITY = Iri(REPORT_NS + "severity")
REPORT_MESSAGE = Iri(REPORT_NS + "message")
REPORT_CONSTRAINT = Iri(REPORT_NS + "constraint")

OK = "ok"
VIOLATED = "violated"
TRUNCATED = "truncated"
ENGINE_FAILURE = "engine-failure"
NOT_IMPLEMENTED_STATUS = "not-implemented"
SOURCE_INCOMPLETE = "source-incomplete"


class CompileError(ValueError):
    def __init__(self, constraint_id: str, reason: str):
        self.constraint_id = constraint_id
        self.reason = reason
        super().__init__(f"{constraint_id}: {reason}")


@dataclass(frozen=True, slots=True)
class Violation:
    constraint_id: str
    severity: Severity
    focus: Term
    path: Iri | None
    value: Term | None
    message: str


@dataclass(frozen=True, slots=True)
class CheckOutcome:
    constraint_id: str
    status: str
    violations: tuple[Violation, ...] = ()
    count: int = 0
    limit: int | None = None
    reason: str | None = None
    parts_missing: int | None = None
    wall_time: float = 0.0


# ---------------------------------------------------------------------------
# Family compilers

_X = Variable("x")
_Y = Variable("y")
_V = Variable("v")
_V2 = Variable("v2")
_W = Variable("w")
_P = Variable("p")
_N = Variable("n")


def _union(patterns: list[Pattern], focus, path=None, value=None) -> Plan:
    """The plan of the patterns' union; its rows hold the focus first, then
    the path and the value where they are variables."""
    pipelines = tuple(pipeline for p in patterns for pipeline in plan(p).pipelines)
    columns = tuple(a for a in (focus, path, value) if isinstance(a, Variable))
    return Plan(pipelines, path, value, columns)


def _int_lit(n: int) -> Constant:
    return Constant(Literal(str(n), XSD_INTEGER))


def _scope(params) -> list[Pattern]:
    """The focus's class membership when the optional `class` is given."""
    return [TP(_X, RDF_TYPE, params["class"])] if "class" in params else []


def _existential(params) -> Plan:
    c, p = params["class"], params["property"]
    pattern = And([TP(_X, RDF_TYPE, c), NotExists(TP(_X, p, _V))])
    return _union([pattern], _X, p)


def _conditional(params) -> Plan:
    c = params["class"]
    if_p, then_p = params["if-property"], params["then-property"]
    pattern = And(
        [TP(_X, RDF_TYPE, c), TP(_X, if_p, _W), NotExists(TP(_X, then_p, _V))]
    )
    return _union([pattern], _X, then_p)


def _cardinality(params, mode: str, qualified: bool) -> Plan:
    c, p, bound = params["class"], params["property"], params["bound"]
    value_tps = [TP(_X, p, _V)]
    if qualified:
        value_tps.append(TP(_V, RDF_TYPE, params["value-class"]))
    values = And(value_tps)
    if mode == "min" and bound == 0:
        return _union([], _X, p)
    # Below a positive min or exact bound, foci with no value are reported
    # by the zero case, after the counted ones.
    zero_case = mode != "max" and bound > 0
    counted: list[Pattern] = [TP(_X, RDF_TYPE, c), Count(values, _N)]
    if zero_case:
        counted.append(Filter(Compare(">", Var(_N), _int_lit(0))))
    op = {"max": ">", "min": "<", "exact": "!="}[mode]
    counted.append(Filter(Compare(op, Var(_N), _int_lit(bound))))
    patterns: list[Pattern] = [And(counted)]
    if zero_case:
        patterns.append(And([TP(_X, RDF_TYPE, c), NotExists(values)]))
    return _union(patterns, _X, p, _N)


def _universal(params) -> Plan:
    c, p, vc = params["class"], params["property"], params["value-class"]
    pattern = And([TP(_X, RDF_TYPE, c), TP(_X, p, _V), NotExists(TP(_V, RDF_TYPE, vc))])
    return _union([pattern], _X, p, _V)


def _membership(params) -> Plan:
    p, scheme = params["property"], params["scheme"]
    pattern = And([TP(_X, p, _V), NotExists(TP(_V, SKOS_IN_SCHEME, scheme))])
    return _union([pattern], _X, p, _V)


def _valid_datatype(params) -> Plan:
    dt = params.get("datatype")
    invalid = Filter(Not(IsValidForDatatype(_V, dt)))
    p = params.get("property")
    if p is not None:
        return _union([And([TP(_X, p, _V), invalid])], _X, p, _V)
    return _union([And([TP(_X, _P, _V), invalid])], _X, _P, _V)


def _value_comparison(params) -> Plan:
    c, p, q = params["class"], params["property"], params["other-property"]
    pattern = And(
        [
            TP(_X, RDF_TYPE, c),
            TP(_X, p, _V),
            TP(_X, q, _W),
            Filter(Compare(">", Var(_V), Var(_W))),
        ]
    )
    return _union([pattern], _X, p, _V)


def _facets(params) -> Plan:
    """DATA-PROPERTY-FACETS, and LITERAL-RANGE, which has no datatype slot."""
    p = params["property"]
    prefix = _scope(params)
    patterns: list[Pattern] = []
    if "datatype" in params:
        invalid = Not(IsValidForDatatype(_V, params["datatype"]))
        patterns.append(And([*prefix, TP(_X, p, _V), Filter(invalid)]))
    if "min-inclusive" in params:
        patterns.append(
            And([*prefix, TP(_X, p, _V), Filter(Compare("<", Var(_V), _int_lit(params["min-inclusive"])))])
        )
    if "max-inclusive" in params:
        patterns.append(
            And([*prefix, TP(_X, p, _V), Filter(Compare(">", Var(_V), _int_lit(params["max-inclusive"])))])
        )
    return _union(patterns, _X, p, _V)


def _pattern_matching(params, iri_side: bool) -> Plan:
    p, rx = params["property"], params["pattern"]
    kind_guard = Filter(IsIri(_V)) if iri_side else Filter(IsLiteral(_V))
    pattern = And(
        [
            *_scope(params),
            TP(_X, p, _V),
            kind_guard,
            Filter(Not(Regex(_V, rx))),
        ]
    )
    return _union([pattern], _X, p, _V)


def _inverse_functional(params) -> Plan:
    p = params["property"]
    pattern = And(
        [TP(_X, p, _V), TP(_Y, p, _V), Filter(Compare("!=", Var(_X), Var(_Y)))]
    )
    return _union([pattern], _X, p, _V)


def _domain(params) -> Plan:
    p, c = params["property"], params["class"]
    pattern = And([TP(_X, p, _V), NotExists(TP(_X, RDF_TYPE, c))])
    return _union([pattern], _X, p)


def _range(params) -> Plan:
    p, c = params["property"], params["class"]
    pattern = And([TP(_X, p, _V), NotExists(TP(_V, RDF_TYPE, c))])
    return _union([pattern], _X, p, _V)


def _valid_properties(params) -> Plan:
    c, allowed = params["class"], params["properties"]
    if not all(isinstance(a, Iri) for a in allowed):
        raise ValueError("every entry of 'properties' must be an IRI")
    filters = [Filter(Compare("!=", Var(_P), Constant(a))) for a in allowed]
    pattern = And([TP(_X, RDF_TYPE, c), TP(_X, _P, _V), *filters])
    return _union([pattern], _X, _P, _V)


def _disjoint(params) -> Plan:
    c1, c2 = params["class"], params["other-class"]
    pattern = And([TP(_X, RDF_TYPE, c1), TP(_X, RDF_TYPE, c2)])
    return _union([pattern], _X, RDF_TYPE, c2)


def _language_cardinality(params) -> Plan:
    c, p = params["class"], params["property"]
    if "max-per-language" in params:
        pattern = And(
            [
                TP(_X, RDF_TYPE, c),
                TP(_X, p, _V),
                TP(_X, p, _V2),
                Filter(Compare("!=", Var(_V), Var(_V2))),
                Filter(SameLanguage(_V, _V2)),
            ]
        )
        return _union([pattern], _X, p)
    if "required-language" in params:
        rng = params["required-language"]
        pattern = And(
            [
                TP(_X, RDF_TYPE, c),
                NotExists(And([TP(_X, p, _V), Filter(LangMatches(_V, rng))])),
            ]
        )
        return _union([pattern], _X, p)
    rng = params["value-language"]
    pattern = And(
        [
            TP(_X, RDF_TYPE, c),
            TP(_X, p, _V),
            Filter(IsLiteral(_V)),
            Filter(Not(LangMatches(_V, rng))),
        ]
    )
    return _union([pattern], _X, p, _V)


def _acyclicity(params) -> Plan:
    p = params["property"]
    depth = params.get("max-depth", DEFAULT_CYCLE_DEPTH)
    return _union([CycleProbe(_X, p, depth)], _X, p)


def _allowed_values(params) -> Plan:
    p, allowed = params["property"], params["values"]
    prefix = _scope(params)
    iris = [a for a in allowed if isinstance(a, Iri)]
    lits = [a for a in allowed if isinstance(a, Literal)]
    patterns: list[Pattern] = [
        And(
            [
                *prefix,
                TP(_X, p, _V),
                Filter(IsIri(_V)),
                *[Filter(Compare("!=", Var(_V), Constant(a))) for a in iris],
            ]
        ),
        And(
            [
                *prefix,
                TP(_X, p, _V),
                Filter(IsLiteral(_V)),
                *[Filter(Compare("!=", Var(_V), Constant(a))) for a in lits],
            ]
        ),
        And(
            [
                *prefix,
                TP(_X, p, _V),
                Filter(Not(IsIri(_V))),
                Filter(Not(IsLiteral(_V))),
            ]
        ),
    ]
    return _union(patterns, _X, p, _V)


def _dimension_completeness(params) -> Plan:
    del params
    o, ds, s, comp, d, z = (
        Variable("o"),
        Variable("ds"),
        Variable("s"),
        Variable("c"),
        Variable("d"),
        Variable("z"),
    )
    pattern = And(
        [
            TP(o, Iri(QB + "dataSet"), ds),
            TP(ds, Iri(QB + "structure"), s),
            TP(s, Iri(QB + "component"), comp),
            TP(comp, Iri(QB + "dimension"), d),
            NotExists(TP(o, d, z)),
        ]
    )
    return _union([pattern], o, d)


_COMPILERS = {
    "EXISTENTIAL-QUANTIFICATION": _existential,
    "CONDITIONAL-PROPERTY": _conditional,
    "MIN-QUALIFIED-CARDINALITY": lambda p: _cardinality(p, "min", True),
    "MAX-QUALIFIED-CARDINALITY": lambda p: _cardinality(p, "max", True),
    "EXACT-QUALIFIED-CARDINALITY": lambda p: _cardinality(p, "exact", True),
    "MIN-UNQUALIFIED-CARDINALITY": lambda p: _cardinality(p, "min", False),
    "MAX-UNQUALIFIED-CARDINALITY": lambda p: _cardinality(p, "max", False),
    "EXACT-UNQUALIFIED-CARDINALITY": lambda p: _cardinality(p, "exact", False),
    "UNIVERSAL-QUANTIFICATION": _universal,
    "MEMBERSHIP-IN-CONTROLLED-VOCABULARY": _membership,
    "VALUE-IS-VALID-FOR-DATATYPE": _valid_datatype,
    "LITERAL-RANGE": _facets,
    "LITERAL-VALUE-COMPARISON": _value_comparison,
    "DATA-PROPERTY-FACETS": _facets,
    "LITERAL-PATTERN-MATCHING": lambda p: _pattern_matching(p, False),
    "IRI-PATTERN-MATCHING": lambda p: _pattern_matching(p, True),
    "INVERSE-FUNCTIONAL-PROPERTY": _inverse_functional,
    "PROPERTY-DOMAIN": _domain,
    "PROPERTY-RANGE": _range,
    "CLASS-SPECIFIC-PROPERTY-RANGE": _universal,
    "CONTEXT-SPECIFIC-VALID-PROPERTIES": _valid_properties,
    "DISJOINT-CLASSES": _disjoint,
    "LANGUAGE-TAG-CARDINALITY": _language_cardinality,
    "STRUCTURE-ACYCLICITY": _acyclicity,
    "ALLOWED-VALUES": _allowed_values,
    "DIMENSION-COMPLETENESS": _dimension_completeness,
}


def compile_constraint(c: Constraint) -> Plan:
    """Build the violation plan for an implemented constraint.

    The plan's bindings are exactly the violating (focus, path, value)
    tuples of the family's semantics; deterministic for a given constraint.
    """
    if c.status != IMPLEMENTED:
        raise CompileError(c.id, "constraint is not implemented")
    compiler = _COMPILERS.get(c.family.family_id)
    if compiler is None:
        raise CompileError(c.id, f"family {c.family.family_id} has no compiler")
    try:
        return compiler(c.params)
    except KeyError as exc:
        raise CompileError(c.id, f"missing parameter {exc.args[0]!r}") from None
    except ValueError as exc:  # PlanError included
        raise CompileError(c.id, str(exc)) from None


# ---------------------------------------------------------------------------
# Execution


def _display(term: Term | None) -> str:
    if term is None:
        return ""
    if isinstance(term, Iri):
        return term.text
    if isinstance(term, Literal):
        return term.lexical
    return f"_:{term.label}"


def _parameter_texts(c: Constraint) -> dict[str, str]:
    """The message substitution of each of the constraint's parameters."""
    texts: dict[str, str] = {}
    for name, pvalue in c.params.items():
        if isinstance(pvalue, Term):
            texts[name] = _display(pvalue)
        elif isinstance(pvalue, tuple):
            texts[name] = ", ".join(_display(t) for t in pvalue)
        else:
            texts[name] = str(pvalue)
    return texts


_FIELDS = {"focus": "{0}", "path": "{1}", "value": "{2}"}


def _message_template(c: Constraint) -> str:
    """The constraint's message as a `str.format` template over the texts
    of a violation's focus, path and value.

    Parameters are filled in here, and one named focus, path or value
    shadows the violation's own.  An unknown placeholder, `{}` included,
    stays as written, and every other brace is literal text."""
    parameters = _parameter_texts(c)
    template = []
    # split() alternates literal text with the names of placeholders.
    for i, piece in enumerate(PLACEHOLDER_RE.split(c.message)):
        if i % 2:
            if piece not in parameters and piece in _FIELDS:
                template.append(_FIELDS[piece])
                continue
            piece = parameters.get(piece, f"{{{piece}}}")
        template.append(piece.replace("{", "{{").replace("}", "}}"))
    return "".join(template)


def _run_constraint(g: Graph, c: Constraint, limit: int | None, budget: float | None, keep) -> CheckOutcome:
    """One constraint's outcome; ``keep(c, plan, keys)``, when given, turns
    its kept keys into the outcome's violations."""
    start = time.monotonic()
    deadline = None if budget is None else start + budget
    try:
        built = compile_constraint(c)
    except CompileError as exc:
        return CheckOutcome(
            c.id, ENGINE_FAILURE, reason=f"compile: {exc.reason}", wall_time=time.monotonic() - start
        )
    term = g.term
    # A path that is no IRI, which only DIMENSION-COMPLETENESS binds (a
    # literal or blank qb:dimension), is reported as none.
    path_at = built.columns.index(built.path) if isinstance(built.path, Variable) else None

    # A row is its own key: the focus id, then the path and value ids (or
    # count literal) where the plan binds them, with None for a path that
    # is no IRI.  Each key is judged once; a missing or literal focus is no
    # violation.
    seen: set[tuple] = set()
    kept: list[tuple] = []
    truncated = False
    try:
        for key in run_plan(g, built, deadline=deadline):
            if path_at is not None and (x := key[path_at]) is not None and not isinstance(term(x), Iri):
                key = (*key[:path_at], None, *key[path_at + 1 :])
            if key in seen:
                continue
            seen.add(key)
            if key[0] is None or isinstance(term(key[0]), Literal):
                continue
            if limit is not None and len(kept) >= limit:
                truncated = True
                break
            kept.append(key)
    except BudgetExceeded:
        return CheckOutcome(
            c.id, ENGINE_FAILURE, reason="budget", wall_time=time.monotonic() - start
        )
    except Exception as exc:  # pragma: no cover - defensive isolation
        return CheckOutcome(
            c.id, ENGINE_FAILURE, reason=str(exc), wall_time=time.monotonic() - start
        )
    del seen

    violations = keep(c, built, kept) if keep is not None and kept else ()
    elapsed = time.monotonic() - start
    if truncated:
        return CheckOutcome(c.id, TRUNCATED, violations, count=len(kept), limit=limit, wall_time=elapsed)
    if kept:
        return CheckOutcome(c.id, VIOLATED, violations, count=len(kept), wall_time=elapsed)
    return CheckOutcome(c.id, OK, wall_time=elapsed)


# The texts of a reported term: its display text, its kind (the name of its
# class), its N-Triples text, its display text escaped for a plain literal,
# and the term.  An absent path or value has the empty texts.
_NO_TEXTS = ("", "", None, "", None)


def _term_texts(term: Term) -> tuple:
    display = _display(term)
    return (display, term.__class__.__name__, term_text(term), escape_literal(display), term)


# Report nodes per chunk of ``ViolationReport.chunks``: about 100 KB of
# text on the shipped packs' reports, so the file is written in few calls
# and is never held whole.
_CHUNK_BLOCKS = 256

_ROOT_P = f" {term_text(REPORT_ROOT)} "
_PATH_P = f" {term_text(REPORT_PATH)} "
_VALUE_P = f" {term_text(REPORT_VALUE)} "
_MESSAGE_P = f' {term_text(REPORT_MESSAGE)} "'
_SEVERITY_TAILS = {s: f" {term_text(REPORT_SEVERITY)} {plain_literal_text(s.json_name)} ." for s in Severity}


def _constraint_tail(constraint_id: str) -> str:
    return f" {term_text(REPORT_CONSTRAINT)} {plain_literal_text(constraint_id)} ."


class ViolationReport:
    """The kept violations of one check run, as the texts they are
    reported with.

    ``check(g, catalog, records=ViolationReport(g))`` hands each
    constraint's kept keys of graph ids here instead of building violation
    records, and ``chunks()`` then renders ``violations.nt``.  Each
    distinct focus, path or value (a graph id, a count literal or a
    constant of the plan) has its texts made once per report, however many
    violations show it, and a violation is held as three references to
    them.
    """

    __slots__ = ("_graph", "_texts", "_heads", "_starts", "_cells")

    def __init__(self, graph: Graph):
        self._graph = graph
        # Focus, path and value texts.  A path is an IRI or none, so the
        # report's blank labels are exactly those of its foci and values.
        self._texts: dict = {None: _NO_TEXTS}
        # Per constraint with kept violations, its head (see ``chunks``)
        # and the number of its first violation; per violation, its focus,
        # path and value texts, one after another.
        self._heads: list[tuple] = []
        self._starts: list[int] = []
        self._cells: list[tuple] = []

    def _ordered(self, built: Plan, keys: list[tuple]) -> list[tuple]:
        """The (focus, path, value) texts of each key, in report order."""
        term = self._graph.term
        texts = self._texts

        def of(x) -> tuple:
            t = texts[x] = _term_texts(term(x) if x.__class__ is int else x)
            return t

        columns = built.columns
        path_at = columns.index(built.path) if isinstance(built.path, Variable) else None
        value_at = columns.index(built.value) if isinstance(built.value, Variable) else None
        text = texts.get
        path = None if path_at is not None else text(built.path) or of(built.path)
        value = None if value_at is not None else text(built.value) or of(built.value)
        # Each row leads with its sort key, so that the sort compares
        # tuples built here rather than calling back per row.
        rows = []
        for key in keys:
            f = text(key[0]) or of(key[0])
            p = path or text(key[path_at]) or of(key[path_at])
            v = value or text(key[value_at]) or of(key[value_at])
            rows.append(((f[0], f[1], p[0], v[0], v[1]), f, p, v))
        rows.sort(key=itemgetter(0))
        return rows

    def _records(self, c: Constraint, built: Plan, keys: list[tuple]) -> tuple[Violation, ...]:
        """The violation records of a constraint's kept keys, in report order."""
        message = _message_template(c).format
        return tuple(
            Violation(c.id, c.severity, focus[4], path[4], value[4], message(focus[0], path[0], value[0]))
            for _, focus, path, value in self._ordered(built, keys)
        )

    def _keep(self, c: Constraint, built: Plan, keys: list[tuple]) -> tuple:
        # Escaping works character by character and leaves braces as they
        # are, so the escaped template filled with escaped texts is the
        # escaped message.
        message = escape_literal(_message_template(c)).format
        self._heads.append((_constraint_tail(c.id), _SEVERITY_TAILS[c.severity], message))
        self._starts.append(len(self._cells) // 3)
        cells = self._cells
        for _, focus, path, value in self._ordered(built, keys):
            cells += (focus, path, value)
        return ()

    def chunks(self) -> Iterator[bytes]:
        """``violations.nt`` of the kept violations, as UTF-8 chunks: the
        bytes of ``violations_ntriples`` for the outcomes of the same check
        run with violation records.  One node ``_:<prefix><n>`` stands for
        violation ``n``.

        Violation ``n`` has the texts ``_cells[3n:3n + 3]`` of its focus,
        path and value, and the head ``_heads[i]`` of the last
        ``_starts[i]`` at or before ``n``: its constraint line, its severity
        line, and a function from the escaped display texts of focus, path
        and value to its escaped message.

        Every line of node ``n`` starts with its label and a space, labels
        are distinct, and a space sorts below every digit.  So visiting the
        violations in the string order of their numbers (``v1`` < ``v10`` <
        ``v2``) and writing each node's lines in predicate order gives the
        canonical line order, with no sort of the lines."""
        heads, starts, cells = self._heads, self._starts, self._cells
        prefix = f"_:{_report_prefix(t[4] for t in self._texts.values())}"
        order = sorted(range(len(cells) // 3), key=str)
        for start in range(0, len(order), _CHUNK_BLOCKS):
            blocks = []
            for n in order[start : start + _CHUNK_BLOCKS]:
                constraint, severity, message = heads[bisect_right(starts, n) - 1]
                focus, path, value = cells[3 * n : 3 * n + 3]
                node = f"{prefix}{n}"
                sep = f"\n{node}"
                block = f'{node}{constraint}{sep}{_MESSAGE_P}{message(focus[3], path[3], value[3])}" .'
                if path[2] is not None:
                    block = f"{block}{sep}{_PATH_P}{path[2]} ."
                block = f"{block}{sep}{_ROOT_P}{focus[2]} .{sep}{severity}"
                if value[2] is not None:
                    block = f"{block}{sep}{_VALUE_P}{value[2]} ."
                blocks.append(block)
            blocks.append("")  # the chunk's final newline
            yield "\n".join(blocks).encode("utf-8")


def check(
    g: Graph,
    catalog: Catalog,
    limit: int | None = DEFAULT_LIMIT,
    budget: float | None = DEFAULT_BUDGET,
    records: bool | ViolationReport = True,
) -> list[CheckOutcome]:
    """Run every catalog constraint over the graph, in catalog order.

    Outcomes are independent: a failing constraint never aborts the rest.
    `limit` caps violations per constraint (reaching it stops that
    constraint early); `budget` is wall-clock seconds per constraint.
    With `records=False` the outcomes keep their status, count and limit
    but no violation records: `violations` is always ``()``.  Given a
    `ViolationReport` of `g`, the outcomes are those of `records=False`,
    and the report takes each constraint's kept violations, for
    ``violations.nt``.
    """
    if budget is not None and math.isnan(budget):
        raise ValueError("budget must be a number of seconds, not NaN")
    if isinstance(records, ViolationReport):
        keep = records._keep
    else:
        keep = ViolationReport(g)._records if records else None
    outcomes: list[CheckOutcome] = []
    for c in catalog.constraints:
        if c.status != IMPLEMENTED:
            outcomes.append(CheckOutcome(c.id, NOT_IMPLEMENTED_STATUS))
            continue
        outcomes.append(_run_constraint(g, c, limit, budget, keep))
    return outcomes


def mark_source_incomplete(outcomes: list[CheckOutcome], parts_missing: int) -> list[CheckOutcome]:
    """Re-flag data-dependent outcomes after a partial harvest: counts are
    kept, detail records dropped, statuses become source-incomplete."""
    flagged: list[CheckOutcome] = []
    for o in outcomes:
        if o.status in (OK, VIOLATED, TRUNCATED):
            flagged.append(
                replace(
                    o,
                    status=SOURCE_INCOMPLETE,
                    violations=(),
                    parts_missing=parts_missing,
                )
            )
        else:
            flagged.append(o)
    return flagged


def _report_prefix(terms) -> str:
    """The label prefix of the report nodes: ``v``, or as many ``v`` as it
    takes for no reported blank node among ``terms`` to have a label that
    starts with it, so that a report node never merges with a reported
    one."""
    labels = [t.label for t in terms if isinstance(t, BlankNode)]
    prefix = "v"
    while any(label.startswith(prefix) for label in labels):
        prefix += "v"
    return prefix


def violations_to_graph(outcomes: list[CheckOutcome]) -> Graph:
    """Encode all violations as triples in the fixed reporting namespace,
    one node per violation, one triple per populated field. Report nodes
    are ``_:v0``, ``_:v1``, ... unless a reported blank label starts with
    ``v`` (see ``_report_prefix``).

    ``ViolationReport.chunks`` writes the same triples without building
    the graph or violation records."""
    b = GraphBuilder()
    prefix = _report_prefix(t for outcome in outcomes for v in outcome.violations for t in (v.focus, v.value))
    n = 0
    for outcome in outcomes:
        for v in outcome.violations:
            node = BlankNode(f"{prefix}{n}")
            n += 1
            b.add(node, REPORT_ROOT, v.focus)
            if v.path is not None:
                b.add(node, REPORT_PATH, v.path)
            if v.value is not None:
                b.add(node, REPORT_VALUE, v.value)
            b.add(node, REPORT_SEVERITY, Literal(v.severity.json_name))
            b.add(node, REPORT_MESSAGE, Literal(v.message))
            b.add(node, REPORT_CONSTRAINT, Literal(v.constraint_id))
    return b.freeze(name="violations")


def violations_ntriples(outcomes: list[CheckOutcome]) -> bytes:
    """The canonical N-Triples of ``violations_to_graph(outcomes)``."""
    return serialize_ntriples(violations_to_graph(outcomes))
