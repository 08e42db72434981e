"""Compile constraints to plans, run them, and collect outcomes.

Class membership is explicit rdf:type only; there is no subclass
inference.  Each violation is identified by its (focus, path, value)
triple, deduplicated, and reported once; violations are ordered by the
focus term's canonical form.  All failure modes are encoded in outcomes,
never raised out of check().
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from operator import itemgetter

from .catalog import PLACEHOLDER_RE, Catalog, Constraint, IMPLEMENTED, Severity
from .graph import Graph, GraphBuilder
from .ntriples import canonical_lines
from .query import (
    And,
    BudgetExceeded,
    Compare,
    Constant,
    CycleProbe,
    FALSE,
    Filter,
    GroupCount,
    IsIri,
    IsLiteral,
    IsValidForDatatype,
    LangMatches,
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

# "= false" turns a boolean test into its negation inside a Filter.
_NOT = Constant(FALSE)


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
    counted = And([TP(_X, RDF_TYPE, c), *value_tps, GroupCount([_X], _N)])
    zero_case = And([TP(_X, RDF_TYPE, c), NotExists(And(value_tps))])

    patterns: list[Pattern] = []
    if mode == "max":
        patterns.append(And([counted, Filter(Compare(">", Var(_N), _int_lit(bound)))]))
    elif mode == "min":
        if bound == 0:
            return _union([], _X, p)
        patterns.append(And([counted, Filter(Compare("<", Var(_N), _int_lit(bound)))]))
        patterns.append(zero_case)
    else:
        patterns.append(And([counted, Filter(Compare("!=", Var(_N), _int_lit(bound)))]))
        if bound > 0:
            patterns.append(zero_case)
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
    invalid = Filter(Compare("=", IsValidForDatatype(_V, dt), _NOT))
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
        invalid = Compare("=", IsValidForDatatype(_V, params["datatype"]), _NOT)
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
            Filter(Compare("=", Regex(_V, rx), _NOT)),
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
            Filter(Compare("=", LangMatches(_V, rng), _NOT)),
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
                Filter(Compare("=", IsIri(_V), _NOT)),
                Filter(Compare("=", IsLiteral(_V), _NOT)),
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


def _run_constraint(
    g: Graph, c: Constraint, limit: int | None, budget: float | None
) -> CheckOutcome:
    start = time.monotonic()
    deadline = None if budget is None else start + budget
    try:
        built = compile_constraint(c)
    except CompileError as exc:
        return CheckOutcome(
            c.id, ENGINE_FAILURE, reason=f"compile: {exc.reason}", wall_time=time.monotonic() - start
        )
    term = g.term

    # A row is its own key: the focus id, then the path and value ids where
    # the plan binds them.  `seen` maps a kept key to its focus term and a
    # skipped one to None, so each key is judged once.
    seen: dict[tuple, Term | None] = {}
    kept = 0
    truncated = False
    try:
        for key in run_plan(g, built, deadline=deadline):
            if key in seen:
                continue
            focus = None if key[0] is None else term(key[0])
            if focus is None or isinstance(focus, Literal):
                seen[key] = None
                continue
            if limit is not None and kept >= limit:
                truncated = True
                break
            seen[key] = focus
            kept += 1
    except BudgetExceeded:
        return CheckOutcome(
            c.id, ENGINE_FAILURE, reason="budget", wall_time=time.monotonic() - start
        )
    except Exception as exc:  # pragma: no cover - defensive isolation
        return CheckOutcome(
            c.id, ENGINE_FAILURE, reason=str(exc), wall_time=time.monotonic() - start
        )

    columns = built.columns
    path_at = columns.index(built.path) if isinstance(built.path, Variable) else None
    value_at = columns.index(built.value) if isinstance(built.value, Variable) else None
    # Each kept violation's focus, path and value are displayed once, for
    # the sort key and the message. `ordered` replaces `seen`, which is
    # emptied so that a large outcome is not held twice.
    ordered = []
    for key, focus in seen.items():
        if focus is None:
            continue
        path = built.path if path_at is None else key[path_at]
        if path.__class__ is int:
            # Every compiler binds a path variable in predicate position,
            # where only IRIs occur, so this never merges two kept keys.
            path = term(path)
            if not isinstance(path, Iri):
                path = None
        value = built.value if value_at is None else key[value_at]
        if value.__class__ is int:
            value = term(value)
        value_kind = "" if value is None else value.__class__.__name__
        texts = (_display(focus), focus.__class__.__name__, _display(path), _display(value), value_kind)
        ordered.append((texts, focus, path, value))
    seen.clear()
    ordered.sort(key=itemgetter(0))
    message = _message_template(c).format
    violations = tuple(
        Violation(c.id, c.severity, focus, path, value, message(t[0], t[2], t[3]))
        for t, focus, path, value in ordered
    )
    elapsed = time.monotonic() - start
    if truncated:
        return CheckOutcome(c.id, TRUNCATED, violations, count=len(violations), limit=limit, wall_time=elapsed)
    if violations:
        return CheckOutcome(c.id, VIOLATED, violations, count=len(violations), wall_time=elapsed)
    return CheckOutcome(c.id, OK, wall_time=elapsed)


def check(
    g: Graph,
    catalog: Catalog,
    limit: int | None = DEFAULT_LIMIT,
    budget: float | None = DEFAULT_BUDGET,
) -> list[CheckOutcome]:
    """Run every catalog constraint over the graph, in catalog order.

    Outcomes are independent: a failing constraint never aborts the rest.
    `limit` caps violations per constraint (reaching it stops that
    constraint early); `budget` is wall-clock seconds per constraint.
    """
    if budget is not None and math.isnan(budget):
        raise ValueError("budget must be a number of seconds, not NaN")
    outcomes: list[CheckOutcome] = []
    for c in catalog.constraints:
        if c.status != IMPLEMENTED:
            outcomes.append(CheckOutcome(c.id, NOT_IMPLEMENTED_STATUS))
            continue
        outcomes.append(_run_constraint(g, c, limit, budget))
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


def _report_prefix(outcomes: list[CheckOutcome]) -> str:
    """The label prefix of the report nodes: ``v``, or as many ``v`` as it
    takes for no focus or value blank label to start with it, so that a
    report node never merges with a reported one."""
    labels = [
        t.label
        for outcome in outcomes
        for v in outcome.violations
        for t in (v.focus, v.value)
        if isinstance(t, BlankNode)
    ]
    prefix = "v"
    while any(label.startswith(prefix) for label in labels):
        prefix += "v"
    return prefix


def violations_to_graph(outcomes: list[CheckOutcome]) -> Graph:
    """Encode all violations as triples in the fixed reporting namespace,
    one node per violation, one triple per populated field. Report nodes
    are ``_:v0``, ``_:v1``, ... unless a reported blank label starts with
    ``v`` (see ``_report_prefix``).

    ``violations_ntriples`` writes the same triples without building the
    graph; this is the reference it is tested against."""
    b = GraphBuilder()
    prefix = _report_prefix(outcomes)
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
    """``serialize_ntriples(violations_to_graph(outcomes))``, written
    straight from the violation records, with no graph built."""
    root = f" {term_text(REPORT_ROOT)} "
    path_p = f" {term_text(REPORT_PATH)} "
    value_p = f" {term_text(REPORT_VALUE)} "
    severity_p = f" {term_text(REPORT_SEVERITY)} "
    message_p = f" {term_text(REPORT_MESSAGE)} "
    constraint_p = f" {term_text(REPORT_CONSTRAINT)} "
    prefix = f"_:{_report_prefix(outcomes)}"

    def blocks():
        n = 0
        # The constraint, path and severity lines repeat from one violation
        # to the next: each is rendered again only when its field is not the
        # previous violation's object.
        constraint_id = path = severity = None
        for outcome in outcomes:
            for v in outcome.violations:
                if v.constraint_id is not constraint_id:
                    constraint_id = v.constraint_id
                    constraint_tail = f"{constraint_p}{plain_literal_text(constraint_id)} ."
                tails = [constraint_tail, f"{message_p}{plain_literal_text(v.message)} ."]
                if v.path is not None:
                    if v.path is not path:
                        path = v.path
                        path_tail = f"{path_p}{term_text(path)} ."
                    tails.append(path_tail)
                tails.append(f"{root}{term_text(v.focus)} .")
                if v.severity is not severity:
                    severity = v.severity
                    severity_tail = f"{severity_p}{plain_literal_text(severity.json_name)} ."
                tails.append(severity_tail)
                if v.value is not None:
                    tails.append(f"{value_p}{term_text(v.value)} .")
                node = f"{prefix}{n}"
                n += 1
                yield node + f"\n{node}".join(tails)

    # Each violation is one string, its lines (the node's label before each
    # tail) in predicate order.  Every line starts with the label and a
    # space, and labels are distinct, so blocks sort as their lines would,
    # and canonical_lines holds one string per violation, not six, while it
    # sorts and joins.
    return canonical_lines(blocks())
