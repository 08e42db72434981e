"""Independent reference implementations backing the randomized suites.

Everything here is deliberately naive.  Patterns are evaluated by scanning
the full triple list, constraint families are decided per node from first
principles over plain adjacency maps, and graph equality is settled by
searching for an explicit blank-node bijection.  Nothing is shared with
the engine beyond the term model and the datatype primitives, which have
their own direct tests.
"""
from __future__ import annotations

import re

from fractions import Fraction

from rdfval.datatypes import is_valid_for_datatype, numeric_value
from rdfval.graph import Graph, GraphBuilder
from rdfval.query import (
    And,
    Compare,
    Constant,
    Count,
    Filter,
    IsIri,
    IsLiteral,
    IsValidForDatatype,
    LangMatches,
    Not,
    NotExists,
    Pattern,
    Regex,
    SameLanguage,
    TriplePattern,
    Var,
    Variable,
)
from rdfval.terms import (
    BlankNode,
    Iri,
    Literal,
    RDF_TYPE,
    Term,
    XSD_ANY_URI,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_GYEAR,
    XSD_INTEGER,
    XSD_NON_NEGATIVE_INTEGER,
    XSD_STRING,
    term_text,
)

SKOS_IN_SCHEME = Iri("http://www.w3.org/2004/02/skos/core#inScheme")
QB_NS = "http://purl.org/linked-data/cube#"
QB_DATA_SET = Iri(QB_NS + "dataSet")
QB_STRUCTURE = Iri(QB_NS + "structure")
QB_COMPONENT = Iri(QB_NS + "component")
QB_DIMENSION = Iri(QB_NS + "dimension")


class Reject(Exception):
    """Expression type error; the enclosing filter drops the binding."""


def _cmp(op: str, a, b) -> bool:
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


def _boolean(lit: Literal) -> bool:
    if lit.datatype != XSD_BOOLEAN or lit.lexical not in ("true", "false", "1", "0"):
        raise Reject
    return lit.lexical in ("true", "1")


_TEMPORAL_LEXICAL = re.compile(
    r"(?P<year>-?[0-9]{4,})(?:-(?P<month>[0-9]{2})-(?P<day>[0-9]{2})"
    r"(?:T(?P<hour>[0-9]{2}):(?P<minute>[0-9]{2}):(?P<second>[0-9]{2}(?:\.[0-9]+)?))?)?"
    r"(?P<zone>Z|[+-][0-9]{2}:[0-9]{2})?"
)
# An unzoned value may be read in any zone from -14:00 to +14:00.
_ZONE_SPAN = 14 * 3600


def _days(year: int, month: int, day: int) -> int:
    """Days from a fixed epoch in the proleptic Gregorian calendar, for
    any integer year (the civil-from-days count, run backwards)."""
    year -= month <= 2
    era, year_of_era = divmod(year, 400)
    day_of_year = (153 * (month + (-3 if month > 2 else 9)) + 2) // 5 + day - 1
    return era * 146097 + year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year


def _temporal(lit: Literal) -> tuple[Fraction, bool] | None:
    """``(seconds, zoned)`` of a valid date, dateTime or gYear literal:
    seconds from the epoch of the UTC instant for a zoned value, of the
    local reading for an unzoned one."""
    if lit.datatype not in (XSD_DATE, XSD_DATETIME, XSD_GYEAR):
        return None
    if not is_valid_for_datatype(lit.lexical, lit.datatype):
        return None
    m = _TEMPORAL_LEXICAL.fullmatch(lit.lexical)
    days = _days(int(m["year"]), int(m["month"] or 1), int(m["day"] or 1))
    minutes = (days * 24 + int(m["hour"] or 0)) * 60 + int(m["minute"] or 0)
    seconds = minutes * 60 + Fraction(m["second"] or 0)
    zone = m["zone"]
    if zone is None:
        return seconds, False
    if zone != "Z":
        offset = (int(zone[1:3]) * 60 + int(zone[4:])) * 60
        seconds -= offset if zone[0] == "+" else -offset
    return seconds, True


def _temporal_order(a: tuple[Fraction, bool], b: tuple[Fraction, bool]) -> int:
    """-1, 0 or 1 under XSD 1.1 Part 2 §3.3.7: two zoned or two unzoned
    values by their seconds; a zoned and an unzoned value only when the
    zoned one lies outside every zone reading of the other, otherwise the
    order is indeterminate and the comparison rejects."""
    (ta, a_zoned), (tb, b_zoned) = a, b
    if a_zoned != b_zoned:
        zoned, local = (ta, tb) if a_zoned else (tb, ta)
        if local - _ZONE_SPAN <= zoned <= local + _ZONE_SPAN:
            raise Reject
        order = -1 if zoned < local else 1
        return order if a_zoned else -order
    return (ta > tb) - (ta < tb)


def compare_terms(op: str, a: Term, b: Term) -> bool:
    """Reference filter comparison: numeric and temporal literals by value,
    booleans by value under equality only, plain strings bytewise, other
    same-kind pairs by identity under equality only; anything else rejects."""
    if isinstance(a, Literal) and isinstance(b, Literal):
        na, nb = numeric_value(a), numeric_value(b)
        if na is not None and nb is not None:
            return _cmp(op, na, nb)
        ta, tb = _temporal(a), _temporal(b)
        if ta is not None and tb is not None:
            return _cmp(op, _temporal_order(ta, tb), 0)
        if a.datatype == XSD_BOOLEAN and b.datatype == XSD_BOOLEAN:
            if op not in ("=", "!="):
                raise Reject
            return _cmp(op, _boolean(a), _boolean(b))
        if op in ("=", "!="):
            same = (a.lexical, a.datatype, a.language) == (b.lexical, b.datatype, b.language)
            return same if op == "=" else not same
        if a.datatype == XSD_STRING and b.datatype == XSD_STRING:
            return _cmp(op, a.lexical, b.lexical)
        raise Reject
    if isinstance(a, Literal) or isinstance(b, Literal):
        raise Reject
    if op in ("=", "!="):
        same = a == b
        return same if op == "=" else not same
    raise Reject


def lang_matches(lit: Literal, language_range: str) -> bool:
    if lit.language is None:
        return False
    rng = language_range.lower()
    return rng == "*" or lit.language == rng or lit.language.startswith(rng + "-")


def eval_expr(e, row):
    """Evaluate an expression over a Term-valued row."""
    if isinstance(e, Constant):
        return e.term
    if isinstance(e, Var):
        t = row.get(e.variable)
        if t is None:
            raise Reject
        return t
    if isinstance(e, Compare):
        return compare_terms(e.op, eval_expr(e.lhs, row), eval_expr(e.rhs, row))
    if isinstance(e, Not):
        return not eval_expr(e.expr, row)
    if isinstance(e, Regex):
        t = eval_expr(Var(e.variable), row)
        if isinstance(t, Literal):
            text = t.lexical
        elif isinstance(t, Iri):
            text = t.text
        else:
            raise Reject
        return re.search(e.pattern, text) is not None
    if isinstance(e, IsValidForDatatype):
        t = eval_expr(Var(e.variable), row)
        if not isinstance(t, Literal):
            raise Reject
        return is_valid_for_datatype(t.lexical, e.datatype or t.datatype)
    if isinstance(e, LangMatches):
        t = eval_expr(Var(e.variable), row)
        if not isinstance(t, Literal):
            raise Reject
        return lang_matches(t, e.language_range)
    if isinstance(e, SameLanguage):
        a, b = row.get(e.left), row.get(e.right)
        if not (isinstance(a, Literal) and isinstance(b, Literal)):
            raise Reject
        if a.language is None or b.language is None:
            return False
        return a.language == b.language
    if isinstance(e, IsIri):
        return isinstance(eval_expr(Var(e.variable), row), Iri)
    if isinstance(e, IsLiteral):
        return isinstance(eval_expr(Var(e.variable), row), Literal)
    raise Reject


def accepts(expr, row) -> bool:
    try:
        return eval_expr(expr, row)
    except Reject:
        return False


# ---------------------------------------------------------------------------
# Naive pattern evaluation


def _flat(p: Pattern) -> list[Pattern]:
    if isinstance(p, And):
        out: list[Pattern] = []
        for part in p.parts:
            out.extend(_flat(part))
        return out
    return [p]


def _unify(row: dict, tp: TriplePattern, triple) -> dict | None:
    new = dict(row)
    for atom, got in (
        (tp.subject, triple.subject),
        (tp.predicate, triple.predicate),
        (tp.object, triple.object),
    ):
        if isinstance(atom, Variable):
            bound = new.get(atom)
            if bound is None:
                new[atom] = got
            elif bound != got:
                return None
        elif atom != got:
            return None
    return new


def _candidates(tp: TriplePattern, triples) -> list:
    out = []
    for t in triples:
        if not isinstance(tp.subject, Variable) and tp.subject != t.subject:
            continue
        if not isinstance(tp.predicate, Variable) and tp.predicate != t.predicate:
            continue
        if not isinstance(tp.object, Variable) and tp.object != t.object:
            continue
        out.append(t)
    return out


def _rows_over(triples, pattern, rows):
    """The rows of `pattern` under each of `rows`: its triple patterns
    joined, then its counts, then its filters and negations."""
    items = _flat(pattern)
    for tp in (i for i in items if isinstance(i, TriplePattern)):
        cands = _candidates(tp, triples)
        joined = []
        for row in rows:
            for t in cands:
                new = _unify(row, tp, t)
                if new is not None:
                    joined.append(new)
        rows = joined
    for c in (i for i in items if isinstance(i, Count)):
        rows = [
            {**r, c.into: Literal(str(len(_rows_over(triples, c.pattern, [dict(r)]))), XSD_INTEGER)}
            for r in rows
        ]
    filters = [i for i in items if isinstance(i, Filter)]
    rows = [r for r in rows if all(accepts(f.expr, r) for f in filters)]
    negations = [i for i in items if isinstance(i, NotExists)]
    return [r for r in rows if all(not _rows_over(triples, n.pattern, [dict(r)]) for n in negations)]


def naive_evaluate(g: Graph, pattern: Pattern) -> list[dict]:
    """All solutions of a pattern by exhaustive scanning; one dict per
    total assignment, in no particular order."""
    return _rows_over(list(g), pattern, [{}])


def row_key(row: dict) -> tuple:
    return tuple(sorted((v.name, term_text(t)) for v, t in row.items()))


def rows_equal(a, b) -> bool:
    """Multiset equality of two solution sequences."""
    return sorted(row_key(r) for r in a) == sorted(row_key(r) for r in b)


# ---------------------------------------------------------------------------
# Per-family violation oracles


class GraphFacts:
    """Plain adjacency views of one graph, built once and shared."""

    def __init__(self, g: Graph):
        self.triples = list(g)
        self.spo = {(t.subject, t.predicate, t.object) for t in self.triples}
        self.by_sp: dict[tuple, list] = {}
        self.by_p: dict[Term, list] = {}
        self.by_s: dict[Term, list] = {}
        for t in self.triples:
            self.by_sp.setdefault((t.subject, t.predicate), []).append(t.object)
            self.by_p.setdefault(t.predicate, []).append((t.subject, t.object))
            self.by_s.setdefault(t.subject, []).append((t.predicate, t.object))

    def objects(self, s, p) -> list:
        return self.by_sp.get((s, p), [])

    def pairs(self, p) -> list:
        return self.by_p.get(p, [])

    def typed(self, c) -> list:
        return [s for s, o in self.pairs(RDF_TYPE) if o == c]

    def has(self, s, p, o) -> bool:
        return (s, p, o) in self.spo


def _int_lit(n: int) -> Literal:
    return Literal(str(n), XSD_INTEGER)


def _against_bound(op: str, v: Term, bound: int) -> bool:
    try:
        return compare_terms(op, v, _int_lit(bound))
    except Reject:
        return False


def _scoped_pairs(facts: GraphFacts, params) -> list[tuple]:
    """(focus, value) pairs of the constrained property, honoring an
    optional class scope."""
    p = params["property"]
    if "class" in params:
        return [
            (x, v) for x in facts.typed(params["class"]) for v in facts.objects(x, p)
        ]
    return list(facts.pairs(p))


def _existential(facts, params):
    c, p = params["class"], params["property"]
    return {(x, p, None) for x in facts.typed(c) if not facts.objects(x, p)}


def _conditional(facts, params):
    c = params["class"]
    if_p, then_p = params["if-property"], params["then-property"]
    return {
        (x, then_p, None)
        for x in facts.typed(c)
        if facts.objects(x, if_p) and not facts.objects(x, then_p)
    }


def _cardinality(facts, params, mode, qualified):
    c, p, bound = params["class"], params["property"], params["bound"]
    out = set()
    for x in facts.typed(c):
        values = set(facts.objects(x, p))
        if qualified:
            vc = params["value-class"]
            values = {v for v in values if facts.has(v, RDF_TYPE, vc)}
        n = len(values)
        if mode == "max":
            if n > bound:
                out.add((x, p, _int_lit(n)))
        elif mode == "min":
            if bound == 0:
                continue
            if n == 0:
                out.add((x, p, None))
            elif n < bound:
                out.add((x, p, _int_lit(n)))
        else:
            if n == 0:
                if bound > 0:
                    out.add((x, p, None))
            elif n != bound:
                out.add((x, p, _int_lit(n)))
    return out


def _universal(facts, params):
    c, p, vc = params["class"], params["property"], params["value-class"]
    return {
        (x, p, v)
        for x in facts.typed(c)
        for v in facts.objects(x, p)
        if not facts.has(v, RDF_TYPE, vc)
    }


def _membership(facts, params):
    p, scheme = params["property"], params["scheme"]
    return {
        (x, p, v)
        for x, v in facts.pairs(p)
        if not facts.has(v, SKOS_IN_SCHEME, scheme)
    }


def _valid_datatype(facts, params):
    dt = params.get("datatype")
    p = params.get("property")
    if p is not None:
        candidates = [(x, p, v) for x, v in facts.pairs(p)]
    else:
        candidates = [(t.subject, t.predicate, t.object) for t in facts.triples]
    return {
        (x, q, v)
        for x, q, v in candidates
        if isinstance(v, Literal) and not is_valid_for_datatype(v.lexical, dt or v.datatype)
    }


def _literal_range(facts, params):
    p = params["property"]
    out = set()
    for x, v in _scoped_pairs(facts, params):
        if "min-inclusive" in params and _against_bound("<", v, params["min-inclusive"]):
            out.add((x, p, v))
        if "max-inclusive" in params and _against_bound(">", v, params["max-inclusive"]):
            out.add((x, p, v))
    return out


def _value_comparison(facts, params):
    c, p, q = params["class"], params["property"], params["other-property"]
    out = set()
    for x in facts.typed(c):
        others = facts.objects(x, q)
        for v in facts.objects(x, p):
            for w in others:
                try:
                    exceeds = compare_terms(">", v, w)
                except Reject:
                    continue
                if exceeds:
                    out.add((x, p, v))
                    break
    return out


def _facets(facts, params):
    p, dt = params["property"], params["datatype"]
    out = set()
    for x, v in _scoped_pairs(facts, params):
        if isinstance(v, Literal) and not is_valid_for_datatype(v.lexical, dt):
            out.add((x, p, v))
        if "min-inclusive" in params and _against_bound("<", v, params["min-inclusive"]):
            out.add((x, p, v))
        if "max-inclusive" in params and _against_bound(">", v, params["max-inclusive"]):
            out.add((x, p, v))
    return out


def _pattern_matching(facts, params, iri_side):
    p = params["property"]
    rx = re.compile(params["pattern"])
    out = set()
    for x, v in _scoped_pairs(facts, params):
        if iri_side:
            if isinstance(v, Iri) and rx.search(v.text) is None:
                out.add((x, p, v))
        else:
            if isinstance(v, Literal) and rx.search(v.lexical) is None:
                out.add((x, p, v))
    return out


def _inverse_functional(facts, params):
    p = params["property"]
    holders: dict[Term, set] = {}
    for s, o in facts.pairs(p):
        holders.setdefault(o, set()).add(s)
    out = set()
    for o, subjects in holders.items():
        if len(subjects) > 1:
            for s in subjects:
                out.add((s, p, o))
    return out


def _domain(facts, params):
    p, c = params["property"], params["class"]
    return {(s, p, None) for s, _ in facts.pairs(p) if not facts.has(s, RDF_TYPE, c)}


def _range(facts, params):
    p, c = params["property"], params["class"]
    return {(s, p, o) for s, o in facts.pairs(p) if not facts.has(o, RDF_TYPE, c)}


def _valid_properties(facts, params):
    allowed = set(params["properties"])
    out = set()
    for x in facts.typed(params["class"]):
        for p, o in facts.by_s.get(x, []):
            if p not in allowed:
                out.add((x, p, o))
    return out


def _disjoint(facts, params):
    c1, c2 = params["class"], params["other-class"]
    second = set(facts.typed(c2))
    return {(x, RDF_TYPE, c2) for x in facts.typed(c1) if x in second}


def _language_cardinality(facts, params):
    c, p = params["class"], params["property"]
    out = set()
    if "max-per-language" in params:
        for x in facts.typed(c):
            per_tag: dict[str, set] = {}
            for v in facts.objects(x, p):
                if isinstance(v, Literal) and v.language is not None:
                    per_tag.setdefault(v.language, set()).add(v)
            if any(len(vs) > 1 for vs in per_tag.values()):
                out.add((x, p, None))
    elif "required-language" in params:
        rng = params["required-language"]
        for x in facts.typed(c):
            if not any(
                isinstance(v, Literal) and lang_matches(v, rng)
                for v in facts.objects(x, p)
            ):
                out.add((x, p, None))
    else:
        rng = params["value-language"]
        for x in facts.typed(c):
            for v in facts.objects(x, p):
                if isinstance(v, Literal) and not lang_matches(v, rng):
                    out.add((x, p, v))
    return out


def _acyclicity(facts, params):
    p = params["property"]
    depth = params.get("max-depth", 20)
    succ: dict[Term, set] = {}
    for s, o in facts.pairs(p):
        succ.setdefault(s, set()).add(o)
    out = set()
    for start in succ:
        # Breadth-first distances from the start; the shortest cycle closes
        # through any predecessor of the start.
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in succ.get(u, ()):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        shortest = None
        for u, d in dist.items():
            if start in succ.get(u, ()):
                if shortest is None or d + 1 < shortest:
                    shortest = d + 1
        if shortest is not None and shortest <= depth:
            out.add((start, p, None))
    return out


def _allowed_values(facts, params):
    p = params["property"]
    allowed = params["values"]
    iris = {a for a in allowed if isinstance(a, Iri)}
    lits = [a for a in allowed if isinstance(a, Literal)]

    def literal_outside(v: Literal) -> bool:
        for a in lits:
            try:
                if not compare_terms("!=", v, a):
                    return False
            except Reject:
                return False
        return True

    out = set()
    for x, v in _scoped_pairs(facts, params):
        if isinstance(v, Iri):
            if v not in iris:
                out.add((x, p, v))
        elif isinstance(v, Literal):
            if literal_outside(v):
                out.add((x, p, v))
        else:
            out.add((x, p, v))
    return out


def _dimension_completeness(facts, params):
    del params
    out = set()
    for obs, ds in facts.pairs(QB_DATA_SET):
        for structure in facts.objects(ds, QB_STRUCTURE):
            for comp in facts.objects(structure, QB_COMPONENT):
                for dim in facts.objects(comp, QB_DIMENSION):
                    if not facts.objects(obs, dim):
                        path = dim if isinstance(dim, Iri) else None
                        out.add((obs, path, None))
    return out


FAMILY_ORACLES = {
    "EXISTENTIAL-QUANTIFICATION": _existential,
    "CONDITIONAL-PROPERTY": _conditional,
    "MIN-QUALIFIED-CARDINALITY": lambda f, p: _cardinality(f, p, "min", True),
    "MAX-QUALIFIED-CARDINALITY": lambda f, p: _cardinality(f, p, "max", True),
    "EXACT-QUALIFIED-CARDINALITY": lambda f, p: _cardinality(f, p, "exact", True),
    "MIN-UNQUALIFIED-CARDINALITY": lambda f, p: _cardinality(f, p, "min", False),
    "MAX-UNQUALIFIED-CARDINALITY": lambda f, p: _cardinality(f, p, "max", False),
    "EXACT-UNQUALIFIED-CARDINALITY": lambda f, p: _cardinality(f, p, "exact", False),
    "UNIVERSAL-QUANTIFICATION": _universal,
    "MEMBERSHIP-IN-CONTROLLED-VOCABULARY": _membership,
    "VALUE-IS-VALID-FOR-DATATYPE": _valid_datatype,
    "LITERAL-RANGE": _literal_range,
    "LITERAL-VALUE-COMPARISON": _value_comparison,
    "DATA-PROPERTY-FACETS": _facets,
    "LITERAL-PATTERN-MATCHING": lambda f, p: _pattern_matching(f, p, False),
    "IRI-PATTERN-MATCHING": lambda f, p: _pattern_matching(f, p, True),
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


def family_violations(facts: GraphFacts, family_id: str, params) -> set:
    """Violating (focus, path, value) keys decided per node."""
    return FAMILY_ORACLES[family_id](facts, params)


# ---------------------------------------------------------------------------
# Violation messages

_PLACEHOLDER = re.compile(r"\{([^{}]*)\}")


def render_message(message: str, parameters: dict[str, str], focus: str, path: str, value: str) -> str:
    """A violation's message, by one regex pass over the catalog text:
    each `{name}` becomes the text of the parameter of that name, else of
    the violation's focus, path or value, else stays as written."""
    substitutions = {"focus": focus, "path": path, "value": value}
    substitutions.update(parameters)
    return _PLACEHOLDER.sub(lambda m: substitutions.get(m.group(1), m.group(0)), message)


# ---------------------------------------------------------------------------
# Random generators

CLASSES = tuple(Iri(f"urn:ex:C{i}") for i in range(4))
PROPS = tuple(Iri(f"urn:ex:p{i}") for i in range(6))
SCHEMES = (Iri("urn:ex:schemeA"), Iri("urn:ex:schemeB"))

LITERALS = (
    Literal("alpha"),
    Literal("Beta"),
    Literal(""),
    Literal("x y"),
    Literal("hello", language="en"),
    Literal("howdy", language="en"),
    Literal("hello again", language="en-GB"),
    Literal("hallo", language="de"),
    Literal("5", XSD_INTEGER),
    Literal("05", XSD_INTEGER),
    Literal("-3", XSD_INTEGER),
    Literal("abc", XSD_INTEGER),
    Literal("2", XSD_NON_NEGATIVE_INTEGER),
    Literal("-2", XSD_NON_NEGATIVE_INTEGER),
    Literal("2.5", XSD_DECIMAL),
    Literal("2.50", XSD_DECIMAL),
    Literal(".5", XSD_DECIMAL),
    Literal("1e3", XSD_DOUBLE),
    Literal("INF", XSD_DOUBLE),
    Literal("NaN", XSD_DOUBLE),
    Literal("true", XSD_BOOLEAN),
    Literal("1", XSD_BOOLEAN),
    Literal("maybe", XSD_BOOLEAN),
    Literal("2015-06-01", XSD_DATE),
    Literal("2015-02-30", XSD_DATE),
    Literal("2015-06-01T12:00:00", XSD_DATETIME),
    Literal("2015-06-01T12:00:00Z", XSD_DATETIME),
    Literal("2015-06-01T17:30:00+05:00", XSD_DATETIME),
    Literal("2015-05-31T09:00:00-05:00", XSD_DATETIME),
    Literal("2015-06-03+02:00", XSD_DATE),
    Literal("2015", XSD_GYEAR),
    Literal("15", XSD_GYEAR),
    Literal("http://example.org/ok", XSD_ANY_URI),
    Literal("not a uri", XSD_ANY_URI),
    Literal("2015-06-01T24:00:00", XSD_DATETIME),
    Literal("2015-06-02T00:00:00", XSD_DATETIME),
)


def random_instance_graph(rng) -> Graph:
    """Instance data over a fixed small vocabulary, sized so the largest
    draws stay within 200 nodes and 600 triples."""
    roll = rng.random()
    if roll < 0.80:
        n_nodes, n_triples = rng.randint(5, 40), rng.randint(15, 160)
    elif roll < 0.95:
        n_nodes, n_triples = rng.randint(40, 100), rng.randint(160, 350)
    else:
        # Named and blank nodes (153), the fixed vocabulary (18) and the
        # literal pool (36) stay within 207 distinct terms, and triples
        # within 600.
        n_nodes, n_triples = rng.randint(100, 150), rng.randint(350, 595)
    nodes: list[Term] = [Iri(f"urn:ex:n{i}") for i in range(n_nodes)]
    for i in range(rng.randint(0, 3)):
        nodes.append(BlankNode(f"x{i}"))

    b = GraphBuilder()
    made = 0
    while made < n_triples:
        kind = rng.random()
        s = rng.choice(nodes)
        if kind < 0.25:
            b.add(s, RDF_TYPE, rng.choice(CLASSES))
            made += 1
        elif kind < 0.55:
            b.add(s, rng.choice(PROPS), rng.choice(nodes))
            made += 1
        elif kind < 0.85:
            b.add(s, rng.choice(PROPS), rng.choice(LITERALS))
            made += 1
        elif kind < 0.92 or made + 7 > n_triples:
            b.add(s, SKOS_IN_SCHEME, rng.choice(SCHEMES))
            made += 1
        else:
            ds, dsd, comp = (
                rng.choice(nodes),
                rng.choice(nodes),
                rng.choice(nodes),
            )
            b.add(s, QB_DATA_SET, ds)
            b.add(ds, QB_STRUCTURE, dsd)
            b.add(dsd, QB_COMPONENT, comp)
            made += 3
            # One or two dimensions: mostly properties, now and then a
            # literal or a node, which may be blank.
            for _ in range(rng.choice((1, 1, 2))):
                roll = rng.random()
                if roll < 0.7:
                    dim = rng.choice(PROPS)
                else:
                    dim = rng.choice(LITERALS) if roll < 0.85 else rng.choice(nodes)
                b.add(comp, QB_DIMENSION, dim)
                made += 1
                if isinstance(dim, Iri) and rng.random() < 0.5:
                    b.add(s, dim, rng.choice(nodes))
                    made += 1
    return b.freeze(name="random")


_DATATYPES = (
    XSD_INTEGER,
    XSD_NON_NEGATIVE_INTEGER,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_GYEAR,
    XSD_ANY_URI,
    XSD_STRING,
)

_REGEXES = ("^a", "5", "[0-9]+$", "urn:", "e.a", "^urn:ex:n[0-4]$", "o")
_LANGUAGE_RANGES = ("en", "de", "*", "en-GB", "fr")


def random_family_params(rng, family_id: str) -> dict:
    """Parameter bindings for one family, drawn from the same vocabulary
    the graph generator uses."""
    c, c2 = rng.choice(CLASSES), rng.choice(CLASSES)
    p, p2 = rng.choice(PROPS), rng.choice(PROPS)
    if family_id == "EXISTENTIAL-QUANTIFICATION":
        return {"class": c, "property": p}
    if family_id == "CONDITIONAL-PROPERTY":
        return {"class": c, "if-property": p, "then-property": p2}
    if family_id.endswith("QUALIFIED-CARDINALITY"):
        params = {"class": c, "property": p, "bound": rng.randint(0, 3)}
        if "UNQUALIFIED" not in family_id:
            params["value-class"] = c2
        return params
    if family_id in ("UNIVERSAL-QUANTIFICATION", "CLASS-SPECIFIC-PROPERTY-RANGE"):
        return {"class": c, "property": p, "value-class": c2}
    if family_id == "MEMBERSHIP-IN-CONTROLLED-VOCABULARY":
        return {"property": p, "scheme": rng.choice(SCHEMES)}
    if family_id == "VALUE-IS-VALID-FOR-DATATYPE":
        variant = rng.random()
        if variant < 0.3:
            return {}
        if variant < 0.6:
            return {"property": p}
        return {"property": p, "datatype": rng.choice(_DATATYPES)}
    if family_id == "LITERAL-RANGE":
        params = {"property": p}
        if rng.random() < 0.5:
            params["class"] = c
        if rng.random() < 0.7:
            params["min-inclusive"] = rng.randint(-2, 4)
        if "min-inclusive" not in params or rng.random() < 0.5:
            params["max-inclusive"] = rng.randint(-2, 4)
        return params
    if family_id == "LITERAL-VALUE-COMPARISON":
        return {"class": c, "property": p, "other-property": p2}
    if family_id == "DATA-PROPERTY-FACETS":
        params = {"property": p, "datatype": rng.choice(_DATATYPES)}
        if rng.random() < 0.5:
            params["class"] = c
        if rng.random() < 0.5:
            params["min-inclusive"] = rng.randint(-2, 4)
        if rng.random() < 0.5:
            params["max-inclusive"] = rng.randint(-2, 4)
        return params
    if family_id in ("LITERAL-PATTERN-MATCHING", "IRI-PATTERN-MATCHING"):
        params = {"property": p, "pattern": rng.choice(_REGEXES)}
        if rng.random() < 0.5:
            params["class"] = c
        return params
    if family_id == "INVERSE-FUNCTIONAL-PROPERTY":
        return {"property": p}
    if family_id in ("PROPERTY-DOMAIN", "PROPERTY-RANGE"):
        return {"property": p, "class": c}
    if family_id == "CONTEXT-SPECIFIC-VALID-PROPERTIES":
        allowed = list(rng.sample(PROPS, rng.randint(1, 4)))
        if rng.random() < 0.5:
            allowed.append(RDF_TYPE)
        return {"class": c, "properties": tuple(allowed)}
    if family_id == "DISJOINT-CLASSES":
        return {"class": c, "other-class": c2}
    if family_id == "LANGUAGE-TAG-CARDINALITY":
        mode = rng.random()
        if mode < 0.34:
            return {"class": c, "property": p, "max-per-language": 1}
        if mode < 0.67:
            return {
                "class": c,
                "property": p,
                "required-language": rng.choice(_LANGUAGE_RANGES),
            }
        return {
            "class": c,
            "property": p,
            "value-language": rng.choice(_LANGUAGE_RANGES),
        }
    if family_id == "STRUCTURE-ACYCLICITY":
        params = {"property": p}
        if rng.random() < 0.7:
            params["max-depth"] = rng.choice((1, 2, 3, 20))
        return params
    if family_id == "ALLOWED-VALUES":
        pool = [Iri(f"urn:ex:n{i}") for i in range(6)] + list(LITERALS[:12])
        values = tuple(rng.sample(pool, rng.randint(1, 5)))
        params = {"property": p, "values": values}
        if rng.random() < 0.5:
            params["class"] = c
        return params
    if family_id == "DIMENSION-COMPLETENESS":
        return {}
    raise ValueError(f"no parameter generator for {family_id}")


VARS = tuple(Variable(name) for name in "abcdef")
COUNT = Variable("count")


def random_pattern(rng, g: Graph):
    """A plannable pattern over a graph's own vocabulary: up to four
    triple patterns, at most one NotExists and one Filter, and sometimes a
    closing Count, half of those followed by a filter on the count.  The
    patterns of NotExists and Count share some variables with the triple
    patterns and have others of their own."""
    triples = list(g)
    subjects = [t.subject for t in triples] or [Iri("urn:ex:n0")]
    preds = sorted({t.predicate for t in triples}, key=term_text) or [PROPS[0]]
    objects = [t.object for t in triples] or [Literal("x")]
    foreign = (Iri("urn:ex:absent"), Literal("absent"), rng.choice(LITERALS))

    fresh = list(VARS)
    bound: list[Variable] = []

    def atom(pool, var_prob):
        if rng.random() < var_prob:
            if bound and rng.random() < 0.65:
                return rng.choice(bound)
            if fresh:
                v = fresh.pop(0)
                bound.append(v)
                return v
            return rng.choice(bound)
        if rng.random() < 0.1:
            return rng.choice(foreign)
        return rng.choice(pool)

    def triple_pattern(share_required):
        s = atom(subjects, 0.7)
        p = atom(preds, 0.2)
        o = atom(objects, 0.6)
        tp = TriplePattern(s, p, o)
        n_vars = sum(isinstance(a, Variable) for a in (s, p, o))
        if share_required and n_vars >= 2 and not any(
            isinstance(a, Variable) and a in share_required for a in (s, p, o)
        ):
            # Re-anchor one slot so naive enumeration cannot cross-join.
            tp = TriplePattern(rng.choice(share_required), p, o)
        return tp

    parts: list[Pattern] = []
    n_tp = rng.randint(1, 4)
    for i in range(n_tp):
        anchor = list(bound) if i else []
        parts.append(triple_pattern(anchor))

    # Re-anchoring can leave a drawn variable out of every triple pattern;
    # filters may only mention variables that actually occur.
    used = {
        a
        for tp in parts
        for a in (tp.subject, tp.predicate, tp.object)
        if isinstance(a, Variable)
    }
    outer_bound = [v for v in VARS if v in used]

    def correlated():
        inner_fresh = [v for v in VARS if v not in outer_bound]
        inner_parts = []
        for _ in range(rng.randint(1, 2)):
            def inner_atom(pool, var_prob):
                if rng.random() < var_prob:
                    if outer_bound and rng.random() < 0.5:
                        return rng.choice(outer_bound)
                    if inner_fresh:
                        return inner_fresh.pop(0)
                    return rng.choice(outer_bound)
                return rng.choice(pool)

            inner_parts.append(
                TriplePattern(
                    inner_atom(subjects, 0.7),
                    inner_atom(preds, 0.15),
                    inner_atom(objects, 0.6),
                )
            )
        return inner_parts[0] if len(inner_parts) == 1 else And(inner_parts)

    if rng.random() < 0.5 and outer_bound:
        parts.insert(rng.randint(0, len(parts)), NotExists(correlated()))

    if rng.random() < 0.5 and outer_bound:
        parts.insert(
            rng.randint(0, len(parts)),
            Filter(random_filter_expr(rng, outer_bound, objects)),
        )

    rng.shuffle(parts)
    # Drawn after everything else, so that a count leaves the rest of the
    # pattern as it was drawn.
    if rng.random() < 0.3 and outer_bound:
        parts.append(Count(correlated(), COUNT))
        if rng.random() < 0.5:
            op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
            parts.append(Filter(Compare(op, Var(COUNT), Constant(_int_lit(rng.randint(0, 3))))))
    return parts[0] if len(parts) == 1 else And(parts)


def random_filter_expr(rng, bound_vars, objects):
    v = rng.choice(bound_vars)
    w = rng.choice(bound_vars)
    form = rng.random()
    ops = ("=", "!=", "<", "<=", ">", ">=")
    if form < 0.25:
        return Compare(rng.choice(ops), Var(v), Constant(rng.choice(objects)))
    if form < 0.4:
        return Compare(rng.choice(ops), Var(v), Var(w))
    if form < 0.5:
        return rng.choice((IsIri(v), IsLiteral(v), LangMatches(v, "*")))
    if form < 0.6:
        return LangMatches(v, rng.choice(_LANGUAGE_RANGES))
    if form < 0.7:
        pattern = rng.choice(_REGEXES)
        return Regex(v, rng.choice(("", "(?i)")) + pattern)
    if form < 0.8:
        dt = rng.choice(_DATATYPES) if rng.random() < 0.5 else None
        return IsValidForDatatype(v, dt)
    if form < 0.9:
        inner = rng.choice((IsLiteral(v), LangMatches(v, "*"), SameLanguage(v, w)))
        return Not(inner)
    return Compare(rng.choice(ops), Var(v), Constant(_int_lit(rng.randint(-2, 5))))


# ---------------------------------------------------------------------------
# Round-trip generator and blank-node bijection equality

_IRI_POOL = (
    "http://example.org/a",
    "http://example.org/ünïcode/✓",
    "urn:ex:p1",
    "urn:ex:p2",
    "tag:host,2015:x",
)

_NASTY_LEXICALS = (
    "",
    "plain",
    " lead and trail ",
    "line\nbreak",
    "tab\tand\rreturn",
    'quote " inside',
    "back\\slash",
    "control \x01 char",
    "del \x7f char",
    "ünïcode ✓ 中文 🙂",
    "\\u0041 kept literal",
    "ends with backslash \\",
)


def random_serializable_graph(rng) -> Graph:
    """Small graph mixing every term kind with hostile lexical forms."""
    b = GraphBuilder()
    labels = ["n1", "a.b-c_9", "0start", "x", "dot..run", "under_score"]
    bnodes = [BlankNode(label) for label in rng.sample(labels, rng.randint(0, 4))]
    iris = [Iri(t) for t in _IRI_POOL]
    subjects = iris[:3] + bnodes
    literal_pool = list(LITERALS) + [Literal(t) for t in _NASTY_LEXICALS] + [
        Literal(rng.choice(_NASTY_LEXICALS), language="en"),
        Literal(rng.choice(_NASTY_LEXICALS), XSD_ANY_URI),
    ]
    for _ in range(rng.randint(1, 25)):
        s = rng.choice(subjects)
        p = rng.choice(iris)
        kind = rng.random()
        if kind < 0.4:
            o = rng.choice(literal_pool)
        elif kind < 0.7 and bnodes:
            o = rng.choice(bnodes)
        else:
            o = rng.choice(iris)
        b.add(s, p, o)
    return b.freeze(name="roundtrip")


def triple_text(t) -> str:
    """One canonical N-Triples line, without the newline."""
    return f"{term_text(t.subject)} {term_text(t.predicate)} {term_text(t.object)} ."


def ntriples_of(triples) -> bytes:
    """The reference for ``serialize_ntriples``: canonical N-Triples of any
    iterable of triples, repeats allowed, as each distinct line once,
    sorted, each with its newline."""
    lines = sorted({triple_text(t) for t in triples})
    return "".join(f"{line}\n" for line in lines).encode("utf-8")


def _triple_key(t, naming):
    def one(term):
        if isinstance(term, BlankNode):
            return ("b", naming[term])
        return ("t", term_text(term))

    return (one(t.subject), one(t.predicate), one(t.object))


def _signatures(triples, bnodes):
    sig = {n: 0 for n in bnodes}
    for _ in range(len(bnodes) + 2):
        nxt = {}
        for n in bnodes:
            incident = []
            for t in triples:
                if n in (t.subject, t.object):
                    incident.append(_triple_key(t, {m: sig[m] for m in bnodes}))
            nxt[n] = hash((sig[n], tuple(sorted(incident))))
        sig = nxt
    return sig


def graphs_bijection_equal(a: Graph, b: Graph) -> bool:
    """True when some blank-node bijection maps one graph onto the other."""
    ta, tb = list(a), list(b)
    if len(ta) != len(tb):
        return False
    bn_a = sorted({n for t in ta for n in (t.subject, t.object) if isinstance(n, BlankNode)}, key=lambda n: n.label)
    bn_b = sorted({n for t in tb for n in (t.subject, t.object) if isinstance(n, BlankNode)}, key=lambda n: n.label)
    if len(bn_a) != len(bn_b):
        return False

    sig_a = _signatures(ta, bn_a)
    sig_b = _signatures(tb, bn_b)
    groups_a: dict[int, list] = {}
    groups_b: dict[int, list] = {}
    for n, s in sig_a.items():
        groups_a.setdefault(s, []).append(n)
    for n, s in sig_b.items():
        groups_b.setdefault(s, []).append(n)
    if set(groups_a) != set(groups_b):
        return False
    if any(len(groups_a[s]) != len(groups_b[s]) for s in groups_a):
        return False

    target = {_triple_key(t, {n: i for i, n in enumerate(bn_b)}) for t in tb}
    index_b = {n: i for i, n in enumerate(bn_b)}
    ordered = [n for s in sorted(groups_a) for n in groups_a[s]]
    candidates = {n: groups_b[sig_a[n]] for n in ordered}

    def assign(i, mapping, used):
        if i == len(ordered):
            naming = {n: index_b[mapping[n]] for n in mapping}
            return {_triple_key(t, naming) for t in ta} == target
        n = ordered[i]
        for m in candidates[n]:
            if m in used:
                continue
            mapping[n] = m
            used.add(m)
            if assign(i + 1, mapping, used):
                return True
            used.discard(m)
            del mapping[n]
        return False

    return assign(0, {}, set())
