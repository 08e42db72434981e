"""Constraint catalog model: families, severities, loading, linting.

A catalog is pure data (JSON: top-level `prefixes` and `constraints`);
families are code.  Each constraint instantiates one family with parameter
bindings checked against the family's schema at load time.  Loading
collects every problem before failing rather than stopping at the first.
"""
from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from .datatypes import SUPPORTED_DATATYPES
from .terms import Iri, Literal, SCHEME_RE, SURROGATE_RE, Term, quoted


class Severity(enum.IntEnum):
    """Three-level seriousness scale, totally ordered."""

    INFO = 1
    WARNING = 2
    ERROR = 3

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return _SEVERITY_NAMES[text]
        except KeyError:
            raise ValueError(f"unknown severity {text!r}") from None

    @property
    def json_name(self) -> str:
        return ("info", "warning", "error")[self - 1]

    @property
    def superscript(self) -> str:
        return "*" * int(self)


_SEVERITY_NAMES = {
    "info": Severity.INFO,
    "warning": Severity.WARNING,
    "error": Severity.ERROR,
}

# Expressivity tags.  Overlap is allowed; an empty tag set means the
# constraint is expressible in SPARQL only.
SPARQL = "sparql"
CL = "cl"
RDFS_OWL = "rdfs-owl"
EXPRESSIVITY_TAGS = (SPARQL, CL, RDFS_OWL)

IMPLEMENTED = "implemented"
NOT_IMPLEMENTED = "not-implemented"

VOCABULARIES = ("DDI-RDF", "QB", "SKOS", "user-defined")

@dataclass(frozen=True)
class ParamSlot:
    name: str
    kind: str
    required: bool = True


@dataclass(frozen=True)
class ConstraintFamily:
    family_id: str
    params: tuple[ParamSlot, ...]
    expressivity: frozenset[str]
    min_severity: Severity | None = None
    # Cross-parameter validation beyond per-slot kinds; returns problems.
    extra_check: Callable[[Mapping[str, object]], list[str]] | None = None

    def slot(self, name: str) -> ParamSlot | None:
        for s in self.params:
            if s.name == name:
                return s
        return None


def _check_vvd(params: Mapping[str, object]) -> list[str]:
    if "datatype" in params and "property" not in params:
        return ["datatype requires property"]
    return []


def _check_range(params: Mapping[str, object]) -> list[str]:
    if "min-inclusive" not in params and "max-inclusive" not in params:
        return ["at least one of min-inclusive/max-inclusive is required"]
    return []


def _check_ltc(params: Mapping[str, object]) -> list[str]:
    modes = [
        k
        for k in ("max-per-language", "required-language", "value-language")
        if k in params
    ]
    problems = []
    if len(modes) != 1:
        problems.append(
            "exactly one of max-per-language/required-language/value-language is required"
        )
    if params.get("max-per-language") not in (None, 1):
        problems.append("max-per-language supports the value 1 only")
    return problems


def _check_bound(params: Mapping[str, object]) -> list[str]:
    bound = params.get("bound")
    if isinstance(bound, int) and bound < 0:
        return ["bound must be non-negative"]
    return []


def _check_depth(params: Mapping[str, object]) -> list[str]:
    depth = params.get("max-depth")
    if isinstance(depth, int) and depth < 1:
        return ["max-depth must be at least 1"]
    return []


def _f(
    family_id: str,
    slots: Iterable[tuple[str, str] | tuple[str, str, bool]],
    expressivity: Iterable[str],
    *,
    min_severity: Severity | None = None,
    extra_check=None,
) -> ConstraintFamily:
    built = []
    for s in slots:
        name, kind = s[0], s[1]
        required = s[2] if len(s) > 2 else True
        built.append(ParamSlot(name, kind, required))
    return ConstraintFamily(
        family_id,
        tuple(built),
        frozenset(expressivity),
        min_severity,
        extra_check,
    )


_CARD_Q = (
    ("class", "class"),
    ("property", "property"),
    ("bound", "number"),
    ("value-class", "class"),
)
_CARD_UNQ = (("class", "class"), ("property", "property"), ("bound", "number"))

_EXECUTABLE = [
    _f("EXISTENTIAL-QUANTIFICATION", (("class", "class"), ("property", "property")), (CL, RDFS_OWL)),
    _f(
        "CONDITIONAL-PROPERTY",
        (("class", "class"), ("if-property", "property"), ("then-property", "property")),
        (SPARQL,),
    ),
    _f("MIN-QUALIFIED-CARDINALITY", _CARD_Q, (CL, RDFS_OWL), extra_check=_check_bound),
    _f("MAX-QUALIFIED-CARDINALITY", _CARD_Q, (CL, RDFS_OWL), extra_check=_check_bound),
    _f("EXACT-QUALIFIED-CARDINALITY", _CARD_Q, (CL, RDFS_OWL), extra_check=_check_bound),
    _f("MIN-UNQUALIFIED-CARDINALITY", _CARD_UNQ, (CL, RDFS_OWL), extra_check=_check_bound),
    _f("MAX-UNQUALIFIED-CARDINALITY", _CARD_UNQ, (CL, RDFS_OWL), extra_check=_check_bound),
    _f("EXACT-UNQUALIFIED-CARDINALITY", _CARD_UNQ, (CL, RDFS_OWL), extra_check=_check_bound),
    _f(
        "UNIVERSAL-QUANTIFICATION",
        (("class", "class"), ("property", "property"), ("value-class", "class")),
        (CL, RDFS_OWL),
    ),
    _f(
        "MEMBERSHIP-IN-CONTROLLED-VOCABULARY",
        (("property", "property"), ("scheme", "class")),
        (SPARQL,),
    ),
    _f(
        "VALUE-IS-VALID-FOR-DATATYPE",
        (("property", "property", False), ("datatype", "datatype", False)),
        (SPARQL,),
        extra_check=_check_vvd,
    ),
    _f(
        "LITERAL-RANGE",
        (
            ("class", "class", False),
            ("property", "property"),
            ("min-inclusive", "number", False),
            ("max-inclusive", "number", False),
        ),
        (RDFS_OWL,),
        extra_check=_check_range,
    ),
    # Fixed comparison shape: every value of `property` must be <= every
    # value of `other-property` on the same focus (start/end style).
    _f(
        "LITERAL-VALUE-COMPARISON",
        (("class", "class"), ("property", "property"), ("other-property", "property")),
        (SPARQL,),
    ),
    _f(
        "DATA-PROPERTY-FACETS",
        (
            ("class", "class", False),
            ("property", "property"),
            ("datatype", "datatype"),
            ("min-inclusive", "number", False),
            ("max-inclusive", "number", False),
        ),
        (CL,),
    ),
    _f(
        "LITERAL-PATTERN-MATCHING",
        (("class", "class", False), ("property", "property"), ("pattern", "regex")),
        (CL,),
    ),
    _f(
        "IRI-PATTERN-MATCHING",
        (("class", "class", False), ("property", "property"), ("pattern", "regex")),
        (CL,),
    ),
    _f("INVERSE-FUNCTIONAL-PROPERTY", (("property", "property"),), (RDFS_OWL,), min_severity=Severity.WARNING),
    _f("PROPERTY-DOMAIN", (("property", "property"), ("class", "class")), (RDFS_OWL,)),
    _f("PROPERTY-RANGE", (("property", "property"), ("class", "class")), (RDFS_OWL,)),
    _f(
        "CLASS-SPECIFIC-PROPERTY-RANGE",
        (("class", "class"), ("property", "property"), ("value-class", "class")),
        (RDFS_OWL,),
    ),
    _f(
        "CONTEXT-SPECIFIC-VALID-PROPERTIES",
        (("class", "class"), ("properties", "value-set")),
        (CL,),
    ),
    _f(
        "DISJOINT-CLASSES",
        (("class", "class"), ("other-class", "class")),
        (RDFS_OWL,),
        min_severity=Severity.WARNING,
    ),
    _f(
        "LANGUAGE-TAG-CARDINALITY",
        (
            ("class", "class"),
            ("property", "property"),
            ("max-per-language", "number", False),
            ("required-language", "language-range", False),
            ("value-language", "language-range", False),
        ),
        (SPARQL,),
        extra_check=_check_ltc,
    ),
    _f(
        "STRUCTURE-ACYCLICITY",
        (("property", "property"), ("max-depth", "number", False)),
        (SPARQL,),
        extra_check=_check_depth,
    ),
    _f(
        "ALLOWED-VALUES",
        (("class", "class", False), ("property", "property"), ("values", "value-set")),
        (CL, RDFS_OWL),
    ),
    _f("DIMENSION-COMPLETENESS", (), (SPARQL,)),
]

# Families the shipped packs reference only as not-implemented rows.  They
# carry a permissive schema so catalog rows stay loadable and lintable.
_LOOSE_SLOTS = (
    ("class", "class", False),
    ("property", "property", False),
    ("other-property", "property", False),
    ("other-class", "class", False),
    ("value-class", "class", False),
    ("values", "value-set", False),
    ("pattern", "regex", False),
    ("bound", "number", False),
    ("datatype", "datatype", False),
    ("language", "language-range", False),
)

_NON_EXECUTABLE_IDS = [
    "SUBSUMPTION",
    "CLASS-EQUIVALENCE",
    "SUB-PROPERTY",
    "INVERSE-OBJECT-PROPERTY",
    "DISJOINT-PROPERTY",
    "ASYMMETRIC-OBJECT-PROPERTY",
    "IRREFLEXIVE-OBJECT-PROPERTY",
    "CLASS-SPECIFIC-IRREFLEXIVE-OBJECT-PROPERTY",
    "EQUIVALENT-PROPERTY",
    "DISJUNCTION",
    "EXCLUSIVE-OR-OF-PROPERTY-GROUPS",
    "ORDERING",
    "STRING-OPERATION",
    "CONTEXT-SPECIFIC-VALID-CLASSES",
    "DEFAULT-VALUE",
    "WHITESPACE-HANDLING",
    "HTML-HANDLING",
    "RECOMMENDED-PROPERTY",
    "RDF-COLLECTION-HANDLING",
    "SUB-SUPER-RELATION-USE",
    "VOCABULARY-USE",
    "IRI-SCHEME",
    "MATHEMATICAL-OPERATION",
    "AGGREGATION",
    "LANGUAGE-TAG-MATCHING",
    "COMPARISON",
    "STRUCTURE-WELLFORMEDNESS",
]

FAMILIES: dict[str, ConstraintFamily] = {f.family_id: f for f in _EXECUTABLE}
for _fid in _NON_EXECUTABLE_IDS:
    FAMILIES[_fid] = _f(_fid, _LOOSE_SLOTS, (SPARQL,))
del _fid


@dataclass(frozen=True)
class Constraint:
    id: str
    vocabulary: str
    family: ConstraintFamily
    params: Mapping[str, object]
    severity: Severity
    status: str
    message: str
    expressivity: frozenset[str]


class CatalogError(ValueError):
    """Aggregate of every problem found while loading a catalog."""

    def __init__(self, problems: list[tuple[str | None, str]]):
        self.problems = problems
        lines = [f"{cid or '<catalog>'}: {reason}" for cid, reason in problems]
        super().__init__(
            f"{len(problems)} catalog problem(s)\n" + "\n".join(lines)
        )


@dataclass(frozen=True)
class Catalog:
    prefixes: Mapping[str, str]
    constraints: tuple[Constraint, ...]

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self.constraints)

    def get(self, constraint_id: str) -> Constraint | None:
        for c in self.constraints:
            if c.id == constraint_id:
                return c
        return None

    def vocabularies(self) -> tuple[str, ...]:
        seen: list[str] = []
        for c in self.constraints:
            if c.vocabulary not in seen:
                seen.append(c.vocabulary)
        return tuple(seen)

    def implemented(self) -> tuple[Constraint, ...]:
        return tuple(c for c in self.constraints if c.status == IMPLEMENTED)


# The `{name}` syntax of constraint messages.
PLACEHOLDER_RE = re.compile(r"\{([^{}]*)\}")


def _expand_iri(text: str, prefixes: Mapping[str, str]) -> Iri:
    head, sep, local = text.partition(":")
    if sep and head in prefixes:
        return Iri(prefixes[head] + local)
    return Iri(text)


def _term_from_text(text: str, prefixes: Mapping[str, str]) -> Term:
    head, sep, _ = text.partition(":")
    if sep and (head in prefixes or SCHEME_RE.match(text)):
        return _expand_iri(text, prefixes)
    return Literal(text)


def _load_params(
    family: ConstraintFamily,
    raw: Mapping[str, object],
    prefixes: Mapping[str, str],
    problems: list[str],
) -> dict[str, object]:
    params: dict[str, object] = {}
    for name in raw:
        if family.slot(name) is None:
            problems.append(f"unknown parameter {name!r} for family {family.family_id}")
    for s in family.params:
        if s.name not in raw:
            if s.required:
                problems.append(f"missing required parameter {s.name!r}")
            continue
        value = raw[s.name]
        if s.kind in ("class", "property", "datatype"):
            if not isinstance(value, str):
                problems.append(f"parameter {s.name!r} must be an IRI string")
                continue
            try:
                params[s.name] = _expand_iri(value, prefixes)
            except ValueError as exc:
                problems.append(f"parameter {s.name!r}: {exc}")
        elif s.kind == "number":
            if isinstance(value, bool) or not isinstance(value, int):
                problems.append(f"parameter {s.name!r} must be an integer")
            else:
                params[s.name] = value
        elif s.kind in ("regex", "language-range"):
            if not isinstance(value, str):
                problems.append(f"parameter {s.name!r} must be a string")
            else:
                params[s.name] = value
        else:  # value-set
            if not isinstance(value, list) or not value:
                problems.append(f"parameter {s.name!r} must be a non-empty array")
                continue
            terms: list[Term] = []
            ok = True
            for entry in value:
                if not isinstance(entry, str):
                    problems.append(f"parameter {s.name!r} entries must be strings")
                    ok = False
                    break
                try:
                    terms.append(_term_from_text(entry, prefixes))
                except ValueError as exc:
                    problems.append(f"parameter {s.name!r}: {exc}")
                    ok = False
                    break
            if ok:
                params[s.name] = tuple(terms)
    if family.extra_check is not None and not problems:
        problems.extend(family.extra_check(params))
    return params


_REQUIRED_FIELDS = ("id", "vocabulary", "family", "severity", "status", "params", "message")
_OPTIONAL_FIELDS = ("expressivity",)


def _load_constraint(
    obj: object, prefixes: Mapping[str, str], problems: list[tuple[str | None, str]]
) -> Constraint | None:
    if not isinstance(obj, dict):
        problems.append((None, "constraint entries must be objects"))
        return None
    cid = obj.get("id") if isinstance(obj.get("id"), str) else None
    local: list[str] = []
    for name in _REQUIRED_FIELDS:
        if name not in obj:
            local.append(f"missing field {name!r}")
    for name in obj:
        if name not in _REQUIRED_FIELDS and name not in _OPTIONAL_FIELDS:
            local.append(f"unknown field {name!r}")
    if local:
        problems.extend((cid, p) for p in local)
        return None

    if not isinstance(cid, str) or not cid:
        problems.append((None, "id must be a non-empty string"))
        return None
    vocabulary = obj["vocabulary"]
    if vocabulary not in VOCABULARIES:
        local.append(f"unknown vocabulary {quoted(vocabulary)}")
    family = FAMILIES.get(obj["family"]) if isinstance(obj["family"], str) else None
    if family is None:
        local.append(f"unknown family {quoted(obj['family'])}")
    try:
        severity = Severity.parse(obj["severity"])
    except (ValueError, TypeError):
        local.append(f"unknown severity {quoted(obj['severity'])}")
        severity = Severity.INFO
    status = obj["status"]
    if status not in (IMPLEMENTED, NOT_IMPLEMENTED):
        local.append(f"unknown status {quoted(status)}")
    message = obj["message"]
    if not isinstance(message, str):
        local.append("message must be a string")
        message = ""
    raw_params = obj["params"]
    if not isinstance(raw_params, dict):
        local.append("params must be an object")
        raw_params = {}

    expressivity: frozenset[str]
    raw_expr = obj.get("expressivity")
    if raw_expr is None:
        expressivity = family.expressivity if family is not None else frozenset((SPARQL,))
    elif isinstance(raw_expr, list) and all(isinstance(t, str) for t in raw_expr):
        unknown = [t for t in raw_expr if t not in EXPRESSIVITY_TAGS]
        if unknown:
            local.append(f"unknown expressivity tags {quoted(unknown)}")
        expressivity = frozenset(raw_expr) or frozenset((SPARQL,))
    else:
        local.append("expressivity must be an array of tag strings")
        expressivity = frozenset((SPARQL,))

    params: dict[str, object] = {}
    if family is not None:
        param_problems: list[str] = []
        params = _load_params(family, raw_params, prefixes, param_problems)
        local.extend(param_problems)

    allowed_placeholders = {"focus", "path", "value"}
    if family is not None:
        allowed_placeholders.update(s.name for s in family.params)
    for ph in PLACEHOLDER_RE.findall(message):
        if ph not in allowed_placeholders:
            local.append(f"unknown message placeholder {{{ph}}}")

    if local:
        problems.extend((cid, p) for p in local)
        return None
    assert family is not None
    return Constraint(
        id=cid,
        vocabulary=vocabulary,
        family=family,
        params=params,
        severity=severity,
        status=status,
        message=message,
        expressivity=expressivity,
    )


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def read_json(data, what: str):
    """The JSON document in ``data``: bytes (UTF-8, with or without a byte
    order mark), text, or a binary file object. Bad UTF-8 or JSON, nesting
    too deep to parse, an integer past the digit limit and a lone surrogate
    in any string (RFC 8259, sections 8.2 and 9) are each one ValueError
    that names ``what``."""
    if hasattr(data, "read"):
        data = data.read()
    try:
        if isinstance(data, str):
            data = data.encode("utf-8")  # fails on a raw lone surrogate
        data = data.decode("utf-8-sig")  # strict, so no raw surrogate is left
        doc = json.loads(data)
        if _SURROGATE_ESCAPE.search(data) and SURROGATE_RE.search(json.dumps(doc, ensure_ascii=False)):
            raise ValueError("a string holds an escaped lone surrogate")
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None
    return doc


def load_catalog(data) -> Catalog:
    """Load a catalog document (bytes, text, or a binary file object).

    Raises CatalogError listing every problem found; never fails fast.
    """
    problems: list[tuple[str | None, str]] = []
    try:
        doc = read_json(data, "catalog")
    except ValueError as exc:
        raise CatalogError([(None, str(exc))]) from None
    if not isinstance(doc, dict):
        raise CatalogError([(None, "catalog document must be a JSON object")])
    for key in doc:
        if key not in ("prefixes", "constraints"):
            problems.append((None, f"unknown top-level field {key!r}"))

    prefixes_raw = doc.get("prefixes", {})
    prefixes: dict[str, str] = {}
    if not isinstance(prefixes_raw, dict):
        problems.append((None, "prefixes must be an object"))
    else:
        for name, iri in prefixes_raw.items():
            if not isinstance(iri, str):
                problems.append((None, f"prefix {name!r} must map to an IRI string"))
                continue
            try:
                Iri(iri)
            except ValueError as exc:
                problems.append((None, f"prefix {name!r}: {exc}"))
                continue
            prefixes[name] = iri

    raw_constraints = doc.get("constraints")
    constraints: list[Constraint] = []
    if not isinstance(raw_constraints, list):
        problems.append((None, "constraints must be an array"))
    else:
        seen_ids: set[str] = set()
        for obj in raw_constraints:
            c = _load_constraint(obj, prefixes, problems)
            if c is None:
                continue
            if c.id in seen_ids:
                problems.append((c.id, "duplicate id"))
                continue
            seen_ids.add(c.id)
            constraints.append(c)

    if problems:
        raise CatalogError(problems)
    return Catalog(prefixes=prefixes, constraints=tuple(constraints))


def merge_catalogs(catalogs: Iterable[Catalog]) -> Catalog:
    """Combine catalogs; ids must stay unique and prefixes consistent."""
    problems: list[tuple[str | None, str]] = []
    prefixes: dict[str, str] = {}
    constraints: list[Constraint] = []
    seen: set[str] = set()
    for cat in catalogs:
        for name, iri in cat.prefixes.items():
            if prefixes.get(name, iri) != iri:
                problems.append((None, f"conflicting prefix {name!r}"))
            prefixes[name] = iri
        for c in cat.constraints:
            if c.id in seen:
                problems.append((c.id, "duplicate id across catalogs"))
                continue
            seen.add(c.id)
            constraints.append(c)
    if problems:
        raise CatalogError(problems)
    return Catalog(prefixes=prefixes, constraints=tuple(constraints))


# ---------------------------------------------------------------------------
# Classification


def round_percentage(value: Fraction) -> str:
    """Render a ratio as a percentage string, half-up at one decimal."""
    scaled = value * 100
    d = Decimal(scaled.numerator) / Decimal(scaled.denominator)
    return str(d.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


CLASSIFICATION_KEYS = (SPARQL, CL, RDFS_OWL, "info", "warning", "error")


def mean(fractions: Iterable[Fraction]) -> Fraction:
    """The exact unweighted mean, 0 for no fractions."""
    fractions = list(fractions)
    return sum(fractions, Fraction(0)) / len(fractions) if fractions else Fraction(0)


@dataclass(frozen=True)
class VocabularyBreakdown:
    vocabulary: str
    total: int
    counts: Mapping[str, int]

    def fraction(self, key: str) -> Fraction:
        if self.total == 0:
            return Fraction(0)
        return Fraction(self.counts[key], self.total)

    def percentage(self, key: str) -> str:
        return round_percentage(self.fraction(key))


@dataclass(frozen=True)
class ClassificationSummary:
    per_vocabulary: Mapping[str, VocabularyBreakdown]

    def total_percentage(self, key: str) -> str:
        """Unweighted mean of the per-vocabulary ratios, computed on exact
        fractions before the single final rounding."""
        return round_percentage(mean(b.fraction(key) for b in self.per_vocabulary.values()))


def tally(vocabulary: str, weighted: Iterable[tuple[Constraint, int]]) -> VocabularyBreakdown:
    """The breakdown of (constraint, weight) pairs: each weight counts once
    in the total, under each of its constraint's expressivity tags and
    under its severity."""
    total, counts = 0, dict.fromkeys(CLASSIFICATION_KEYS, 0)
    for c, weight in weighted:
        total += weight
        for tag in EXPRESSIVITY_TAGS:
            if tag in c.expressivity:
                counts[tag] += weight
        counts[c.severity.json_name] += weight
    return VocabularyBreakdown(vocabulary, total, counts)


def classify(catalog: Catalog) -> ClassificationSummary:
    """Expressivity/severity breakdown of the implemented constraints, per
    vocabulary in order of first appearance."""
    implemented = catalog.implemented()
    return ClassificationSummary(
        {
            vocab: tally(vocab, ((c, 1) for c in implemented if c.vocabulary == vocab))
            for vocab in catalog.vocabularies()
        }
    )


# ---------------------------------------------------------------------------
# Linting

_EMPTY_CLASS_IDIOMS = ("[^\\s\\S]", "[^\\d\\D]", "[^\\w\\W]")
_ESCAPE_OR_CLASS = re.compile(r"\\.|\[\^?\]?(?:\\.|[^\]\\])*\]?", re.S)
_INNERMOST_GROUP = re.compile(r"\(([^()]*)\)")


@dataclass(frozen=True)
class LintFinding:
    kind: str
    constraint_id: str | None
    detail: str


def _regex_never_matches(pattern: str) -> bool:
    if any(idiom in pattern for idiom in _EMPTY_CLASS_IDIOMS):
        return True
    # "$" matches only at the end or before a newline, so a top-level "$"
    # that a literal other than a newline must follow never matches; escapes,
    # classes and groups become an opaque "%", and a second top-level branch
    # might match instead.  Inline MULTILINE or VERBOSE turns this off.
    if re.search(r"\(\?[aiLmsux]*[mx]", pattern):
        return False
    plain, previous = _ESCAPE_OR_CLASS.sub("%", pattern), None
    while plain != previous:
        plain, previous = _INNERMOST_GROUP.sub("%", plain), plain
    return "|" not in plain and re.search(r"\$[^\n.^$*+?{|()%](?![?*{])", plain) is not None


def _fold_group(m: re.Match) -> str:
    return "#" if re.search(r"[*+#]|\{\d*,\}", m[1]) else "%"


def _nested_quantifier(pattern: str) -> bool:
    """Whether a group holding an unbounded quantifier is itself repeated
    without bound, as in ``(a+)+`` or ``(?:a*b)*``: the shape on which a
    backtracking matcher can take exponential time."""
    # Escapes and classes become "%", and so does every character that is
    # no group, quantifier or count; innermost groups then fold, to "#"
    # when they hold an unbounded quantifier or such a group, else to "%".
    plain = re.sub(r"[^()*+{},\d]", "%", _ESCAPE_OR_CLASS.sub("%", pattern))
    previous = None
    while plain != previous:
        if re.search(r"#(?:[*+]|\{\d*,\})", plain):
            return True
        plain, previous = _INNERMOST_GROUP.sub(_fold_group, plain), plain
    return False


def lint_catalog(catalog: Catalog) -> list[LintFinding]:
    """Advisory findings: unsupported datatypes, regexes that cannot match
    or that nest unbounded quantifiers, severity overrides below a family
    minimum, not-implemented rows."""
    findings: list[LintFinding] = []
    for c in catalog.constraints:
        if c.status == NOT_IMPLEMENTED:
            findings.append(
                LintFinding("not-implemented", c.id, "constraint is not implemented")
            )
        for s in c.family.params:
            value = c.params.get(s.name)
            if value is None:
                continue
            if s.kind == "datatype" and value not in SUPPORTED_DATATYPES:
                findings.append(
                    LintFinding(
                        "unsupported-datatype",
                        c.id,
                        f"datatype {value.text} is outside the validated set",
                    )
                )
            if s.kind == "regex" and isinstance(value, str) and _regex_never_matches(value):
                findings.append(
                    LintFinding(
                        "never-matching-regex",
                        c.id,
                        f"pattern {value!r} cannot match any input",
                    )
                )
            if s.kind == "regex" and isinstance(value, str) and _nested_quantifier(value):
                findings.append(
                    LintFinding(
                        "nested-quantifier-regex",
                        c.id,
                        f"pattern {value!r} repeats a repeated group, which can take "
                        "exponential time on a single value and overrun --budget",
                    )
                )
        if c.family.min_severity is not None and c.severity < c.family.min_severity:
            findings.append(
                LintFinding(
                    "severity-below-family-minimum",
                    c.id,
                    f"severity {c.severity.json_name} is below the family minimum "
                    f"{c.family.min_severity.json_name}",
                )
            )
    return findings
