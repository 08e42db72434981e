"""Correctness checks that do not go through the program's parser or evaluator.

- ``wide-perf``: the expected violations of each perf constraint come from
  the brute-force family oracles in ``tests/oracles.py``, run over a graph
  that ``GraphBuilder`` builds straight from the generator's terms. The
  acyclicity constraint uses a depth-bounded walk here instead, because the
  oracle's walk from every node is quadratic on the wide graph's long ring.
- ``archive-ddi`` and ``campaign-mock``: each count is k times the count
  recorded for the fixture in ``packs/data/expected``, read as plain JSON.
- Every output file is read with the small line reader in this module.

Each check returns a list of problems; an empty list means the output is right.
"""
from __future__ import annotations

import gzip
import json
import re
from collections import defaultdict
from pathlib import Path

from inputs import split_line

REPORT = "urn:rdfval:report#"
DEFAULT_LIMIT = 10_000


# ---------------------------------------------------------------------------
# Expected violations of the perf catalog


_LITERAL = re.compile(r'^"([^"\\]*)"(?:@([A-Za-z0-9-]+)|\^\^<([^>]*)>)?$')


def _term(text: str):
    from rdfval.terms import Iri, Literal

    if text.startswith("<"):
        return Iri(text[1:-1])
    m = _LITERAL.match(text)
    if m is None:
        raise ValueError(f"generator term outside the wide graph's shapes: {text}")
    lexical, lang, dt = m.groups()
    if lang:
        return Literal(lexical, language=lang)
    if dt:
        return Literal(lexical, Iri(dt))
    return Literal(lexical)


def _text(term) -> str | None:
    """Canonical N-Triples text of a term, or None for an absent field."""
    from rdfval.terms import Iri, Literal

    if term is None:
        return None
    if isinstance(term, Iri):
        return f"<{term.text}>"
    if isinstance(term, Literal):
        if any(ch in term.lexical for ch in '"\\\n\r'):
            raise ValueError(f"literal needs escaping: {term.lexical!r}")
        if term.language is not None:
            return f'"{term.lexical}"@{term.language}'
        if term.datatype.text == "http://www.w3.org/2001/XMLSchema#string":
            return f'"{term.lexical}"'
        return f'"{term.lexical}"^^<{term.datatype.text}>'
    return f"_:{term.label}"


def _params(raw: dict):
    from rdfval.terms import Iri

    out = {}
    for name, value in raw.items():
        if isinstance(value, str) and name != "pattern":
            out[name] = Iri(value)
        else:
            out[name] = value
    return out


def _bounded_cycles(triples, prop: str, depth: int) -> set:
    """Starts of a cycle of at most ``depth`` edges over ``prop``."""
    succ: dict[str, set] = defaultdict(set)
    for s, p, o in triples:
        if p == prop:
            succ[s].add(o)
    out = set()
    for start in succ:
        frontier = {start}
        seen = {start}
        for _ in range(depth):
            nxt = set()
            for u in frontier:
                nxt |= succ.get(u, set())
            if start in nxt:
                out.add((start, prop, None))
                break
            frontier = nxt - seen
            seen |= frontier
            if not frontier:
                break
    return out


def wide_expected(triples, catalog_doc) -> dict:
    """{constraint id: sorted [focus, path, value] texts} for the perf catalog."""
    from oracles import GraphFacts, family_violations
    from rdfval.graph import GraphBuilder

    cache: dict[str, object] = {}

    def term(text):
        t = cache.get(text)
        if t is None:
            t = cache[text] = _term(text)
        return t

    builder = GraphBuilder()
    for s, p, o in triples:
        builder.add(term(s), term(p), term(o))
    facts = GraphFacts(builder.freeze(name="oracle"))
    expected = {}
    for c in catalog_doc["constraints"]:
        if c["family"] == "STRUCTURE-ACYCLICITY":
            keys = _bounded_cycles(
                triples, f"<{c['params']['property']}>", c["params"]["max-depth"]
            )
        else:
            found = family_violations(facts, c["family"], _params(c["params"]))
            keys = {(_text(f), _text(p), _text(v)) for f, p, v in found}
        expected[c["id"]] = sorted(list(k) for k in keys)
    return expected


# ---------------------------------------------------------------------------
# Output readers


def read_violations(path: Path) -> dict[str, list[tuple]]:
    """{constraint id: [(focus, path, value), ...]} from violations.nt."""
    nodes: dict[str, dict[str, str]] = defaultdict(dict)
    with path.open(encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            s, p, o = split_line(line)
            field = p[len(REPORT) + 1 : -1]
            if field in nodes[s]:
                raise ValueError(f"{s} has two {field} fields")
            nodes[s][field] = o
    kept: dict[str, list[tuple]] = defaultdict(list)
    for node, fields in nodes.items():
        if "constraint" not in fields or "root" not in fields:
            raise ValueError(f"violation node {node} lacks a constraint or root")
        cid = fields["constraint"][1:-1]
        kept[cid].append((fields["root"], fields.get("path"), fields.get("value")))
    return kept


def _outcomes(path: Path) -> dict[str, dict]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {o["constraint-id"]: o for o in doc["outcomes"]}


def _fixture_counts(root: Path, fixture: str) -> dict[str, tuple[str, int]]:
    path = root / "src" / "rdfval" / "packs" / "data" / "expected" / f"{fixture}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {cid: (e["status"], e["count"]) for cid, e in doc["outcomes"].items()}


def _count_problems(cid: str, got: dict, expected: int, limit: int) -> list[str]:
    want_count = min(expected, limit)
    want_status = "ok" if expected == 0 else "truncated" if expected > limit else "violated"
    if got["status"] != want_status or got["count"] != want_count:
        return [
            f"{cid}: {got['status']} {got['count']}, expected {want_status} {want_count}"
        ]
    return []


# ---------------------------------------------------------------------------
# Per-workload checks


def check_wide(out: Path, expected: dict, limit: int = DEFAULT_LIMIT) -> list[str]:
    problems = []
    outcomes = _outcomes(out / "outcomes.json")
    kept = read_violations(out / "violations.nt")
    if set(outcomes) != set(expected):
        problems.append(f"constraint ids differ: {sorted(set(outcomes) ^ set(expected))}")
    for cid, want in expected.items():
        got = outcomes.get(cid)
        if got is None:
            continue
        problems += _count_problems(cid, got, len(want), limit)
        rows = kept.get(cid, [])
        if len(rows) != got["count"]:
            problems.append(f"{cid}: {len(rows)} report nodes for count {got['count']}")
        extra = set(rows) - {tuple(k) for k in want}
        if extra or len(set(rows)) != len(rows):
            problems.append(f"{cid}: kept violations outside the oracle's set: {sorted(extra)[:3]}")
    return problems


def check_scaled(out: Path, root: Path, fixture: str, copies: int,
                 limit: int = DEFAULT_LIMIT, violations: bool = True) -> list[str]:
    """Outcomes k times the fixture's recorded counts, capped by the limit."""
    problems = []
    outcomes = _outcomes(out / "outcomes.json")
    recorded = _fixture_counts(root, fixture)
    if set(outcomes) != set(recorded):
        problems.append(f"constraint ids differ: {sorted(set(outcomes) ^ set(recorded))}")
    kept = read_violations(out / "violations.nt") if violations else None
    for cid, (status, count) in recorded.items():
        got = outcomes.get(cid)
        if got is None:
            continue
        if status == "not-implemented":
            if got["status"] != status:
                problems.append(f"{cid}: {got['status']}, expected not-implemented")
            continue
        problems += _count_problems(cid, got, copies * count, limit)
        if kept is not None and len(kept.get(cid, [])) != got["count"]:
            problems.append(
                f"{cid}: {len(kept.get(cid, []))} report nodes for count {got['count']}"
            )
    return problems


def check_clean(out: Path) -> list[str]:
    """Set-up runs over empty input: nothing violated, nothing kept."""
    problems = [
        f"{cid}: {o['status']} over empty input"
        for cid, o in _outcomes(out / "outcomes.json").items()
        if o["status"] not in ("ok", "not-implemented")
    ]
    if (out / "violations.nt").stat().st_size:
        problems.append("violations.nt is not empty over empty input")
    return problems


def _blank_free(lines) -> set[str]:
    return {re.sub(r"_:[A-Za-z0-9_.\-]+", "_:", line) for line in lines}


def check_source(sdir: Path, served: list[str], page_size: int) -> list[str]:
    """A harvested source: complete, paged as expected, and its stored
    data exactly the lines the endpoint served (blank labels aside)."""
    profile_path = sdir / "profile.json"
    if not profile_path.exists():
        return [f"{sdir.name}: no profile.json"]
    prof = json.loads(profile_path.read_text(encoding="utf-8"))
    n = len(set(served))
    problems = []
    if prof["status"] != "complete":
        problems.append(f"{sdir.name}: status {prof['status']} ({prof.get('reason')})")
        return problems
    if prof["pages-fetched"] != n // page_size + 1:
        problems.append(f"{sdir.name}: {prof['pages-fetched']} pages for {n} triples")
    with gzip.open(sdir / "data.nt.gz", "rt", encoding="utf-8") as z:
        stored = [line for line in z.read().split("\n") if line]
    if _blank_free(stored) != _blank_free(served) or len(stored) != n:
        problems.append(f"{sdir.name}: stored data differs from the served lines")
    return problems


CAMPAIGN_REPORTS = ("aggregate.csv", "aggregate.md", "counts.csv", "counts.md")


def check_reports(out: Path, packs) -> list[str]:
    names = list(CAMPAIGN_REPORTS) + [f"{p}-matrix.{fmt}" for p in packs for fmt in ("csv", "md")]
    return [f"missing report {n}" for n in names if not (out / n).is_file()]
