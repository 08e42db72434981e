"""Seeded input generators for the three workloads.

Every generator takes the seed and writes its files under
``<work>/<workload>/seed-<n>/`` once; a later run with the same seed reuses
them. The seed decides the order of entities and copies and, for
``archive-ddi``, which copies go to the ``.nt.gz`` file and which to the
``.ttl`` file. Sizes are fixed, so every seed gives the same amount of work.

N-Triples text is written here from plain strings, not through the
program's serializer, and the expected results are computed in
``checks.py`` without the program's parser or evaluator.
"""
from __future__ import annotations

import gzip
import json
import random
import re
from pathlib import Path

# Sizes of the workloads. Changing one changes every figure the benchmark
# reports, so a change here is a new benchmark, not a tuning knob.
WIDE_ENTITIES = 8_000
ARCHIVE_COPIES = 12
ARCHIVE_TTL_COPIES = ARCHIVE_COPIES // 2
CAMPAIGN_COPIES = {"study-archive": 12, "cube-gaps": 24, "thesaurus": 48}
CAMPAIGN_PAGE_SIZE = 250
# The known-fault source: a handful of triples whose blank nodes carry
# Virtuoso-style labels. It never depends on the seed.
NODEID_TRIPLES = 6

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD = "http://www.w3.org/2001/XMLSchema#"
DISCO = "http://rdf-vocabulary.ddialliance.org/discovery#"
FIXTURE_PACK = {"study-archive": "ddi-rdf", "cube-gaps": "qb", "thesaurus": "skos"}

_EXAMPLE_IRI = re.compile(r"<http://example\.org/([^>]*)>")


def fixture_dir(root: Path) -> Path:
    return root / "src" / "rdfval" / "packs" / "data"


def fixture_lines(root: Path, name: str) -> list[str]:
    text = (fixture_dir(root) / "fixtures" / f"{name}.nt").read_text(encoding="utf-8")
    return [line for line in text.split("\n") if line.strip()]


def renamed_copy(lines: list[str], copy: int) -> list[str]:
    """One copy of a fixture with every example.org IRI moved under /c<copy>/.

    Only the data IRIs move; vocabulary IRIs and literals stay, so each copy
    violates each constraint exactly as often as the fixture does.
    """
    prefix = f"<http://example.org/c{copy}/"
    return [_EXAMPLE_IRI.sub(lambda m: prefix + m.group(1) + ">", line) for line in lines]


def distinct_terms(lines) -> int:
    """Distinct RDF terms in canonical N-Triples lines, counting the
    datatype IRI of a typed literal as a term of its own."""
    seen: set[str] = set()
    for line in lines:
        s, p, o = split_line(line)
        seen.update((s, p, o))
        if o.startswith('"') and "^^<" in o:
            seen.add(o[o.rindex("^^<") + 2 :])
    return len(seen)


_LINE = re.compile(r'^(<[^>]*>|_:\S+) (<[^>]*>) (.*) \.$')


def split_line(line: str) -> tuple[str, str, str]:
    m = _LINE.match(line)
    if m is None:
        raise ValueError(f"not a canonical N-Triples line: {line!r}")
    return m.group(1), m.group(2), m.group(3)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _done(d: Path) -> bool:
    return (d / "meta.json").exists()


# ---------------------------------------------------------------------------
# wide-perf: the wide graph and the 20-constraint perf catalog


def wide_terms(entities: int, seed: int):
    """Triples of the wide graph as (s, p, o) strings in N-Triples form.

    The shape follows the wide graph of the acceptance tests: four classes,
    eight properties, 50 value IRIs, 5000 codes and 1000 integers. The seed
    renames the entities and sets the order in which their blocks appear.
    """
    rng = random.Random(seed)
    names = list(range(entities))
    rng.shuffle(names)
    order = list(range(entities))
    rng.shuffle(order)
    cls = [f"<urn:perf:C{k}>" for k in range(4)]
    prop = [f"<urn:perf:p{k}>" for k in range(8)]
    node = [f"<urn:perf:e{names[i]}>" for i in range(entities)]
    values = [f"<urn:perf:v{k}>" for k in range(50)]
    typ = f"<{RDF_TYPE}>"
    date = f'"2020-01-15"^^<{XSD}date>'
    triples = [(v, typ, cls[0]) for v in values]
    for i in order:
        n = node[i]
        triples += [
            (n, typ, cls[i % 4]),
            (n, prop[0], f'"v{i}"'),
            (n, prop[1], node[(7 * i + 1) % entities]),
            (n, prop[1], node[(13 * i + 5) % entities]),
            (n, prop[2], f'"{i % 1000}"^^<{XSD}integer>'),
            (n, prop[3], f'"name {i}"@en'),
            (n, prop[4], values[i % 50]),
            (n, prop[5], node[(i + 1) % entities]),
            (n, prop[6], f'"AB{i % 5000}"'),
            (n, prop[7], date),
        ]
    return triples


def wide_rows():
    """The perf catalog's (family, params) rows, IRIs written out in full."""
    c = [f"urn:perf:C{k}" for k in range(4)]
    p = [f"urn:perf:p{k}" for k in range(8)]
    return [
        ("EXISTENTIAL-QUANTIFICATION", {"class": c[0], "property": p[0]}),
        ("CONDITIONAL-PROPERTY", {"class": c[1], "if-property": p[0], "then-property": p[2]}),
        ("MIN-QUALIFIED-CARDINALITY", {"class": c[0], "property": p[1], "bound": 1, "value-class": c[0]}),
        ("MAX-QUALIFIED-CARDINALITY", {"class": c[1], "property": p[1], "bound": 2, "value-class": c[2]}),
        ("EXACT-UNQUALIFIED-CARDINALITY", {"class": c[2], "property": p[2], "bound": 1}),
        ("MIN-UNQUALIFIED-CARDINALITY", {"class": c[3], "property": p[1], "bound": 2}),
        ("MAX-UNQUALIFIED-CARDINALITY", {"class": c[0], "property": p[1], "bound": 3}),
        ("UNIVERSAL-QUANTIFICATION", {"class": c[0], "property": p[5], "value-class": c[1]}),
        ("CLASS-SPECIFIC-PROPERTY-RANGE", {"class": c[1], "property": p[5], "value-class": c[2]}),
        ("VALUE-IS-VALID-FOR-DATATYPE", {"property": p[2], "datatype": XSD + "integer"}),
        ("LITERAL-RANGE", {"property": p[2], "min-inclusive": 0, "max-inclusive": 999}),
        ("LITERAL-VALUE-COMPARISON", {"class": c[3], "property": p[2], "other-property": p[2]}),
        ("DATA-PROPERTY-FACETS", {"property": p[6], "datatype": XSD + "string"}),
        ("LITERAL-PATTERN-MATCHING", {"property": p[6], "pattern": "^AB"}),
        ("IRI-PATTERN-MATCHING", {"property": p[4], "pattern": "^urn:perf:v"}),
        ("INVERSE-FUNCTIONAL-PROPERTY", {"property": p[0]}),
        ("PROPERTY-DOMAIN", {"property": p[3], "class": c[0]}),
        ("PROPERTY-RANGE", {"property": p[4], "class": c[0]}),
        ("STRUCTURE-ACYCLICITY", {"property": p[5], "max-depth": 10}),
        ("LANGUAGE-TAG-CARDINALITY", {"class": c[2], "property": p[3], "max-per-language": 1}),
    ]


def wide_catalog_doc() -> dict:
    return {
        "prefixes": {},
        "constraints": [
            {
                "id": f"PERF-{n:02d}",
                "vocabulary": "user-defined",
                "family": family,
                "severity": "error",
                "status": "implemented",
                "params": params,
                "message": "{focus}",
                "expressivity": ["sparql"],
            }
            for n, (family, params) in enumerate(wide_rows(), start=1)
        ],
    }


def wide_inputs(work: Path, seed: int) -> dict:
    """Write the wide graph, its catalog and its expected violations."""
    from checks import wide_expected  # imported here: checks imports this module

    d = work / "wide-perf" / f"seed-{seed}"
    if not _done(d):
        d.mkdir(parents=True, exist_ok=True)
        triples = wide_terms(WIDE_ENTITIES, seed)
        lines = [f"{s} {p} {o} ." for s, p, o in triples]
        (d / "data.nt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (d / "empty.nt").write_bytes(b"")
        catalog = wide_catalog_doc()
        _write_json(d / "catalog.json", catalog)
        _write_json(d / "expected.json", wide_expected(triples, catalog))
        _write_json(
            d / "meta.json",
            {"triples": len(set(lines)), "distinct_terms": distinct_terms(lines),
             "entities": WIDE_ENTITIES, "seed": seed},
        )
    meta = json.loads((d / "meta.json").read_text(encoding="utf-8"))
    return {
        "dir": d,
        "data": [d / "data.nt"],
        "empty": [d / "empty.nt"],
        "catalog": d / "catalog.json",
        "expected": json.loads((d / "expected.json").read_text(encoding="utf-8")),
        **meta,
    }


# ---------------------------------------------------------------------------
# archive-ddi: renamed copies of study-archive in a .nt.gz and a .ttl file


def _turtle(lines: list[str]) -> str:
    """The Turtle-subset form of rdf:type-only lines of archive copies.

    Uses @prefix declarations, the ``a`` keyword and ``;``. Every subject
    of the archive fixture has a single type, so each statement ends its
    predicate-object list with a trailing ``;`` before the dot.
    """
    prefixes: dict[str, str] = {"disco": DISCO}
    body = []
    for line in lines:
        s, p, o = split_line(line)
        if p != f"<{RDF_TYPE}>" or not o.startswith(f"<{DISCO}"):
            raise ValueError(f"archive line outside the Turtle writer's shape: {line!r}")
        m = re.fullmatch(r"<http://example\.org/(c\d+)/archive/([a-z]+)/([A-Za-z0-9]+)>", s)
        if m is None:
            raise ValueError(f"unexpected archive subject: {s}")
        pname = f"{m.group(1)}{m.group(2)}"
        prefixes.setdefault(pname, f"http://example.org/{m.group(1)}/archive/{m.group(2)}/")
        body.append(f"{pname}:{m.group(3)} a disco:{o[len(DISCO) + 1 : -1]} ;\n    .")
    head = [f"@prefix {name}: <{iri}> ." for name, iri in prefixes.items()]
    return "\n".join(head) + "\n\n" + "\n".join(body) + "\n"


def archive_inputs(root: Path, work: Path, seed: int) -> dict:
    d = work / "archive-ddi" / f"seed-{seed}"
    if not _done(d):
        d.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        base = fixture_lines(root, "study-archive")
        copies = list(range(ARCHIVE_COPIES))
        rng.shuffle(copies)
        ttl_copies = set(rng.sample(copies, ARCHIVE_TTL_COPIES))
        nt_lines: list[str] = []
        ttl_lines: list[str] = []
        for c in copies:
            block = renamed_copy(base, c)
            rng.shuffle(block)
            (ttl_lines if c in ttl_copies else nt_lines).extend(block)
        (d / "part-a.nt.gz").write_bytes(
            gzip.compress(("\n".join(nt_lines) + "\n").encode("utf-8"), mtime=0)
        )
        (d / "part-b.ttl").write_text(_turtle(ttl_lines), encoding="utf-8")
        (d / "empty-a.nt.gz").write_bytes(gzip.compress(b"", mtime=0))
        (d / "empty-b.ttl").write_text("", encoding="utf-8")
        all_lines = nt_lines + ttl_lines
        _write_json(
            d / "meta.json",
            {"triples": len(set(all_lines)), "distinct_terms": distinct_terms(all_lines),
             "copies": ARCHIVE_COPIES, "ttl_copies": ARCHIVE_TTL_COPIES, "seed": seed},
        )
    meta = json.loads((d / "meta.json").read_text(encoding="utf-8"))
    return {
        "dir": d,
        "data": [d / "part-a.nt.gz", d / "part-b.ttl"],
        "empty": [d / "empty-a.nt.gz", d / "empty-b.ttl"],
        **meta,
    }


# ---------------------------------------------------------------------------
# campaign-mock: one endpoint per pack plus the known-fault endpoint


def nodeid_lines() -> list[str]:
    """The known-fault source's graph; blank labels become nodeID://<label>."""
    lines = []
    for i in range(NODEID_TRIPLES // 2):
        lines.append(f"_:b1000{i} <{RDF_TYPE}> <{DISCO}Study> .")
        lines.append(f'_:b1000{i} <http://purl.org/dc/terms/title> "study {i}" .')
    return lines


def campaign_inputs(root: Path, work: Path, seed: int) -> dict:
    """One N-Triples file per source, and what each source holds.

    The endpoint serves rows in its own canonical order, so the seed sets
    which copy numbers the blocks carry and, through them, that order.
    """
    d = work / "campaign-mock" / f"seed-{seed}"
    if not _done(d):
        d.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        sources = []
        for fixture, copies in CAMPAIGN_COPIES.items():
            base = fixture_lines(root, fixture)
            numbers = rng.sample(range(10 * copies), copies)
            lines: list[str] = []
            for c in numbers:
                lines.extend(renamed_copy(base, c))
            (d / f"{fixture}.nt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            sources.append(
                {"name": fixture, "pack": FIXTURE_PACK[fixture], "copies": copies,
                 "file": f"{fixture}.nt", "triples": len(set(lines)),
                 "distinct_terms": distinct_terms(lines), "nodeid": False}
            )
        (d / "nodeid.nt").write_text("\n".join(nodeid_lines()) + "\n", encoding="utf-8")
        sources.append(
            {"name": "nodeid", "pack": "ddi-rdf", "copies": 0, "file": "nodeid.nt",
             "triples": NODEID_TRIPLES, "distinct_terms": distinct_terms(nodeid_lines()),
             "nodeid": True}
        )
        _write_json(d / "meta.json", {"sources": sources, "page_size": CAMPAIGN_PAGE_SIZE,
                                      "seed": seed})
    meta = json.loads((d / "meta.json").read_text(encoding="utf-8"))
    return {"dir": d, **meta}
