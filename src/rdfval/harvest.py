"""Paged harvesting of remote SPARQL endpoints into local graphs.

A source is drained with ORDER BY ?s ?p ?o / LIMIT / OFFSET pages so a
harvest is reproducible; a harvest is complete exactly when the last page
came back shorter than the page size.
"""
from __future__ import annotations

import gzip
import io
import json
import os
import time
import traceback
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlencode

from .catalog import Catalog
from .checker import (
    CheckOutcome,
    DEFAULT_BUDGET,
    DEFAULT_LIMIT,
    check,
    mark_source_incomplete,
)
from .graph import Graph, GraphBuilder
from .ntriples import parse_ntriples, serialize_ntriples
from .packs import PROFILE_CLASSES, load_pack
from .report import SourceOutcomes, outcomes_document, parse_outcomes_document
from .terms import BlankNode, Iri, Literal, RDF_TYPE, Term

RESULTS_MEDIA_TYPE = "application/sparql-results+json"
# Query strings beyond this URL length go as a form-encoded POST instead.
MAX_GET_URL = 2048

DEFAULT_PAGE_SIZE = 10_000
DEFAULT_TIMEOUT = 30.0
DEFAULT_MAX_RETRIES = 3
BACKOFF_BASE = 1.0
BACKOFF_FACTOR = 2.0

COMPLETE = "complete"
PARTIAL = "partial"
UNAVAILABLE = "unavailable"


@dataclass(frozen=True)
class Source:
    abbreviation: str
    endpoint_url: str
    vocabulary: str | None = None
    page_size: int = DEFAULT_PAGE_SIZE
    timeout: float = DEFAULT_TIMEOUT
    max_retries: int = DEFAULT_MAX_RETRIES


_SOURCE_KEYS = {
    "abbreviation",
    "endpoint-url",
    "vocabulary",
    "page-size",
    "timeout",
    "max-retries",
}


def load_sources(data) -> list[Source]:
    """Load a sources file (bytes, text, or a binary file object)."""
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ValueError(f"sources file is not valid JSON: {exc}") from None
    if not isinstance(doc, list):
        raise ValueError("sources file must be a JSON array")

    problems: list[str] = []
    sources: list[Source] = []
    seen: set[str] = set()
    for i, obj in enumerate(doc):
        where = f"source #{i + 1}"
        if not isinstance(obj, dict):
            problems.append(f"{where}: must be an object")
            continue
        for key in obj:
            if key not in _SOURCE_KEYS:
                problems.append(f"{where}: unknown field {key!r}")
        abbr = obj.get("abbreviation")
        url = obj.get("endpoint-url")
        if not isinstance(abbr, str) or not abbr:
            problems.append(f"{where}: abbreviation must be a non-empty string")
            continue
        where = f"source {abbr!r}"
        if abbr in seen:
            problems.append(f"{where}: duplicate abbreviation")
            continue
        seen.add(abbr)
        if not isinstance(url, str) or not url.startswith(("http://", "https://")):
            problems.append(f"{where}: endpoint-url must be an http(s) URL")
            continue
        vocabulary = obj.get("vocabulary")
        if vocabulary is not None and not isinstance(vocabulary, str):
            problems.append(f"{where}: vocabulary must be a string")
            continue
        page_size = obj.get("page-size", DEFAULT_PAGE_SIZE)
        if not isinstance(page_size, int) or isinstance(page_size, bool) or page_size < 1:
            problems.append(f"{where}: page-size must be a positive integer")
            continue
        timeout = obj.get("timeout", DEFAULT_TIMEOUT)
        if not isinstance(timeout, (int, float)) or isinstance(timeout, bool) or timeout <= 0:
            problems.append(f"{where}: timeout must be a positive number")
            continue
        retries = obj.get("max-retries", DEFAULT_MAX_RETRIES)
        if not isinstance(retries, int) or isinstance(retries, bool) or retries < 0:
            problems.append(f"{where}: max-retries must be a non-negative integer")
            continue
        sources.append(
            Source(abbr, url, vocabulary, page_size, float(timeout), retries)
        )
    if problems:
        raise ValueError("invalid sources file:\n" + "\n".join(problems))
    return sources


@dataclass(frozen=True)
class HarvestResult:
    source: Source
    status: str
    graph: Graph
    pages_fetched: int
    reason: str | None = None
    blank_nodes: int = 0


class _PageFailure(Exception):
    pass


def _page_query(page_size: int, offset: int) -> str:
    return (
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o } "
        f"ORDER BY ?s ?p ?o LIMIT {page_size} OFFSET {offset}"
    )


class _EndpointBlanks:
    """One harvest's blank nodes: each endpoint label maps to one node.

    A label that is already a legal N-Triples label is kept; any other
    (Virtuoso's ``nodeID://b0``) gets a fresh ``b<n>`` label that no other
    label of the harvest uses.
    """

    __slots__ = ("_map", "_used", "_next")

    def __init__(self) -> None:
        self._map: dict[str, BlankNode] = {}
        self._used: set[str] = set()
        self._next = 0

    def node(self, label: str) -> BlankNode:
        node = self._map.get(label)
        if node is not None:
            return node
        if label not in self._used:
            try:
                node = BlankNode(label)
            except ValueError:
                pass
        if node is None:
            while f"b{self._next}" in self._used:
                self._next += 1
            node = BlankNode(f"b{self._next}")
        self._used.add(node.label)
        self._map[label] = node
        return node

    def __len__(self) -> int:
        """Distinct endpoint labels seen so far."""
        return len(self._map)


def _term_from_binding(obj, blanks: _EndpointBlanks) -> Term:
    kind = obj["type"]
    value = obj["value"]
    if kind == "uri":
        return Iri(value)
    if kind == "bnode":
        return blanks.node(value)
    if kind in ("literal", "typed-literal"):
        lang = obj.get("xml:lang")
        if lang:
            return Literal(value, language=lang)
        datatype = obj.get("datatype")
        if datatype:
            return Literal(value, Iri(datatype))
        return Literal(value)
    raise ValueError(f"unknown term type {kind!r}")


def _parse_rows(payload: bytes, blanks: _EndpointBlanks) -> list[tuple[Term, Iri, Term]]:
    doc = json.loads(payload)
    rows: list[tuple[Term, Iri, Term]] = []
    for binding in doc["results"]["bindings"]:
        s = _term_from_binding(binding["s"], blanks)
        p = _term_from_binding(binding["p"], blanks)
        o = _term_from_binding(binding["o"], blanks)
        if isinstance(s, Literal) or not isinstance(p, Iri):
            raise ValueError("binding is not a well-formed triple")
        rows.append((s, p, o))
    return rows


def _fetch_page(
    session, source: Source, offset: int, sleep, blanks: _EndpointBlanks
) -> list[tuple[Term, Iri, Term]]:
    import requests

    query = _page_query(source.page_size, offset)
    headers = {"Accept": RESULTS_MEDIA_TYPE}
    get_url = source.endpoint_url + "?" + urlencode({"query": query})
    last_reason = "no attempt made"
    for attempt in range(source.max_retries + 1):
        if attempt:
            sleep(BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1))
        try:
            if len(get_url) <= MAX_GET_URL:
                response = session.get(
                    source.endpoint_url,
                    params={"query": query},
                    headers=headers,
                    timeout=source.timeout,
                )
            else:
                response = session.post(
                    source.endpoint_url,
                    data={"query": query},
                    headers=headers,
                    timeout=source.timeout,
                )
        except requests.RequestException as exc:
            last_reason = f"request failed: {exc}"
            continue
        if response.status_code != 200:
            last_reason = f"HTTP {response.status_code}"
            continue
        try:
            return _parse_rows(response.content, blanks)
        except (KeyError, TypeError, ValueError) as exc:
            last_reason = f"malformed result set: {exc}"
            continue
    raise _PageFailure(last_reason)


def harvest(source: Source, *, sleep=time.sleep) -> HarvestResult:
    """Drain a source page by page.

    A failing first page makes the source unavailable; a failure after at
    least one page yields a partial result with everything fetched so far.
    """
    # The HTTP stack is imported here, not at module level, so that
    # processes that only validate never load it.
    import requests

    builder = GraphBuilder()
    # Results scope blank labels per result set; one scope across the
    # pages keeps a label that recurs on a later page the same node.
    blanks = _EndpointBlanks()
    pages = 0
    offset = 0
    with requests.Session() as session:
        while True:
            try:
                rows = _fetch_page(session, source, offset, sleep, blanks)
            except _PageFailure as exc:
                status, reason = UNAVAILABLE if pages == 0 else PARTIAL, str(exc)
                break
            pages += 1
            for s, p, o in rows:
                builder.add(s, p, o)
            if len(rows) < source.page_size:
                status, reason = COMPLETE, None
                break
            offset += source.page_size
    return HarvestResult(
        source, status, builder.freeze(name=source.abbreviation), pages, reason,
        blank_nodes=len(blanks),
    )


def profile(g: Graph, classes) -> tuple[int, ...]:
    """Instance counts for each class, in the given order."""
    return tuple(g.count(None, RDF_TYPE, cls) for cls in classes)


# ---------------------------------------------------------------------------
# Campaigns


@dataclass(frozen=True)
class SourceRun:
    source: Source
    status: str
    pages_fetched: int
    triples: int
    reason: str | None
    outcomes: tuple[CheckOutcome, ...]
    from_cache: bool = False


def write_atomic(path: Path, data: bytes | str) -> None:
    """Replace the file at ``path`` with ``data`` (text is written as
    UTF-8) through a temporary file in the same directory, so a crash
    leaves either the old file or the new one, never a torn one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if isinstance(data, str):
            tmp.write_text(data, encoding="utf-8")
        else:
            tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Path, doc) -> None:
    """``write_atomic`` of ``doc`` as indented JSON with a final newline."""
    write_atomic(path, json.dumps(doc, indent=2) + "\n")


def _read_json(path: Path):
    """A stored JSON document, or None when it is missing, unreadable or
    torn."""
    try:
        return json.loads(path.read_bytes())
    except (OSError, ValueError):
        return None


def _write_data(path: Path, graph: Graph) -> None:
    buf = io.BytesIO()
    # The header names the real file, not the temporary one; a fixed mtime
    # keeps re-harvests byte-identical for identical data.
    with gzip.GzipFile(filename=str(path), mode="wb", fileobj=buf, mtime=0) as z:
        z.write(serialize_ntriples(graph))
    write_atomic(path, buf.getvalue())


def read_data(path: Path) -> Graph:
    with gzip.open(path, "rb") as z:
        return parse_ntriples(z.read(), name=path.parent.name)


def _profile_document(source: Source, result: HarvestResult) -> dict:
    classes = PROFILE_CLASSES.get(source.vocabulary, ())
    counts = profile(result.graph, classes)
    return {
        "source": source.abbreviation,
        "endpoint-url": source.endpoint_url,
        "status": result.status,
        "pages-fetched": result.pages_fetched,
        "reason": result.reason,
        "triples": len(result.graph),
        "blank-nodes": result.blank_nodes,
        "classes": {cls.text: n for cls, n in zip(classes, counts)},
    }


def run_campaign(
    sources,
    out_dir,
    *,
    catalogs: dict[str, Catalog] | None = None,
    limit: int = DEFAULT_LIMIT,
    budget: float = DEFAULT_BUDGET,
    concurrency: int = 4,
    do_check: bool = True,
    sleep=time.sleep,
    log=None,
) -> list[SourceRun]:
    """Harvest, check, and persist every source under ``out_dir``.

    Each source gets ``<abbr>/data.nt.gz``, ``profile.json`` and (when
    checking) ``outcomes.json``, each replaced atomically and in that
    order; ``profile.json`` commits the data, and a fetch first removes the
    old profile and outcomes.  A source committed as complete is not
    fetched again: its outcomes are read back, or computed from the stored
    data when they are unreadable, and unreadable data is fetched again.
    Partial harvests keep their outcomes but flag every result as
    source-incomplete.  A source whose run raises is reported unavailable,
    with the exception as its reason, and the others go on.
    ``do_check=False`` harvests and profiles only.
    """
    sources = list(sources)
    catalogs = dict(catalogs or {})
    if do_check:
        missing = [s.abbreviation for s in sources if not s.vocabulary]
        if missing:
            raise ValueError(
                "sources without a vocabulary cannot be checked: " + ", ".join(missing)
            )
        for s in sources:
            if s.vocabulary not in catalogs:
                catalogs[s.vocabulary] = load_pack(s.vocabulary)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def say(message: str) -> None:
        if log is not None:
            log(message)

    def store(source: Source, status: str, graph: Graph | None) -> tuple[CheckOutcome, ...]:
        """Write the source's outcomes.json: the checks of ``graph`` (none
        without one), flagged source-incomplete for a partial harvest."""
        outcomes: tuple[CheckOutcome, ...] = ()
        if graph is not None:
            outcomes = tuple(check(graph, catalogs[source.vocabulary], limit=limit, budget=budget))
        if status == PARTIAL:
            outcomes = tuple(mark_source_incomplete(outcomes, parts_missing=1))
        column = SourceOutcomes(source.abbreviation, source.vocabulary, status, outcomes)
        write_json(out / source.abbreviation / "outcomes.json", outcomes_document(column))
        return outcomes

    def resume(source: Source) -> SourceRun | None:
        """The run a committed complete harvest still answers, from its
        stored outcomes or its stored data; None when it must be fetched."""
        sdir = out / source.abbreviation
        prof = _read_json(sdir / "profile.json") if (sdir / "data.nt.gz").exists() else None
        if not (
            isinstance(prof, dict)
            and prof.get("status") == COMPLETE
            and isinstance(prof.get("pages-fetched"), int)
            and isinstance(prof.get("triples"), int)
        ):
            return None
        outcomes: tuple[CheckOutcome, ...] = ()
        message = "already complete, skipped"
        if do_check:
            try:
                outcomes = parse_outcomes_document(_read_json(sdir / "outcomes.json")).outcomes
            except ValueError:
                try:
                    stored = read_data(sdir / "data.nt.gz")
                except (OSError, EOFError, zlib.error, ValueError):
                    return None  # torn or damaged
                outcomes = store(source, COMPLETE, stored)
                message = "checked stored data"
        say(f"{source.abbreviation}: {message}")
        return SourceRun(
            source, COMPLETE, prof["pages-fetched"], prof["triples"], None, outcomes,
            from_cache=True,
        )

    def fetch(source: Source) -> SourceRun:
        result = harvest(source, sleep=sleep)
        sdir = out / source.abbreviation
        # The old profile would commit data this fetch replaces, and the old
        # outcomes describe that data.
        for name in ("profile.json", "outcomes.json"):
            (sdir / name).unlink(missing_ok=True)
        sdir.mkdir(parents=True, exist_ok=True)
        _write_data(sdir / "data.nt.gz", result.graph)
        write_json(sdir / "profile.json", _profile_document(source, result))
        outcomes: tuple[CheckOutcome, ...] = ()
        if do_check:
            graph = None if result.status == UNAVAILABLE else result.graph
            outcomes = store(source, result.status, graph)
        say(
            f"{source.abbreviation}: {result.status}, {result.pages_fetched} page(s), "
            f"{len(result.graph)} triples"
        )
        return SourceRun(
            source,
            result.status,
            result.pages_fetched,
            len(result.graph),
            result.reason,
            outcomes,
        )

    def run_one(source: Source) -> SourceRun:
        try:
            return resume(source) or fetch(source)
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
            say(f"{source.abbreviation}: {UNAVAILABLE}, {reason}\n{traceback.format_exc().rstrip()}")
            return SourceRun(source, UNAVAILABLE, 0, 0, reason, ())

    if concurrency <= 1 or len(sources) <= 1:
        return [run_one(s) for s in sources]
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(run_one, sources))
