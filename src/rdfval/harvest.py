"""Paged harvesting of remote SPARQL endpoints into local graphs.

A source is drained with ORDER BY ?s ?p ?o / LIMIT / OFFSET pages so a
harvest is reproducible; a harvest is complete exactly when the last page
came back shorter than the page size.
"""
from __future__ import annotations

import gzip
import io
import json
import math
import os
import time
import traceback
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable
from urllib.parse import quote, urlencode

from .catalog import Catalog, read_json
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
from .report import SourceOutcomes, outcomes_document
from .terms import BlankNode, Iri, Literal, RDF_TYPE, Term

REQUEST_HEADERS = {"Accept": "application/sparql-results+json", "Accept-Encoding": "gzip"}
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
    doc = read_json(data, "sources file")
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
        if abbr in (".", "..") or any(c in abbr for c in "/\\\0"):
            problems.append(f"{where}: abbreviation must be one path component")
            continue
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
        if not isinstance(timeout, (int, float)) or isinstance(timeout, bool) or not 0 < timeout < math.inf:
            problems.append(f"{where}: timeout must be a finite positive number")
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
    """One harvest's term scope: each endpoint blank label maps to one node,
    and each distinct IRI or literal binding to the one term built for it.

    A label that is already a legal N-Triples label is kept; any other
    (Virtuoso's ``nodeID://b0``) gets a fresh ``b<n>`` label that no other
    label of the harvest uses.
    """

    __slots__ = ("_map", "_used", "_next", "terms")

    def __init__(self) -> None:
        self._map: dict[str, BlankNode] = {}
        self._used: set[str] = set()
        self._next = 0
        # An IRI's text, or a literal's (value, xml:lang, datatype).
        self.terms: dict[str | tuple, Term] = {}

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


_OPTIONAL_STR = (str, type(None))


def _literal(value: str, lang: str | None, datatype: str | None) -> Literal:
    if lang:
        return Literal(value, language=lang)
    if datatype:
        return Literal(value, Iri(datatype))
    return Literal(value)


def _term_from_binding(obj, blanks: _EndpointBlanks) -> Term:
    kind = obj["type"]
    value = obj["value"]
    if kind == "bnode":
        return blanks.node(value)
    if kind == "uri":
        if value.__class__ is not str:
            return Iri(value)  # raises the TypeError it always has
        key = value
    elif kind in ("literal", "typed-literal"):
        lang, datatype = obj.get("xml:lang"), obj.get("datatype")
        if not (
            value.__class__ is str
            and lang.__class__ in _OPTIONAL_STR
            and datatype.__class__ in _OPTIONAL_STR
        ):
            raise ValueError("literal value, xml:lang and datatype must be strings")
        key = (value, lang, datatype)
    else:
        raise ValueError(f"unknown term type {kind!r}")
    # Each distinct IRI or literal is built, and so checked, once per
    # harvest; a binding whose term cannot be built is never stored.
    term = blanks.terms.get(key)
    if term is None:
        term = blanks.terms[key] = Iri(value) if kind == "uri" else _literal(*key)
    return term


def _parse_rows(payload: bytes, blanks: _EndpointBlanks) -> list[tuple[Term, Iri, Term]]:
    doc = read_json(payload, "response")
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
    source: Source, offset: int, sleep, blanks: _EndpointBlanks
) -> list[tuple[Term, Iri, Term]]:
    # The HTTP stack is imported here, not at module level, so that
    # processes that only validate never load it.
    import http.client
    import urllib.error
    import urllib.request

    # A space or a non-ASCII character is percent-encoded; reserved ones stay.
    endpoint = quote(source.endpoint_url, safe="!#$%&'()*+,/:;=?@[]~")
    form = urlencode({"query": _page_query(source.page_size, offset)})
    url = endpoint + ("&" if "?" in endpoint else "?") + form
    body = None
    if len(url) > MAX_GET_URL:
        url, body = endpoint, form.encode("ascii")
    request = urllib.request.Request(url, body, REQUEST_HEADERS)
    last_reason = "no attempt made"
    for attempt in range(source.max_retries + 1):
        if attempt:
            sleep(BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1))
        try:
            with urllib.request.urlopen(request, timeout=source.timeout) as response:
                payload = response.read()
                if response.headers.get("Content-Encoding") == "gzip":
                    payload = gzip.decompress(payload)
        except urllib.error.HTTPError as exc:
            exc.close()
            last_reason = f"HTTP {exc.code}"
            continue
        except (OSError, EOFError, zlib.error, http.client.HTTPException) as exc:
            last_reason = f"request failed: {exc}"
            continue
        if response.status != 200:
            last_reason = f"HTTP {response.status}"
            continue
        try:
            return _parse_rows(payload, blanks)
        except (KeyError, TypeError, ValueError) as exc:
            last_reason = f"malformed result set: {exc}"
    raise _PageFailure(last_reason)


def harvest(source: Source, *, sleep=time.sleep) -> HarvestResult:
    """Drain a source page by page.

    A failing first page makes the source unavailable; a failure after at
    least one page yields a partial result with everything fetched so far.
    """
    builder = GraphBuilder()
    # Results scope blank labels per result set; one scope across the
    # pages keeps a label that recurs on a later page the same node.
    blanks = _EndpointBlanks()
    pages = 0
    while True:
        try:
            rows = _fetch_page(source, pages * source.page_size, sleep, blanks)
        except _PageFailure as exc:
            status, reason = UNAVAILABLE if pages == 0 else PARTIAL, str(exc)
            break
        pages += 1
        for s, p, o in rows:
            builder.add(s, p, o)
        if len(rows) < source.page_size:
            status, reason = COMPLETE, None
            break
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


def write_atomic(path: Path, data: bytes | str | Iterable[bytes]) -> None:
    """Replace the file at ``path`` with ``data`` (text is written as
    UTF-8; an iterable of byte chunks is written one chunk at a time)
    through a temporary file in the same directory, so a crash, or a chunk
    iterator that raises, leaves either the old file or the new one, never
    a torn one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if isinstance(data, str):
            tmp.write_text(data, encoding="utf-8")
        elif isinstance(data, bytes):
            tmp.write_bytes(data)
        else:
            with tmp.open("wb") as f:
                f.writelines(data)
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
        return read_json(path.read_bytes(), str(path))
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
    fetched again: its stored data is checked with this run's catalog,
    limit and budget, and unreadable data is fetched again.
    Outcomes keep counts only: their ``violations`` are always ``()``.
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
        without one), flagged source-incomplete for a partial harvest.
        The file holds counts only, so no violation record is built."""
        outcomes: tuple[CheckOutcome, ...] = ()
        if graph is not None:
            outcomes = tuple(
                check(graph, catalogs[source.vocabulary], limit=limit, budget=budget, records=False)
            )
        if status == PARTIAL:
            outcomes = tuple(mark_source_incomplete(outcomes, parts_missing=1))
        column = SourceOutcomes(source.abbreviation, source.vocabulary, status, outcomes)
        write_json(out / source.abbreviation / "outcomes.json", outcomes_document(column))
        return outcomes

    def resume(source: Source) -> SourceRun | None:
        """The run a committed complete harvest still answers, from its
        stored data; None when it must be fetched."""
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
