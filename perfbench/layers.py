"""In-process tracing of one rdfval command, from outside the package.

The tracer installs wrappers on public functions in the namespace where
each caller looks them up (``rdfval.cli.load_graph``, ``rdfval.checker.
compile_constraint``, ...), runs ``rdfval.cli.main([...],
standalone_mode=False)`` and takes every wrapper out again. Nothing inside
``src/`` changes.

There are two passes, so that counting on hot paths does not distort the
times:

- the span pass records a span (name, start, end, parent, thread) per call
  of a layer-boundary function, and the harvest request figures;
- the count pass counts index probes, rows, numeric conversions and term
  construction, with no spans.
"""
from __future__ import annotations

import contextlib
import io
import statistics
import threading
import time
import traceback
from collections import defaultdict

# Every executable family; each has a constraint in at least one workload.
FAMILIES = (
    "ALLOWED-VALUES",
    "CLASS-SPECIFIC-PROPERTY-RANGE",
    "CONDITIONAL-PROPERTY",
    "CONTEXT-SPECIFIC-VALID-PROPERTIES",
    "DATA-PROPERTY-FACETS",
    "DIMENSION-COMPLETENESS",
    "DISJOINT-CLASSES",
    "EXACT-QUALIFIED-CARDINALITY",
    "EXACT-UNQUALIFIED-CARDINALITY",
    "EXISTENTIAL-QUANTIFICATION",
    "INVERSE-FUNCTIONAL-PROPERTY",
    "IRI-PATTERN-MATCHING",
    "LANGUAGE-TAG-CARDINALITY",
    "LITERAL-PATTERN-MATCHING",
    "LITERAL-RANGE",
    "LITERAL-VALUE-COMPARISON",
    "MAX-QUALIFIED-CARDINALITY",
    "MAX-UNQUALIFIED-CARDINALITY",
    "MEMBERSHIP-IN-CONTROLLED-VOCABULARY",
    "MIN-QUALIFIED-CARDINALITY",
    "MIN-UNQUALIFIED-CARDINALITY",
    "PROPERTY-DOMAIN",
    "PROPERTY-RANGE",
    "STRUCTURE-ACYCLICITY",
    "UNIVERSAL-QUANTIFICATION",
    "VALUE-IS-VALID-FOR-DATATYPE",
)

# name -> unit, in the order they are reported.
LAYER_METRICS = {
    # load
    "graphio.load_s": "s",
    "ntriples.parse_s": "s",
    "turtle.parse_s": "s",
    "cli.merge_s": "s",
    "terms.built": "count",
    "terms.built_per_distinct": "ratio",
    # index
    "graph.freeze_s": "s",
    "graph.triples": "count",
    # compile
    "catalog.load_s": "s",
    "checker.compile_s": "s",
    # evaluate
    "checker.check_s": "s",
    **{f"checker.family_s.{f}": "s" for f in FAMILIES},
    "graph.match_calls": "count",
    "graph.match_rows": "count",
    "query.rows": "count",
    "checker.violations": "count",
    "checker.rows_per_violation": "ratio",
    "datatypes.numeric_value_calls": "count",
    # render
    "report.render_s": "s",
    "checker.violation_graph_s": "s",
    "ntriples.serialize_s": "s",
    "report.bytes": "bytes",
    # harvest
    "harvest.harvest_s": "s",
    "harvest.requests": "count",
    "harvest.pages": "count",
    "harvest.retries": "count",
    "harvest.bytes": "bytes",
    "harvest.page_ms.p50": "ms",
    "harvest.page_ms.p90": "ms",
    "endpoint.serve_ms.p50": "ms",
    # the traced command itself, untraced and in each pass
    "trace.plain_s": "s",
    "trace.spans_s": "s",
    "trace.counts_s": "s",
}

# Span name -> the places it is looked up from, as (module, attribute).
SPANS = {
    "graphio.load": [("rdfval.cli", "load_graph")],
    "ntriples.parse": [("rdfval.graphio", "parse_ntriples")],
    "turtle.parse": [("rdfval.graphio", "parse_turtle_subset")],
    "catalog.load": [
        ("rdfval.cli", "load_catalog"),
        ("rdfval.cli", "load_pack"),
        ("rdfval.harvest", "load_pack"),
        ("rdfval.packs", "load_pack"),
    ],
    "checker.compile": [("rdfval.checker", "compile_constraint")],
    "checker.violation_graph": [("rdfval.cli", "violations_to_graph")],
    "ntriples.serialize": [
        ("rdfval.cli", "serialize_ntriples"),
        ("rdfval.harvest", "serialize_ntriples"),
    ],
    "report.render": [
        ("rdfval.cli", "outcomes_document"),
        ("rdfval.cli", "render_matrix"),
        ("rdfval.cli", "render_campaign"),
        ("rdfval.harvest", "outcomes_document"),
    ],
    "harvest.harvest": [("rdfval.harvest", "harvest")],
    "harvest.fetch_page": [("rdfval.harvest", "_fetch_page")],
}


def _module(name: str):
    import importlib

    return importlib.import_module(name)


def run_cli(args: list[str]) -> int:
    """Run one rdfval command in this process; its exit code."""
    from rdfval.cli import main

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            main(args, standalone_mode=False, prog_name="rdfval")
    except SystemExit as exc:
        return 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 2
    except Exception:  # counted like the exit 2 of a failed process
        traceback.print_exc()
        return 2
    return 0


class _Patches:
    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class SpanPass:
    """Spans at the layer boundaries of one command."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, thread]
        self.outcome_families: dict[str, float] = defaultdict(float)
        self.violations = 0
        self.frozen_triples = 0
        self.request_ms: list[float] = []
        self.request_bytes = 0
        self.pages = 0
        self.last_load_end: float | None = None
        self.first_check_start: float | None = None
        self._local = threading.local()
        # Harvest threads update the totals below at the same time.
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident()]
            tracer.spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def install(self, patches: _Patches) -> None:
        import requests
        from rdfval.graph import GraphBuilder

        for name, places in SPANS.items():
            for module, attr in places:
                owner = _module(module)
                after = {"graphio.load": self._after_load,
                         "harvest.fetch_page": self._after_fetch}.get(name)
                patches.set(owner, attr, self._wrap(name, getattr(owner, attr), after))
        for module in ("rdfval.cli", "rdfval.harvest"):
            owner = _module(module)
            patches.set(owner, "check",
                        self._wrap("checker.check", owner.check, self._after_check))
        patches.set(GraphBuilder, "freeze",
                    self._wrap("graph.freeze", GraphBuilder.freeze, self._after_freeze))

        tracer = self

        class TimedSession(requests.Session):
            def request(self, *args, **kwargs):
                start = time.perf_counter()
                response = super().request(*args, **kwargs)
                size = len(response.content)
                with tracer._lock:
                    tracer.request_ms.append((time.perf_counter() - start) * 1000.0)
                    tracer.request_bytes += size
                return response

        patches.set(requests, "Session", TimedSession)

    def _after_load(self, span, args, kwargs, result) -> None:
        self.last_load_end = span[2]

    def _after_fetch(self, span, args, kwargs, rows) -> None:
        with self._lock:
            self.pages += 1

    def _after_check(self, span, args, kwargs, outcomes) -> None:
        catalog = args[1] if len(args) > 1 else kwargs["catalog"]
        family = {c.id: c.family.family_id for c in catalog.constraints}
        with self._lock:
            if self.first_check_start is None:
                self.first_check_start = span[1]
            for o in outcomes:
                self.outcome_families[family[o.constraint_id]] += o.wall_time
                self.violations += len(o.violations)

    def _after_freeze(self, span, args, kwargs, graph) -> None:
        with self._lock:
            self.frozen_triples += len(graph)

    # ---- figures ---------------------------------------------------------

    def _total(self, name: str) -> float:
        """Time inside ``name``, not counting a call nested in another."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent is not None and parent[0] != name:
                parent = parent[3]
            if parent is None:
                total += span[2] - span[1]
        return total

    def _self_time(self, name: str) -> float:
        total = self._total(name)
        for span in self.spans:
            if span[3] is not None and span[3][0] == name:
                total -= span[2] - span[1]
        return total

    def metrics(self) -> dict[str, float]:
        out = {
            "graphio.load_s": self._total("graphio.load"),
            "ntriples.parse_s": self._self_time("ntriples.parse"),
            "turtle.parse_s": self._self_time("turtle.parse"),
            "cli.merge_s": 0.0,
            "graph.freeze_s": self._total("graph.freeze"),
            "graph.triples": float(self.frozen_triples),
            "catalog.load_s": self._total("catalog.load"),
            "checker.compile_s": self._total("checker.compile"),
            "checker.check_s": self._total("checker.check"),
            "checker.violations": float(self.violations),
            "report.render_s": self._total("report.render"),
            "checker.violation_graph_s": self._total("checker.violation_graph"),
            "ntriples.serialize_s": self._total("ntriples.serialize"),
            "harvest.harvest_s": self._total("harvest.harvest"),
            "harvest.requests": float(len(self.request_ms)),
            "harvest.bytes": float(self.request_bytes),
            "harvest.page_ms.p50": 0.0,
            "harvest.page_ms.p90": 0.0,
        }
        if self.last_load_end is not None and self.first_check_start is not None:
            out["cli.merge_s"] = self.first_check_start - self.last_load_end
        for family in FAMILIES:
            out[f"checker.family_s.{family}"] = self.outcome_families.get(family, 0.0)
        fetches = sum(1 for s in self.spans if s[0] == "harvest.fetch_page")
        out["harvest.pages"] = float(self.pages)
        out["harvest.retries"] = float(len(self.request_ms) - fetches)
        if len(self.request_ms) >= 2:
            deciles = statistics.quantiles(self.request_ms, n=10)
            out["harvest.page_ms.p50"] = statistics.median(self.request_ms)
            out["harvest.page_ms.p90"] = deciles[8]
        elif self.request_ms:
            out["harvest.page_ms.p50"] = out["harvest.page_ms.p90"] = self.request_ms[0]
        return out

    def span_records(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {"name": s[0], "start": s[1], "end": s[2],
             "parent": index.get(id(s[3])) if s[3] is not None else None,
             "thread": s[4]}
            for s in self.spans
        ]


class CountPass:
    """Counters on hot paths, taken without spans."""

    def __init__(self):
        self._local = threading.local()
        self._all: list[dict] = []
        self._lock = threading.Lock()

    def _counts(self) -> dict:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(int)
            with self._lock:
                self._all.append(counts)
        return counts

    def total(self, key: str) -> int:
        return sum(c.get(key, 0) for c in self._all)

    def install(self, patches: _Patches) -> None:
        from rdfval import checker, cli, query
        from rdfval.graph import Graph
        from rdfval.terms import BlankNode, Iri, Literal

        tracer = self
        local = self._local

        match_ids = Graph.match_ids

        def counted_match_ids(*args, **kwargs):
            counts = tracer._counts()
            counts["match_calls"] += 1
            for row in match_ids(*args, **kwargs):
                counts["match_rows"] += 1
                yield row

        patches.set(Graph, "match_ids", counted_match_ids)

        run_plan = checker.run_plan

        def counted_run_plan(*args, **kwargs):
            counts = tracer._counts()
            for row in run_plan(*args, **kwargs):
                counts["query_rows"] += 1
                yield row

        patches.set(checker, "run_plan", counted_run_plan)

        numeric_value = query.numeric_value

        def counted_numeric_value(*args, **kwargs):
            tracer._counts()["numeric_value"] += 1
            return numeric_value(*args, **kwargs)

        patches.set(query, "numeric_value", counted_numeric_value)

        read_graphs = cli._read_graphs

        def loading(*args, **kwargs):
            local.loading = True
            try:
                return read_graphs(*args, **kwargs)
            finally:
                local.loading = False

        patches.set(cli, "_read_graphs", loading)

        for cls in (Iri, Literal, BlankNode):
            post_init = cls.__post_init__

            def counted(self, _post_init=post_init):
                if getattr(local, "loading", False):
                    tracer._counts()["terms_built"] += 1
                return _post_init(self)

            patches.set(cls, "__post_init__", counted)

    def metrics(self, distinct_terms: int, violations: int) -> dict[str, float]:
        built = self.total("terms_built")
        rows = self.total("query_rows")
        return {
            "terms.built": float(built),
            "terms.built_per_distinct": built / distinct_terms if built and distinct_terms else 0.0,
            "graph.match_calls": float(self.total("match_calls")),
            "graph.match_rows": float(self.total("match_rows")),
            "query.rows": float(rows),
            "checker.rows_per_violation": rows / violations if violations else 0.0,
            "datatypes.numeric_value_calls": float(self.total("numeric_value")),
        }


def traced(pass_, args: list[str]) -> tuple[int, float]:
    """Run one command with ``pass_``'s wrappers installed."""
    patches = _Patches()
    pass_.install(patches)
    try:
        start = time.perf_counter()
        code = run_cli(args)
        return code, time.perf_counter() - start
    finally:
        patches.restore()


def plain(args: list[str]) -> tuple[int, float]:
    start = time.perf_counter()
    code = run_cli(args)
    return code, time.perf_counter() - start
