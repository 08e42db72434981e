"""Constraint-based validation for RDF data sets.

The package parses N-Triples and a Turtle subset into immutable indexed
graphs, loads constraint catalogs from JSON, compiles each constraint to a
query plan, and reports violations per constraint.  Shipped packs cover
DDI-RDF, QB, and SKOS; the harvester drains SPARQL endpoints page by page
so whole campaigns can be validated and rendered as matrices.
"""
from .catalog import (
    Catalog,
    CatalogError,
    Constraint,
    Severity,
    classify,
    lint_catalog,
    load_catalog,
    merge_catalogs,
)
from .checker import (
    CheckOutcome,
    CompileError,
    Violation,
    ViolationReport,
    check,
    compile_constraint,
    mark_source_incomplete,
    violations_ntriples,
    violations_to_graph,
)
from .graph import Graph, GraphBuilder
from .graphio import load_graph
from .harvest import HarvestResult, Source, harvest, load_sources, profile, run_campaign
from .ntriples import ParseError, parse_ntriples, serialize_ntriples
from .packs import load_fixture, load_pack
from .query import BudgetExceeded, PlanError, evaluate
from .report import render_aggregate, render_campaign, render_matrix, summarize_counts
from .terms import BlankNode, Iri, Literal, Triple
from .turtle import parse_turtle_subset

__version__ = "0.1.0"

__all__ = [
    "BlankNode",
    "BudgetExceeded",
    "Catalog",
    "CatalogError",
    "CheckOutcome",
    "CompileError",
    "Constraint",
    "Graph",
    "GraphBuilder",
    "HarvestResult",
    "Iri",
    "Literal",
    "ParseError",
    "PlanError",
    "Severity",
    "Source",
    "Triple",
    "Violation",
    "ViolationReport",
    "__version__",
    "check",
    "classify",
    "compile_constraint",
    "evaluate",
    "harvest",
    "lint_catalog",
    "load_catalog",
    "load_fixture",
    "load_graph",
    "load_pack",
    "load_sources",
    "mark_source_incomplete",
    "merge_catalogs",
    "parse_ntriples",
    "parse_turtle_subset",
    "profile",
    "render_aggregate",
    "render_campaign",
    "render_matrix",
    "run_campaign",
    "serialize_ntriples",
    "summarize_counts",
    "violations_ntriples",
    "violations_to_graph",
]
