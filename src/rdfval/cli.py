"""Command line interface.

Exit codes: 0 on success, 1 when validation found violations at or above
the --fail-on severity, 2 on operational and internal errors.  Engine
failures are reported but never turn the exit code to 1 on their own.
"""
from __future__ import annotations

import dataclasses
import functools
import gc
import json
import math
import os
import sys
import traceback
from pathlib import Path

import click

from . import __version__
from .catalog import Catalog, Severity, lint_catalog, load_catalog
from .checker import (
    DEFAULT_BUDGET,
    DEFAULT_LIMIT,
    ENGINE_FAILURE,
    NOT_IMPLEMENTED_STATUS,
    OK,
    SOURCE_INCOMPLETE,
    TRUNCATED,
    VIOLATED,
    ViolationReport,
    check,
)
from .graph import Graph, GraphBuilder
from .graphio import load_graph
from .harvest import load_sources, run_campaign, write_atomic, write_json
# Not called here: perfbench/layers.py wraps these two names on this module.
from .checker import violations_to_graph  # noqa: F401
from .ntriples import serialize_ntriples  # noqa: F401
from .packs import PACKS, load_pack, pack_text
from .report import (
    SourceOutcomes,
    cell_text,
    outcomes_document,
    render_campaign,
    render_matrix,
)


def _color_enabled() -> bool:
    return not os.environ.get("RDFVAL_NO_COLOR")


def _styled(text: str, fg: str | None) -> str:
    if fg is None or not _color_enabled():
        return text
    return click.style(text, fg=fg)


_STATUS_COLORS = {
    OK: "green",
    VIOLATED: "red",
    TRUNCATED: "red",
    ENGINE_FAILURE: "magenta",
    NOT_IMPLEMENTED_STATUS: None,
    SOURCE_INCOMPLETE: "yellow",
}


def _reject_nan(ctx: click.Context, param: click.Parameter, value: float | None) -> float | None:
    # FloatRange lets NaN through: a NaN deadline never passes, and a NaN
    # timeout fails the first request outside the HTTP stack's errors.
    if value is not None and math.isnan(value):
        raise click.BadParameter("nan is not a number of seconds")
    return value


def _operational_errors(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
        except click.ClickException:
            raise
        except Exception:  # an internal error: no verdict on the data
            traceback.print_exc()
        sys.exit(2)

    return wrapper


def _load_selected_catalog(catalog_path: str | None, pack: str | None) -> tuple[Catalog, str | None]:
    if (catalog_path is None) == (pack is None):
        raise click.UsageError("exactly one of --catalog or --pack is required")
    if pack is not None:
        return load_pack(pack), pack
    with open(catalog_path, "rb") as f:
        return load_catalog(f), None


def _read_graphs(paths: tuple[str, ...]) -> Graph:
    """Every ``--data`` file read into one graph, frozen once. With several
    files, blank labels are scoped per file as ``f<i>.``; a file that cannot
    be read is an error naming it."""
    builder = GraphBuilder()
    for i, path in enumerate(paths):
        try:
            load_graph(path, into=builder, blank_prefix=f"f{i}." if len(paths) > 1 else "")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return builder.freeze(name="data")


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Validate RDF data sets against constraint catalogs."""
    # Whatever import made lives as long as the command: frozen, it is left
    # out of every later garbage collection.  Once per process.
    if gc.get_freeze_count() == 0:
        gc.freeze()


@main.command()
@click.option(
    "--data",
    "data_paths",
    multiple=True,
    required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="N-Triples (.nt) or Turtle (.ttl) file, optionally gzipped (.gz); repeat to merge files.",
)
@click.option("--catalog", "catalog_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--pack", type=click.Choice(PACKS))
@click.option(
    "--limit",
    default=DEFAULT_LIMIT,
    show_default=True,
    type=click.IntRange(min=0),
    help="Violations kept per constraint.",
)
@click.option(
    "--budget",
    default=DEFAULT_BUDGET,
    show_default=True,
    type=click.FloatRange(min=0),
    callback=_reject_nan,
    help="Seconds per constraint.",
)
@click.option(
    "--fail-on",
    type=click.Choice(["info", "warning", "error"]),
    default="error",
    show_default=True,
    help="Lowest severity whose violations fail the run.",
)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), help="Write report files here.")
@_operational_errors
def validate(data_paths, catalog_path, pack, limit, budget, fail_on, out_dir) -> None:
    """Check local data against a catalog."""
    catalog, pack_name = _load_selected_catalog(catalog_path, pack)
    graph = _read_graphs(data_paths)
    # Without --out nothing is rendered, so no violation is kept.
    report = ViolationReport(graph) if out_dir else False
    outcomes = check(graph, catalog, limit=limit, budget=budget, records=report)

    tallies = {status: 0 for status in _STATUS_COLORS}
    for o in outcomes:
        tallies[o.status] += 1
        if o.status == OK:
            continue
        line = f"{o.constraint_id}  {_styled(o.status, _STATUS_COLORS[o.status])}"
        if o.status in (VIOLATED, TRUNCATED, SOURCE_INCOMPLETE):
            line += f"  {cell_text(o, thousands=True)}"
        if o.reason:
            line += f"  ({o.reason})"
        click.echo(line)
    implemented = len(outcomes) - tallies[NOT_IMPLEMENTED_STATUS]
    click.echo(
        f"{implemented} constraints checked: {tallies[OK]} ok, "
        f"{tallies[VIOLATED]} violated, {tallies[TRUNCATED]} truncated, "
        f"{tallies[ENGINE_FAILURE]} failed, "
        f"{tallies[NOT_IMPLEMENTED_STATUS]} not implemented"
    )

    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        column = SourceOutcomes(Path(data_paths[0]).stem, pack_name, "local", tuple(outcomes))
        write_json(out / "outcomes.json", outcomes_document(column))
        write_atomic(out / "violations.nt", report.chunks())
        for fmt in ("csv", "md"):
            write_atomic(out / f"matrix.{fmt}", render_matrix(catalog, [column], fmt))
        click.echo(f"report written to {out}")

    threshold = Severity.parse(fail_on)
    failing = sum(
        1
        for o in outcomes
        if o.status in (VIOLATED, TRUNCATED, SOURCE_INCOMPLETE)
        and catalog.get(o.constraint_id).severity >= threshold
    )
    if failing:
        click.echo(
            _styled(f"{failing} constraint(s) at or above {fail_on} violated", "red")
        )
        sys.exit(1)


def _campaign_options(f):
    options = [
        click.option(
            "--sources",
            "sources_path",
            required=True,
            type=click.Path(exists=True, dir_okay=False),
            help="JSON array of sources.",
        ),
        click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False)),
        click.option("--page-size", type=click.IntRange(min=1), help="Override every source's page size."),
        click.option(
            "--timeout",
            type=click.FloatRange(min=0, max=math.inf, min_open=True, max_open=True),
            callback=_reject_nan,
            help="Override every source's timeout.",
        ),
        click.option("--concurrency", default=4, show_default=True, type=click.IntRange(min=1)),
    ]
    for option in reversed(options):
        f = option(f)
    return f


def _load_and_override(sources_path, page_size, timeout):
    with open(sources_path, "rb") as f:
        sources = load_sources(f)
    if page_size is not None:
        sources = [dataclasses.replace(s, page_size=page_size) for s in sources]
    if timeout is not None:
        sources = [dataclasses.replace(s, timeout=timeout) for s in sources]
    return sources


@main.command()
@_campaign_options
@_operational_errors
def harvest(sources_path, out_dir, page_size, timeout, concurrency) -> None:
    """Download sources page by page without checking them."""
    sources = _load_and_override(sources_path, page_size, timeout)
    run_campaign(
        sources,
        out_dir,
        concurrency=concurrency,
        do_check=False,
        log=click.echo,
    )


@main.command()
@_campaign_options
@click.option("--limit", default=DEFAULT_LIMIT, show_default=True, type=click.IntRange(min=0))
@click.option(
    "--budget", default=DEFAULT_BUDGET, show_default=True, type=click.FloatRange(min=0), callback=_reject_nan
)
@_operational_errors
def campaign(sources_path, out_dir, page_size, timeout, concurrency, limit, budget) -> None:
    """Harvest every source, check it against its pack, and write reports."""
    sources = _load_and_override(sources_path, page_size, timeout)
    run_campaign(
        sources,
        out_dir,
        limit=limit,
        budget=budget,
        concurrency=concurrency,
        log=click.echo,
    )
    for name, content in sorted(render_campaign(out_dir).items()):
        write_atomic(Path(out_dir) / name, content)
    click.echo(f"reports written to {out_dir}")


@main.command()
@click.option(
    "--from",
    "campaign_dir",
    required=True,
    type=click.Path(exists=True, file_okay=False),
    help="Campaign directory to re-render.",
)
@_operational_errors
def report(campaign_dir) -> None:
    """Rebuild the report files for an existing campaign directory."""
    for name, content in sorted(render_campaign(campaign_dir).items()):
        write_atomic(Path(campaign_dir) / name, content)
        click.echo(name)


@main.command()
@click.option("--export", "export_name", type=click.Choice(PACKS))
@_operational_errors
def packs(export_name) -> None:
    """List the shipped packs, or export one as catalog JSON."""
    if export_name is None:
        for name in PACKS:
            catalog = load_pack(name)
            click.echo(
                f"{name}: {catalog.vocabularies()[0]}, "
                f"{len(catalog.implemented())} constraints "
                f"({len(catalog)} listed)"
            )
        return
    doc = json.loads(pack_text(export_name))
    doc["constraints"] = [
        c for c in doc["constraints"] if c.get("status", "implemented") == "implemented"
    ]
    click.echo(json.dumps(doc, indent=2))


@main.command()
@click.option("--catalog", "catalog_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--pack", type=click.Choice(PACKS))
@_operational_errors
def lint(catalog_path, pack) -> None:
    """Report advisory findings for a catalog."""
    catalog, _ = _load_selected_catalog(catalog_path, pack)
    findings = lint_catalog(catalog)
    for finding in findings:
        where = finding.constraint_id or "<catalog>"
        click.echo(f"{where}: {finding.kind}: {finding.detail}")
    click.echo(f"{len(findings)} finding(s)")


if __name__ == "__main__":
    main(prog_name="rdfval")
