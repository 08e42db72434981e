"""Rendering of check outcomes as matrices and summary tables.

All renderers are pure text functions so a re-run over the same inputs
produces byte-identical files.  CSV output follows RFC 4180 (CRLF rows,
minimal quoting); Markdown output adds thousands separators.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

from .catalog import CLASSIFICATION_KEYS, Catalog, classify, mean, read_json, round_percentage, tally
from .checker import (
    CheckOutcome,
    ENGINE_FAILURE,
    NOT_IMPLEMENTED_STATUS,
    OK,
    SOURCE_INCOMPLETE,
    TRUNCATED,
    VIOLATED,
)
from .terms import quoted

_STATUSES = (OK, VIOLATED, TRUNCATED, ENGINE_FAILURE, NOT_IMPLEMENTED_STATUS, SOURCE_INCOMPLETE)


@dataclass(frozen=True)
class SourceOutcomes:
    """One matrix column: everything one source produced for one pack."""

    name: str
    pack: str | None
    harvest_status: str
    outcomes: tuple[CheckOutcome, ...]


def outcomes_document(column: SourceOutcomes) -> dict:
    return {
        "source": column.name,
        "pack": column.pack,
        "harvest-status": column.harvest_status,
        "outcomes": [
            {
                "constraint-id": o.constraint_id,
                "status": o.status,
                "count": o.count,
                "limit": o.limit,
                "reason": o.reason,
                "parts-missing": o.parts_missing,
            }
            for o in column.outcomes
        ],
    }


_OPTIONAL_INT = (int, type(None))
_OPTIONAL_STR = (str, type(None))


def _field(obj, key: str, types: tuple, *default):
    """``obj[key]`` of a JSON object when its type is one of ``types`` (a
    boolean is no int), or the default when the key is absent and one is
    given; a ValueError otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object, found {quoted(obj)}")
    if key not in obj:
        if default:
            return default[0]
        raise ValueError(f"field {key!r} is missing")
    if type(obj[key]) not in types:
        raise ValueError(f"field {key!r} is {quoted(obj[key])}")
    return obj[key]


def parse_outcomes_document(doc) -> SourceOutcomes:
    """The column an outcomes document records; a ValueError when a field
    is missing or has the wrong type."""
    try:
        outcomes = tuple(
            CheckOutcome(
                constraint_id=_field(o, "constraint-id", (str,)),
                status=_field(o, "status", (str,)),
                count=_field(o, "count", (int,), 0),
                limit=_field(o, "limit", _OPTIONAL_INT, None),
                reason=_field(o, "reason", _OPTIONAL_STR, None),
                parts_missing=_field(o, "parts-missing", _OPTIONAL_INT, None),
            )
            for o in _field(doc, "outcomes", (list,))
        )
        column = SourceOutcomes(
            _field(doc, "source", (str,)),
            _field(doc, "pack", _OPTIONAL_STR, None),
            _field(doc, "harvest-status", (str,), "complete"),
            outcomes,
        )
    except ValueError as exc:
        raise ValueError(f"malformed outcomes document: {exc}") from None
    for o in outcomes:
        if o.status not in _STATUSES:
            raise ValueError(f"malformed outcomes document: unknown status {quoted(o.status)}")
    return column


# ---------------------------------------------------------------------------
# Cells and tables


def _number(n: int, thousands: bool) -> str:
    return f"{n:,}" if thousands else str(n)


def cell_text(outcome: CheckOutcome | None, *, thousands: bool) -> str:
    """One matrix cell.  A constraint with no outcome at all (for example
    from an unavailable source) renders as a failure."""
    if outcome is None or outcome.status == ENGINE_FAILURE:
        return "✗"
    if outcome.status == OK:
        return "✓"
    if outcome.status == VIOLATED:
        return _number(outcome.count, thousands)
    if outcome.status == TRUNCATED:
        bound = outcome.limit if outcome.limit is not None else outcome.count
        return ">" + _number(bound, thousands)
    if outcome.status == NOT_IMPLEMENTED_STATUS:
        return "(!)"
    if outcome.status == SOURCE_INCOMPLETE:
        return f"({_number(outcome.count, thousands)})"
    raise ValueError(f"unknown outcome status {outcome.status!r}")


def _csv_table(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _table(header, rows, fmt: str) -> str:
    if fmt == "csv":
        return _csv_table(header, rows)
    if fmt == "md":
        return _md_table(header, rows)
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'md'")


def render_matrix(catalog: Catalog, columns, fmt: str = "md") -> str:
    """Constraints as rows (catalog order, with severity stars), sources as
    columns."""
    columns = list(columns)
    thousands = fmt == "md"
    header = ["constraint", "severity"] + [c.name for c in columns]
    by_column = [
        {o.constraint_id: o for o in col.outcomes} for col in columns
    ]
    rows = []
    for c in catalog:
        row = [c.id, c.severity.superscript]
        for lookup in by_column:
            row.append(cell_text(lookup.get(c.id), thousands=thousands))
        rows.append(row)
    return _table(header, rows, fmt)


# ---------------------------------------------------------------------------
# Aggregate table

_COUNTED = (VIOLATED, TRUNCATED, SOURCE_INCOMPLETE)


def _violations(catalog: Catalog, columns):
    """Each counted outcome's constraint, weighted by its count."""
    for col in columns:
        for o in col.outcomes:
            c = catalog.get(o.constraint_id)
            if o.status in _COUNTED and c is not None:
                yield c, o.count


def render_aggregate(groups, fmt: str = "md") -> str:
    """Constraint (C) and violation (CV) breakdowns per vocabulary plus an
    unweighted-mean Total pair.

    ``groups`` is an iterable of (label, catalog, columns).
    """
    thousands = fmt == "md"
    header = ["measure"]
    cs, cvs = [], []
    for label, catalog, columns in groups:
        header += [f"{label} C", f"{label} CV"]
        vocab = catalog.vocabularies()[0]
        cs.append(classify(catalog).per_vocabulary[vocab])
        cvs.append(tally(vocab, _violations(catalog, columns)))
    header += ["Total C", "Total CV"]
    breakdowns = [b for pair in zip(cs, cvs) for b in pair]
    rows = [
        ["total", *(_number(b.total, thousands) for b in breakdowns)]
        + [_number(sum(b.total for b in side), thousands) for side in (cs, cvs)]
    ]
    for key in CLASSIFICATION_KEYS:
        rows.append(
            [f"{key} %", *(b.percentage(key) for b in breakdowns)]
            + [round_percentage(mean(b.fraction(key) for b in side)) for side in (cs, cvs)]
        )
    return _table(header, rows, fmt)


def summarize_counts(rows, fmt: str = "md") -> str:
    """Sources and triples per vocabulary with a computed Total row."""
    rows = list(rows)
    thousands = fmt == "md"
    header = ["vocabulary", "sources", "triples"]
    body = [
        [label, _number(sources, thousands), _number(triples, thousands)]
        for label, sources, triples in rows
    ]
    body.append(
        [
            "Total",
            _number(sum(r[1] for r in rows), thousands),
            _number(sum(r[2] for r in rows), thousands),
        ]
    )
    return _table(header, body, fmt)


# ---------------------------------------------------------------------------
# Campaign directories


def _read_json(path: Path, parse):
    """``parse`` of a campaign JSON file; a torn or malformed file is an
    error that names it."""
    try:
        return parse(read_json(path.read_bytes(), "file"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def render_campaign(out_dir) -> dict[str, str]:
    """Render every report file for a campaign directory.

    Returns {file name: content}; the caller decides where to write.  The
    scan order is sorted, so re-rendering the same directory is
    byte-identical.
    """
    from .packs import load_pack

    out = Path(out_dir)
    if not out.is_dir():
        raise ValueError(f"{out} is not a directory")
    scanned: list[tuple[SourceOutcomes, int]] = []
    for sub in sorted(p for p in out.iterdir() if p.is_dir()):
        outcomes_path = sub / "outcomes.json"
        if not outcomes_path.exists():
            continue
        column = _read_json(outcomes_path, parse_outcomes_document)
        triples = 0
        profile_path = sub / "profile.json"
        if profile_path.exists():
            triples = _read_json(profile_path, lambda doc: _field(doc, "triples", (int,), 0))
        scanned.append((column, triples))
    if not scanned:
        raise ValueError(f"no outcomes.json found under {out}")

    grouped: dict[str, list[tuple[SourceOutcomes, int]]] = {}
    for column, triples in scanned:
        if column.pack is None:
            raise ValueError(
                f"source {column.name!r} has no pack recorded; matrices need one"
            )
        grouped.setdefault(column.pack, []).append((column, triples))

    files: dict[str, str] = {}
    aggregate_groups = []
    counts_rows = []
    for pack, members in grouped.items():
        catalog = load_pack(pack)
        vocabulary = catalog.vocabularies()[0]
        columns = [column for column, _ in members]
        for fmt in ("csv", "md"):
            files[f"{pack}-matrix.{fmt}"] = render_matrix(catalog, columns, fmt)
        aggregate_groups.append((vocabulary, catalog, columns))
        counts_rows.append(
            (vocabulary, len(members), sum(triples for _, triples in members))
        )
    for fmt in ("csv", "md"):
        files[f"aggregate.{fmt}"] = render_aggregate(aggregate_groups, fmt)
        files[f"counts.{fmt}"] = summarize_counts(counts_rows, fmt)
    return files
