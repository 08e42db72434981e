"""Outcome documents and report table rendering."""
import json

import pytest

from rdfval.catalog import (
    Catalog,
    Constraint,
    FAMILIES,
    IMPLEMENTED,
    NOT_IMPLEMENTED,
    Severity,
)
from rdfval.checker import CheckOutcome
from rdfval.packs import load_pack
from rdfval.report import (
    SourceOutcomes,
    _read_json,
    cell_text,
    outcomes_document,
    parse_outcomes_document,
    render_aggregate,
    render_campaign,
    render_matrix,
    summarize_counts,
)
from rdfval.terms import Iri


def con(cid, sev=Severity.ERROR, status=IMPLEMENTED, expr=("sparql",)):
    return Constraint(
        id=cid,
        vocabulary="QB",
        family=FAMILIES["EXISTENTIAL-QUANTIFICATION"],
        params={"class": Iri("urn:ex:C"), "property": Iri("urn:ex:p")},
        severity=sev,
        status=status,
        message="{focus}",
        expressivity=frozenset(expr),
    )


CATALOG = Catalog(
    {},
    (
        con("A-1"),
        con("A-2", sev=Severity.WARNING, expr=("sparql", "cl")),
        con("A-3", status=NOT_IMPLEMENTED),
    ),
)

ALPHA = SourceOutcomes(
    "alpha",
    "qb",
    "complete",
    (
        CheckOutcome("A-1", "violated", (), 12345),
        CheckOutcome("A-2", "ok"),
        CheckOutcome("A-3", "not-implemented"),
    ),
)
BETA = SourceOutcomes(
    "beta",
    "qb",
    "partial",
    (
        CheckOutcome("A-1", "truncated", (), 100, 100),
        CheckOutcome("A-2", "engine-failure", (), 0, None, "budget"),
        CheckOutcome("A-3", "not-implemented"),
    ),
)
GAMMA = SourceOutcomes(
    "gamma",
    "qb",
    "partial",
    (
        CheckOutcome("A-1", "source-incomplete", (), 7, None, None, 2),
        CheckOutcome("A-2", "ok"),
        CheckOutcome("A-3", "not-implemented"),
    ),
)


def test_cell_text_per_status():
    assert cell_text(None, thousands=False) == "✗"
    assert cell_text(CheckOutcome("x", "ok"), thousands=False) == "✓"
    assert cell_text(CheckOutcome("x", "violated", (), 1234), thousands=False) == "1234"
    assert cell_text(CheckOutcome("x", "violated", (), 1234), thousands=True) == "1,234"
    assert cell_text(CheckOutcome("x", "truncated", (), 50, 50), thousands=False) == ">50"
    assert cell_text(CheckOutcome("x", "engine-failure"), thousands=True) == "✗"
    assert cell_text(CheckOutcome("x", "not-implemented"), thousands=True) == "(!)"
    assert (
        cell_text(CheckOutcome("x", "source-incomplete", (), 7, None, None, 1), thousands=False)
        == "(7)"
    )


def test_outcome_documents_round_trip():
    doc = outcomes_document(BETA)
    assert doc["source"] == "beta"
    assert doc["pack"] == "qb"
    assert doc["harvest-status"] == "partial"
    assert doc["outcomes"][0] == {
        "constraint-id": "A-1",
        "status": "truncated",
        "count": 100,
        "limit": 100,
        "reason": None,
        "parts-missing": None,
    }
    back = parse_outcomes_document(json.loads(json.dumps(doc)))
    assert back == BETA


def test_parse_outcomes_document_defaults_and_validation():
    doc = {
        "source": "x",
        "pack": None,
        "outcomes": [{"constraint-id": "A", "status": "ok"}],
    }
    col = parse_outcomes_document(doc)
    assert col.harvest_status == "complete"
    assert col.outcomes[0].count == 0
    with pytest.raises(ValueError):
        parse_outcomes_document(
            {"source": "x", "pack": None, "outcomes": [{"constraint-id": "A", "status": "bogus"}]}
        )


def test_malformed_outcomes_quote_a_bounded_part_of_a_huge_value(tmp_path):
    huge = ["x" * 100] * 5_000
    outcome = {"constraint-id": "A", "status": "ok"}
    path = tmp_path / "outcomes.json"
    for outcomes in ([huge], [{**outcome, "count": huge}], [{**outcome, "status": "x" * 500_000}]):
        path.write_text(json.dumps({"source": "x", "outcomes": outcomes}))
        with pytest.raises(ValueError) as err:
            _read_json(path, parse_outcomes_document)
        message = str(err.value)
        assert len(message) < 300 and message.endswith("…"), message[:400]


def test_matrix_layout():
    md = render_matrix(CATALOG, [ALPHA, BETA, GAMMA], "md")
    lines = md.splitlines()
    assert lines[0] == "| constraint | severity | alpha | beta | gamma |"
    assert lines[2] == "| A-1 | *** | 12,345 | >100 | (7) |"
    assert lines[3] == "| A-2 | ** | ✓ | ✗ | ✓ |"
    assert lines[4] == "| A-3 | *** | (!) | (!) | (!) |"

    csv = render_matrix(CATALOG, [ALPHA, BETA, GAMMA], "csv")
    rows = csv.splitlines()
    assert rows[0] == "constraint,severity,alpha,beta,gamma"
    assert rows[1] == "A-1,***,12345,>100,(7)"


def test_matrix_missing_outcomes_render_as_failures():
    slim = SourceOutcomes("slim", "qb", "complete", (CheckOutcome("A-2", "ok"),))
    csv = render_matrix(CATALOG, [slim], "csv")
    assert csv.splitlines()[1] == "A-1,***,✗"


def test_aggregate_math():
    md = render_aggregate([("QB", CATALOG, [ALPHA, BETA, GAMMA])], "md")
    lines = md.splitlines()
    assert lines[0] == "| measure | QB C | QB CV | Total C | Total CV |"
    body = {line.split(" | ")[0].strip("| "): line for line in lines[2:]}
    assert body["total"] == "| total | 2 | 12,452 | 2 | 12,452 |"
    assert body["cl %"] == "| cl % | 50.0 | 0.0 | 50.0 | 0.0 |"
    assert body["error %"] == "| error % | 50.0 | 100.0 | 50.0 | 100.0 |"
    assert body["warning %"] == "| warning % | 50.0 | 0.0 | 50.0 | 0.0 |"


def test_aggregate_total_is_an_unweighted_mean():
    other_catalog = Catalog({}, (con("B-1"),))
    other_col = SourceOutcomes(
        "delta", "skos", "complete", (CheckOutcome("B-1", "violated", (), 10),)
    )
    csv = render_aggregate(
        [("QB", CATALOG, [ALPHA, BETA, GAMMA]), ("SKOS", other_catalog, [other_col])],
        "csv",
    )
    rows = {line.split(",")[0]: line.split(",") for line in csv.splitlines()}
    assert rows["total"] == ["total", "2", "12452", "1", "10", "3", "12462"]
    # cl is half of QB's constraints and none of SKOS's: mean 25.0.
    assert rows["cl %"][5] == "25.0"
    assert rows["error %"][6] == "100.0"


def test_counts_summary_totals():
    md = summarize_counts([("QB", 2, 123456), ("SKOS", 1, 111)], "md")
    assert md.splitlines()[-1] == "| Total | 3 | 123,567 |"
    csv = summarize_counts([("QB", 2, 123456), ("SKOS", 1, 111)], "csv")
    assert csv.splitlines()[-1] == "Total,3,123567"


def write_source_dir(out, name, column, triples):
    sdir = out / name
    sdir.mkdir(parents=True)
    (sdir / "outcomes.json").write_text(
        json.dumps(outcomes_document(column)) + "\n", encoding="utf-8"
    )
    (sdir / "profile.json").write_text(
        json.dumps({"source": name, "status": column.harvest_status, "triples": triples})
        + "\n",
        encoding="utf-8",
    )


def test_render_campaign_produces_per_pack_and_summary_files(tmp_path):
    qb = load_pack("qb")
    ids = [c.id for c in qb.constraints[:2]]
    col = SourceOutcomes(
        "alpha",
        "qb",
        "complete",
        tuple(CheckOutcome(cid, "ok") for cid in ids),
    )
    write_source_dir(tmp_path, "alpha", col, 42)
    files = render_campaign(tmp_path)
    assert set(files) == {
        "qb-matrix.csv",
        "qb-matrix.md",
        "aggregate.csv",
        "aggregate.md",
        "counts.csv",
        "counts.md",
    }
    assert "alpha" in files["qb-matrix.csv"]
    assert files == render_campaign(tmp_path)
    counts = files["counts.csv"].splitlines()
    assert counts[1] == "QB,1,42"


def test_render_campaign_requires_outcome_files(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(ValueError) as err:
        render_campaign(tmp_path)
    assert "no outcomes.json" in str(err.value)
