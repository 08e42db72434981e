"""Command line behavior via click's test runner."""
import gzip
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import rdfval.checker
import rdfval.packs
from mockserver import MockEndpoint
from rdfval.catalog import CatalogError, load_catalog
from rdfval.checker import CheckOutcome, check, violations_ntriples
from rdfval.cli import _read_graphs, main
from rdfval.graph import GraphBuilder
from rdfval.graphio import load_graph
from rdfval.ntriples import parse_ntriples
from rdfval.packs import load_pack
from rdfval.report import SourceOutcomes, outcomes_document
from rdfval.terms import Iri, Literal, RDF_TYPE

RDF_TYPE_NT = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"


def entry(cid, severity="error", status="implemented", params=None, message="{focus} lacks {property}"):
    return {
        "id": cid,
        "vocabulary": "user-defined",
        "family": "EXISTENTIAL-QUANTIFICATION",
        "severity": severity,
        "status": status,
        "params": params or {"class": "urn:ex:C", "property": "urn:ex:p"},
        "message": message,
    }


def write_catalog(path, *entries):
    path.write_text(
        json.dumps({"prefixes": {}, "constraints": list(entries)}), encoding="utf-8"
    )
    return str(path)


def write_nt(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


# Beyond any JSON parser's nesting limit (RFC 8259, section 9).
NESTED = "[" * 100_000 + "]" * 100_000

VIOLATING = [f"<urn:ex:a> {RDF_TYPE_NT} <urn:ex:C> ."]
CLEAN = VIOLATING + ['<urn:ex:a> <urn:ex:p> "x" .']


def test_validate_clean_data_exits_zero(tmp_path):
    cat = write_catalog(tmp_path / "cat.json", entry("V-1"))
    data = write_nt(tmp_path / "data.nt", CLEAN)
    result = CliRunner().invoke(main, ["validate", "--data", data, "--catalog", cat])
    assert result.exit_code == 0
    assert result.output == (
        "1 constraints checked: 1 ok, 0 violated, 0 truncated, 0 failed, 0 not implemented\n"
    )


def test_validate_reports_violations_and_exits_one(tmp_path):
    cat = write_catalog(tmp_path / "cat.json", entry("V-1"))
    data = write_nt(tmp_path / "data.nt", VIOLATING)
    result = CliRunner().invoke(main, ["validate", "--data", data, "--catalog", cat])
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert lines[0] == "V-1  violated  1"
    assert lines[1] == (
        "1 constraints checked: 0 ok, 1 violated, 0 truncated, 0 failed, 0 not implemented"
    )
    assert lines[2] == "1 constraint(s) at or above error violated"


def test_fail_on_threshold(tmp_path):
    cat = write_catalog(tmp_path / "cat.json", entry("V-1", severity="warning"))
    data = write_nt(tmp_path / "data.nt", VIOLATING)
    runner = CliRunner()
    soft = runner.invoke(main, ["validate", "--data", data, "--catalog", cat])
    assert soft.exit_code == 0
    assert "V-1  violated  1" in soft.output
    hard = runner.invoke(
        main, ["validate", "--data", data, "--catalog", cat, "--fail-on", "warning"]
    )
    assert hard.exit_code == 1


def test_engine_failures_never_fail_the_run(tmp_path):
    cat = write_catalog(tmp_path / "cat.json", entry("V-1"))
    data = write_nt(tmp_path / "data.nt", VIOLATING)
    result = CliRunner().invoke(
        main,
        ["validate", "--data", data, "--catalog", cat, "--budget", "0", "--fail-on", "info"],
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "V-1  engine-failure  (budget)"
    assert "1 failed" in lines[1]


@pytest.mark.parametrize(
    "option, value, command",
    [
        *(
            (option, value, command)
            for option, value in (("--limit", "-1"), ("--budget", "-1"), ("--budget", "nan"))
            for command in ("validate", "campaign")
        ),
        ("--timeout", "nan", "campaign"),
        ("--timeout", "inf", "campaign"),
    ],
)
def test_negative_limit_or_budget_is_a_usage_error(tmp_path, command, option, value):
    if command == "validate":
        cat = write_catalog(tmp_path / "cat.json", entry("V-1"))
        args = ["validate", "--data", write_nt(tmp_path / "data.nt", VIOLATING), "--catalog", cat]
    else:
        sources = tmp_path / "sources.json"
        sources.write_text("[]", encoding="utf-8")
        args = ["campaign", "--sources", str(sources), "--out", str(tmp_path / "out")]
    result = CliRunner().invoke(main, [*args, option, value])
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.output
    assert not (tmp_path / "out").exists()


def test_validate_requires_exactly_one_catalog_source(tmp_path):
    cat = write_catalog(tmp_path / "cat.json", entry("V-1"))
    data = write_nt(tmp_path / "data.nt", CLEAN)
    runner = CliRunner()
    neither = runner.invoke(main, ["validate", "--data", data])
    assert neither.exit_code == 2
    assert "exactly one of --catalog or --pack" in neither.stderr
    both = runner.invoke(
        main, ["validate", "--data", data, "--catalog", cat, "--pack", "qb"]
    )
    assert both.exit_code == 2


def test_validate_merges_files_with_scoped_blank_nodes(tmp_path):
    cat = write_catalog(tmp_path / "cat.json", entry("V-1"))
    one = write_nt(tmp_path / "one.nt", [f"_:n {RDF_TYPE_NT} <urn:ex:C> ."])
    two = write_nt(tmp_path / "two.nt", [f"_:n {RDF_TYPE_NT} <urn:ex:C> ."])
    result = CliRunner().invoke(
        main, ["validate", "--data", one, "--data", two, "--catalog", cat]
    )
    assert result.exit_code == 1
    assert result.output.splitlines()[0] == "V-1  violated  2"


def test_validate_read_error_names_the_second_file(tmp_path):
    cat = write_catalog(tmp_path / "cat.json", entry("V-1"))
    one = write_nt(tmp_path / "one.nt", CLEAN)
    two = tmp_path / "two.ttl"
    two.write_text("@prefix ex: <urn:ex:> .\nex:s ex:p ex:o\n", encoding="utf-8")
    result = CliRunner().invoke(main, ["validate", "--data", one, "--data", str(two), "--catalog", cat])
    assert result.exit_code == 2
    assert result.stderr == f"error: {two}: line 3, column 1: expected '.'\n"


@pytest.mark.parametrize(
    "name, damage, reason",
    [
        ("truncated.nt.gz", lambda gz: gz[:-12], "damaged gzip data: "),
        ("corrupt.nt.gz", lambda gz: gz[:10] + b"\xff" * 8 + gz[18:], "damaged gzip data: "),
        ("plain.nt.gz", lambda gz: gzip.decompress(gz), "damaged gzip data: "),
        ("data.rdf", lambda gz: gzip.decompress(gz), "cannot infer RDF format from file name: data.rdf"),
    ],
    ids=["truncated-gzip", "corrupt-gzip", "not-gzip", "unknown-extension"],
)
def test_validate_unreadable_data_file_is_an_error_naming_it(tmp_path, name, damage, reason):
    cat = write_catalog(tmp_path / "cat.json", entry("V-1"))
    data = tmp_path / name
    data.write_bytes(damage(gzip.compress("".join(line + "\n" for line in CLEAN).encode("utf-8"))))
    result = CliRunner().invoke(main, ["validate", "--data", str(data), "--catalog", cat])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {data}: {reason}"), result.stderr
    assert "Traceback" not in result.stderr


def test_validate_reads_turtle_nested_past_the_recursion_limit(tmp_path):
    depth = 10_000
    data = tmp_path / "deep.ttl"
    data.write_text(
        "@prefix ex: <urn:ex:> .\nex:a a ex:C ; ex:q " + "[ ex:q " * depth + '"x"' + " ]" * depth + " .\n",
        encoding="utf-8",
    )
    cat = write_catalog(tmp_path / "cat.json", entry("V-1"))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["validate", "--data", str(data), "--catalog", cat, "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert result.output.splitlines()[0] == "V-1  violated  1"


def test_validate_writes_report_files(tmp_path):
    cat = write_catalog(tmp_path / "cat.json", entry("V-1"))
    data = write_nt(tmp_path / "survey-a.nt", VIOLATING)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["validate", "--data", data, "--catalog", cat, "--out", str(out)]
    )
    assert result.exit_code == 1
    assert f"report written to {out}" in result.output

    doc = json.loads((out / "outcomes.json").read_text(encoding="utf-8"))
    assert doc["source"] == "survey-a"
    assert doc["pack"] is None
    assert doc["harvest-status"] == "local"
    assert doc["outcomes"][0]["status"] == "violated"

    matrix = (out / "matrix.csv").read_text(encoding="utf-8").splitlines()
    assert matrix[0] == "constraint,severity,survey-a"
    assert matrix[1] == "V-1,***,1"
    assert (out / "matrix.md").exists()

    report = parse_ntriples((out / "violations.nt").read_bytes())
    assert report.count(None, Iri("urn:rdfval:report#root"), None) == 1


def test_validate_streams_the_report_the_checker_renders(tmp_path):
    # 1,350 violations over three constraints and two severities.
    cat = write_catalog(
        tmp_path / "cat.json",
        entry("V-1"),
        entry("V-2", severity="warning", params={"class": "urn:ex:D", "property": "urn:ex:q"}),
        entry("V-3", params={"class": "urn:ex:C", "property": "urn:ex:r"}),
    )
    data = write_nt(
        tmp_path / "data.nt",
        [f"<urn:ex:n{i}> {RDF_TYPE_NT} <urn:ex:{c}> ." for i in range(450) for c in "CD"],
    )
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["validate", "--data", data, "--catalog", cat, "--out", str(out)]
    )
    assert result.exit_code == 1, result.output
    with open(cat, "rb") as f:
        outcomes = check(load_graph(data), load_catalog(f))
    assert sum(o.count for o in outcomes) == 1350
    assert (out / "violations.nt").read_bytes() == violations_ntriples(outcomes)


def archive_pair(tmp_path):
    """The study-archive fixture split into a gzipped N-Triples file and a
    Turtle file, each with a blank node of the first typed node's class, so
    that the merge scopes them as f0.b0 and f1.b0."""
    fixture = Path(rdfval.packs.__file__).parent / "data" / "fixtures" / "study-archive.nt"
    lines = fixture.read_text(encoding="utf-8").splitlines()
    typed = next(line for line in lines if f" {RDF_TYPE_NT} " in line)
    blank = "_:n " + typed.split(" ", 1)[1]
    nt, ttl = tmp_path / "a.nt.gz", tmp_path / "b.ttl"
    nt.write_bytes(gzip.compress("".join(line + "\n" for line in [*lines[::2], blank]).encode("utf-8")))
    ttl.write_text("".join(line + "\n" for line in [*lines[1::2], blank]), encoding="utf-8")
    return str(nt), str(ttl)


def test_validate_writes_the_report_of_a_merged_pair(tmp_path):
    pair = archive_pair(tmp_path)
    out = tmp_path / "out"
    args = ["validate", "--data", pair[0], "--data", pair[1], "--pack", "ddi-rdf", "--out", str(out)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1, result.output
    outcomes = check(_read_graphs(pair), load_pack("ddi-rdf"))
    assert sum(o.count for o in outcomes) > 100
    report = (out / "violations.nt").read_text(encoding="utf-8")
    assert "> _:f0.b0 ." in report and "> _:f1.b0 ." in report
    assert (out / "violations.nt").read_bytes() == violations_ntriples(outcomes)


def test_validate_without_out_builds_no_violation_and_renders_no_text(tmp_path, monkeypatch):
    pair = archive_pair(tmp_path)
    args = ["validate", "--data", pair[0], "--data", pair[1], "--pack", "ddi-rdf"]
    written = CliRunner().invoke(main, [*args, "--out", str(tmp_path / "out")])
    calls = []
    for name in ("Violation", "term_text", "_display"):
        original = getattr(rdfval.checker, name)
        monkeypatch.setattr(
            rdfval.checker, name, lambda *a, _name=name, _original=original: calls.append(_name) or _original(*a)
        )
    result = CliRunner().invoke(main, args)
    assert calls == []
    assert result.exit_code == written.exit_code == 1
    # The same standard output as with --out, but for the line naming it.
    assert result.output.splitlines() == [
        line for line in written.output.splitlines() if not line.startswith("report written to ")
    ]
    # The counters see what they count: the same run with --out renders.
    CliRunner().invoke(main, [*args, "--out", str(tmp_path / "again")])
    assert "term_text" in calls and "Violation" not in calls


def test_validate_with_shipped_pack(tmp_path):
    data = write_nt(tmp_path / "data.nt", CLEAN)
    result = CliRunner().invoke(main, ["validate", "--data", data, "--pack", "qb"])
    assert result.exit_code in (0, 1)
    assert "20 constraints checked:" in result.output


def test_packs_listing():
    result = CliRunner().invoke(main, ["packs"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "ddi-rdf: DDI-RDF, 78 constraints (142 listed)",
        "qb: QB, 20 constraints (35 listed)",
        "skos: SKOS, 17 constraints (35 listed)",
    ]


def test_packs_export_contains_only_implemented():
    result = CliRunner().invoke(main, ["packs", "--export", "qb"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert set(doc) == {"prefixes", "constraints"}
    assert len(doc["constraints"]) == 20
    assert all(c.get("status", "implemented") == "implemented" for c in doc["constraints"])


def test_lint_shipped_pack():
    result = CliRunner().invoke(main, ["lint", "--pack", "qb"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[-1] == "15 finding(s)"
    assert all(": not-implemented: " in line for line in lines[:-1])


@pytest.mark.parametrize("command", ["validate", "lint", "campaign"])
def test_a_nested_input_document_exits_two_and_is_named(tmp_path, command):
    doc = tmp_path / "doc.json"
    doc.write_text(NESTED, encoding="utf-8")
    if command == "campaign":
        args = ["campaign", "--sources", str(doc), "--out", str(tmp_path / "out")]
        named = "error: sources file is not valid JSON: "
    else:
        args = [command, "--catalog", str(doc)]
        if command == "validate":
            args += ["--data", write_nt(tmp_path / "data.nt", CLEAN)]
        named = "<catalog>: catalog is not valid JSON: "
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert named in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "constraint, marker, replacement",
    [
        # json.dumps writes the lone surrogate as the escape \ud800.
        (entry("\ud800"), None, None),
        (
            {**entry("V-1"), "family": "MIN-UNQUALIFIED-CARDINALITY",
             "params": {"class": "urn:ex:C", "property": "urn:ex:p", "bound": "BOUND"}},
            '"BOUND"',
            "9" * 5_001,
        ),
    ],
    ids=["lone-surrogate-id", "5001-digit-bound"],
)
def test_a_catalog_past_the_json_limits_is_a_named_catalog_problem(tmp_path, constraint, marker, replacement):
    text = json.dumps({"prefixes": {}, "constraints": [constraint]})
    if marker is not None:
        text = text.replace(marker, replacement)
    with pytest.raises(CatalogError, match="<catalog>: catalog is not valid JSON: "):
        load_catalog(text)
    cat = tmp_path / "cat.json"
    cat.write_text(text, encoding="utf-8")
    data = write_nt(tmp_path / "data.nt", CLEAN)
    result = CliRunner().invoke(main, ["validate", "--data", data, "--catalog", str(cat)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: 1 catalog problem(s)\n<catalog>: catalog is not valid JSON: ")


def test_an_internal_error_exits_two_with_its_traceback(tmp_path, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("rdfval.cli.check", crash)
    cat = write_catalog(tmp_path / "cat.json", entry("V-1"))
    data = write_nt(tmp_path / "data.nt", VIOLATING)
    result = CliRunner().invoke(main, ["validate", "--data", data, "--catalog", cat])
    assert result.exit_code == 2
    assert result.stderr.startswith("Traceback (most recent call last):")
    assert result.stderr.rstrip().endswith("RuntimeError: boom")


def test_lint_catalog_file(tmp_path):
    cat = write_catalog(tmp_path / "cat.json", entry("L-1", status="not-implemented"))
    result = CliRunner().invoke(main, ["lint", "--catalog", cat])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0].startswith("L-1: not-implemented:")
    assert lines[-1] == "1 finding(s)"


def seed_campaign_dir(out, name="alpha"):
    qb = load_pack("qb")
    column = SourceOutcomes(
        name,
        "qb",
        "complete",
        tuple(CheckOutcome(c.id, "ok") for c in qb.constraints[:3]),
    )
    sdir = out / name
    sdir.mkdir(parents=True)
    (sdir / "outcomes.json").write_text(
        json.dumps(outcomes_document(column)), encoding="utf-8"
    )
    (sdir / "profile.json").write_text(
        json.dumps({"source": name, "status": "complete", "triples": 9}), encoding="utf-8"
    )


def test_report_rebuilds_campaign_tables(tmp_path):
    seed_campaign_dir(tmp_path)
    result = CliRunner().invoke(main, ["report", "--from", str(tmp_path)])
    assert result.exit_code == 0
    names = result.output.splitlines()
    assert names == sorted(names)
    assert set(names) == {
        "qb-matrix.csv",
        "qb-matrix.md",
        "aggregate.csv",
        "aggregate.md",
        "counts.csv",
        "counts.md",
    }
    for name in names:
        assert (tmp_path / name).exists()


def test_report_needs_outcome_files(tmp_path):
    result = CliRunner().invoke(main, ["report", "--from", str(tmp_path)])
    assert result.exit_code == 2
    assert "error: no outcomes.json" in result.stderr


def test_report_names_a_torn_outcomes_file(tmp_path):
    seed_campaign_dir(tmp_path)
    torn = tmp_path / "alpha" / "outcomes.json"
    outcomes = json.loads(torn.read_text(encoding="utf-8"))
    torn.write_bytes(torn.read_bytes()[:20])
    result = CliRunner().invoke(main, ["report", "--from", str(tmp_path)])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {torn}: ")
    # JSON that parses but holds the wrong types is named the same way.
    outcomes["outcomes"][0].update(status="violated", count="5")
    cases = [("profile.json", [1, 2]), ("profile.json", {"triples": "12"}), ("outcomes.json", outcomes)]
    # So is a file nested too deeply to parse.
    texts = [(name, json.dumps(doc)) for name, doc in cases]
    texts += [("outcomes.json", NESTED), ("profile.json", NESTED)]
    for i, (name, text) in enumerate(texts):
        out = tmp_path / f"case-{i}"
        seed_campaign_dir(out)
        malformed = out / "alpha" / name
        malformed.write_text(text, encoding="utf-8")
        result = CliRunner().invoke(main, ["report", "--from", str(out)])
        assert result.exit_code == 2, (name, text[:40])
        assert result.stderr.startswith(f"error: {malformed}: "), result.stderr


def endpoint_graph():
    b = GraphBuilder()
    b.add(Iri("urn:ex:s1"), RDF_TYPE, Iri("urn:ex:C"))
    b.add(Iri("urn:ex:s1"), Iri("urn:ex:p"), Literal("v"))
    return b.freeze()


def test_campaign_end_to_end(tmp_path):
    out = tmp_path / "out"
    with MockEndpoint(endpoint_graph()) as ep:
        sources = tmp_path / "sources.json"
        sources.write_text(
            json.dumps(
                [{"abbreviation": "alpha", "endpoint-url": ep.url, "vocabulary": "qb"}]
            ),
            encoding="utf-8",
        )
        result = CliRunner().invoke(
            main, ["campaign", "--sources", str(sources), "--out", str(out)]
        )
    assert result.exit_code == 0
    assert f"reports written to {out}" in result.output
    assert (out / "alpha" / "data.nt.gz").exists()
    assert (out / "alpha" / "outcomes.json").exists()
    for name in ("qb-matrix.md", "aggregate.csv", "counts.md"):
        assert (out / name).exists()


def test_harvest_command_skips_checking(tmp_path):
    out = tmp_path / "out"
    with MockEndpoint(endpoint_graph()) as ep:
        sources = tmp_path / "sources.json"
        sources.write_text(
            json.dumps([{"abbreviation": "alpha", "endpoint-url": ep.url}]),
            encoding="utf-8",
        )
        result = CliRunner().invoke(
            main, ["harvest", "--sources", str(sources), "--out", str(out)]
        )
    assert result.exit_code == 0
    assert (out / "alpha" / "data.nt.gz").exists()
    assert (out / "alpha" / "profile.json").exists()
    assert not (out / "alpha" / "outcomes.json").exists()


def test_version():
    result = CliRunner().invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "version" in result.output


def test_color_toggle(tmp_path):
    cat = write_catalog(tmp_path / "cat.json", entry("V-1"))
    data = write_nt(tmp_path / "data.nt", VIOLATING)
    runner = CliRunner()
    colored = runner.invoke(
        main, ["validate", "--data", data, "--catalog", cat], color=True
    )
    assert "\x1b[" in colored.output
    plain = runner.invoke(
        main,
        ["validate", "--data", data, "--catalog", cat],
        color=True,
        env={"RDFVAL_NO_COLOR": "1"},
    )
    assert "\x1b[" not in plain.output
