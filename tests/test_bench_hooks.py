"""The benchmark's tracer wraps rdfval names where callers look them up.

``perfbench/layers.py`` replaces each wrapped name through
``owner.__dict__[attr]``, so deleting or renaming one of them breaks a
traced benchmark run.  Installing both passes here catches that in the
test suite instead.
"""
from pathlib import Path

import rdfval.checker
import rdfval.cli
import rdfval.packs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_bench_tracer_installs_and_restores_every_wrapper(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    originals = (rdfval.cli.load_graph, rdfval.checker.run_plan)
    p = layers._Patches()
    try:
        layers.SpanPass().install(p)
        layers.CountPass().install(p)
        assert rdfval.cli.load_graph is not originals[0]
        assert rdfval.checker.run_plan is not originals[1]
    finally:
        p.restore()
    assert (rdfval.cli.load_graph, rdfval.checker.run_plan) == originals


def test_bench_counters_see_the_engine(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    graph, catalog = rdfval.packs.load_fixture("cube-gaps"), rdfval.packs.load_pack("qb")
    counts = layers.CountPass()
    p = layers._Patches()
    try:
        counts.install(p)
        rdfval.checker.check(graph, catalog)
    finally:
        p.restore()
    for name in ("query_rows", "numeric_value"):
        assert counts.total(name) > 0, name
    # The tracer counts index reads by wrapping Graph.match_ids, but the
    # engine reads ids through Graph.values, so graph.match_calls and
    # graph.match_rows read 0 on a check until the counters are hooked on
    # Graph.values or move into the package (ROADMAP item 1).
    assert counts.total("match_calls") == counts.total("match_rows") == 0


def test_bench_tracer_sees_every_load(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    fixture = Path(rdfval.packs.__file__).parent / "data" / "fixtures" / "thesaurus.nt"
    lines = fixture.read_text(encoding="utf-8").splitlines()
    pair = (tmp_path / "a.nt", tmp_path / "b.ttl")
    pair[0].write_text("\n".join(lines[::2]) + "\n", encoding="utf-8")
    pair[1].write_text("\n".join(lines[1::2]) + "\n", encoding="utf-8")

    for paths, parse_spans in (((fixture,), {"ntriples.parse"}),
                               (pair, {"ntriples.parse", "turtle.parse"})):
        tracer = layers.SpanPass()
        p = layers._Patches()
        try:
            tracer.install(p)
            graph = rdfval.cli._read_graphs(tuple(str(x) for x in paths))
        finally:
            p.restore()
        names = {span[0] for span in tracer.spans}
        assert {"graphio.load", "graph.freeze"} | parse_spans <= names
        metrics = tracer.metrics()
        assert metrics["graph.freeze_s"] > 0
        # One freeze, whatever the number of files.
        assert metrics["graph.triples"] == len(graph)


def test_bench_tracer_times_the_check_of_validate(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    fixture = Path(rdfval.packs.__file__).parent / "data" / "fixtures" / "study-archive.nt"
    out = tmp_path / "out"
    tracer = layers.SpanPass()
    code, _ = layers.traced(tracer, ["validate", "--data", str(fixture), "--pack", "ddi-rdf", "--out", str(out)])
    assert code == 1
    assert {"checker.check", "checker.compile", "report.render"} <= {span[0] for span in tracer.spans}
    metrics = tracer.metrics()
    assert metrics["checker.check_s"] > 0
    assert (out / "violations.nt").stat().st_size > 0
    # validate keeps its violations as graph ids and renders violations.nt
    # from them, so the outcomes that the tracer counts hold no records.
    assert metrics["checker.violations"] == 0
