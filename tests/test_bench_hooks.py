"""The benchmark's tracer wraps rdfval names where callers look them up.

``perfbench/layers.py`` replaces each wrapped name through
``owner.__dict__[attr]``, so deleting or renaming one of them breaks a
traced benchmark run.  Installing both passes here catches that in the
test suite instead.
"""
from pathlib import Path

import rdfval.checker
import rdfval.cli

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
