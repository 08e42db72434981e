"""What a validating process loads and builds: no HTTP stack (and a
campaign needs no HTTP library beyond the standard one), lookups that
agree with a brute-force scan, an OSP index built on first use, no
pipeline compiled past an outermost scan that can match nothing, result
rows of raw ids rather than Term dicts, outcome records without a
per-instance dict, and a violation report that is never held whole."""
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import rdfval
from rdfval.catalog import Catalog, Constraint, FAMILIES, IMPLEMENTED, Severity
from rdfval.checker import ViolationReport, check, compile_constraint
from rdfval.graph import Graph, GraphBuilder
from rdfval.harvest import write_atomic
from rdfval.packs import FIXTURES, PACKS, load_fixture, load_pack
from rdfval.query import _Compiler, run_plan
from rdfval.terms import BlankNode, Iri, Literal, RDF_TYPE, XSD_INTEGER
from test_golden import CAMPAIGN_GOLDEN

SRC = Path(rdfval.__file__).resolve().parents[1]
FIXTURE_DIR = SRC / "rdfval" / "packs" / "data" / "fixtures"


def _python(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )


HTTP_STACK = ("requests", "urllib.request", "http.client")
BLOCK_HTTP_STACK = "".join(f"sys.modules[{name!r}] = None; " for name in HTTP_STACK)


def test_importing_the_package_and_cli_leaves_out_the_http_stack():
    result = _python(f"import sys, rdfval, rdfval.cli; print([m for m in {HTTP_STACK!r} if m in sys.modules])")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_validate_runs_without_the_http_stack(tmp_path):
    run_cli = "import sys; {block}from rdfval.cli import main; main()"
    args = ["validate", "--data", str(FIXTURE_DIR / "study-archive.nt"), "--pack", "ddi-rdf", "--out"]
    plain = _python(run_cli.format(block=""), *args, str(tmp_path / "plain"))
    blocked = _python(run_cli.format(block=BLOCK_HTTP_STACK), *args, str(tmp_path / "blocked"))
    assert plain.returncode == 1, plain.stderr
    assert blocked.returncode == plain.returncode, blocked.stderr
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "blocked").iterdir())
    assert "outcomes.json" in names and "violations.nt" in names
    for name in names:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "blocked" / name).read_bytes(), name


def test_a_campaign_runs_without_requests(tmp_path):
    # The fixture campaign of test_golden, with requests made unimportable.
    code = (
        "import sys, json; sys.modules['requests'] = None; sys.path.insert(0, sys.argv[1]); "
        "from pathlib import Path; from test_golden import campaign_digests; "
        "print(json.dumps(campaign_digests(Path(sys.argv[2]))))"
    )
    result = _python(code, str(Path(__file__).parent), str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    digests = json.loads(result.stdout.splitlines()[-1])
    stored = {k: v for k, v in CAMPAIGN_GOLDEN.items() if k.endswith(("/data.nt.gz", "/outcomes.json"))}
    assert len(stored) == 8
    assert {k: digests.get(k) for k in stored} == stored


def _spo(triples) -> list[tuple]:
    return [(t.subject, t.predicate, t.object) for t in triples]


def _random_triples(rng: random.Random) -> list[tuple]:
    nodes = [Iri(f"urn:ex:n{i}") for i in range(rng.randint(1, 12))] + [BlankNode("b0")]
    props = [Iri(f"urn:ex:p{i}") for i in range(rng.randint(1, 4))]
    objects = nodes + [Literal("x"), Literal("y", language="en")]
    return [(rng.choice(nodes), rng.choice(props), rng.choice(objects)) for _ in range(rng.randint(0, 60))]


def _agrees_with_brute_force(triples: list[tuple], rng: random.Random) -> None:
    b = GraphBuilder()
    for t in triples:
        b.add(*t)
    g = b.freeze()
    distinct = set(triples)
    absent = Iri("urn:ex:absent")
    columns = [sorted({t[i] for t in distinct}, key=repr) + [absent] for i in range(3)]
    probes = rng.sample(sorted(distinct, key=repr), min(4, len(distinct)))
    probes += [tuple(rng.choice(column) for column in columns) for _ in range(4)]
    for probe in probes:
        for shape in itertools.product((False, True), repeat=3):
            s, p, o = (v if bound else None for v, bound in zip(probe, shape))
            expected = {t for t in distinct if all(q is None or q == v for q, v in zip((s, p, o), t))}
            got = _spo(g.match(s, p, o))
            assert len(got) == len(expected) and set(got) == expected, (s, p, o)
            assert g.count(s, p, o) == len(expected), (s, p, o)
            ids = [None if t is None else g.term_id(t) for t in (s, p, o)]
            if None in (ids[i] for i in range(3) if shape[i]):
                continue
            # values reads each position of the rows of match_ids, in order.
            rows = list(g.match_ids(*ids))
            assert [tuple(map(g.term, row)) for row in rows] == got, (s, p, o)
            for pos in range(3):
                assert list(g.values(*ids, pos)) == [row[pos] for row in rows], (s, p, o, pos)


def test_match_and_count_agree_with_brute_force():
    rng = random.Random(21)
    for _ in range(80):
        _agrees_with_brute_force(_random_triples(rng), rng)


@pytest.mark.parametrize("n", [200, 300, 70_000])
def test_ids_of_every_width_read_back(n):
    # Past 256 and 65,536 distinct terms, ids take two and three bytes.
    nodes = [Iri(f"urn:ex:n{i}") for i in range(n)]
    props = [Iri(f"urn:ex:p{k}") for k in range(3)]
    triples = {(nodes[i], props[i % 3], nodes[(i * 7919 + 3) % n]) for i in range(0, n, 2)}
    b = GraphBuilder()
    for t in sorted(triples, key=repr):
        b.add(*t)
    g = b.freeze()
    assert set(_spo(g)) == triples
    assert set(_spo(g.match(None, props[1], None))) == {t for t in triples if t[1] == props[1]}
    rows = sorted(tuple(map(g.term_id, t)) for t in triples)
    assert list(g.match_ids(None, None, None)) == rows
    s, p, o = rows[-1]
    assert list(g.values(s, None, None, 2)) == [row[2] for row in rows if row[0] == s]
    assert list(g.values(None, p, o, 0)) == sorted(row[0] for row in rows if row[1:] == (p, o))


def test_values_cannot_change_the_graph():
    rng = random.Random(4)
    b = GraphBuilder()
    for t in _random_triples(rng) + [(Iri("urn:ex:n0"), Iri("urn:ex:p0"), Literal("x"))]:
        b.add(*t)
    g = b.freeze()
    before = list(g.match_ids(None, None, None))
    s, p, o = before[0]
    for key in ((None, None, None), (s, None, None), (None, p, None), (None, None, o), (s, p, None)):
        for pos in range(3):
            got = g.values(*key, pos)
            try:
                got[0] = got[0] + 1
            except TypeError:
                pass
    assert list(g.match_ids(None, None, None)) == before


def test_a_graph_holds_at_most_two_to_the_32_terms():
    class Many(list):
        def __len__(self):
            return (1 << 32) + 1

    with pytest.raises(ValueError, match=r"2\*\*32 distinct terms"):
        Graph(Many(), {}, [])


def test_racing_first_object_lookups_all_see_the_whole_index():
    b = GraphBuilder()
    nodes = [Iri(f"urn:ex:n{i}") for i in range(500)]
    p = Iri("urn:ex:p")
    rng = random.Random(5)
    triples = {(rng.choice(nodes), Iri(f"urn:ex:p{rng.randrange(4)}"), rng.choice(nodes)) for _ in range(30000)}
    for t in triples:
        b.add(*t)
    b.add(nodes[0], p, nodes[1])
    g = b.freeze()
    target = nodes[1]
    expected = {t for t in triples if t[2] == target} | {(nodes[0], p, target)}
    barrier = threading.Barrier(6)
    results: list = []

    def lookup(i: int) -> None:
        barrier.wait()
        if i % 2:
            results.append(g.count(None, None, target))
        else:
            results.append(set(_spo(g.match(None, None, target))))

    threads = [threading.Thread(target=lookup, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results.count(len(expected)) == 3
    assert results.count(expected) == 3
    assert g._osp is not None
    assert set(_spo(g.match(nodes[0], None, target))) == {t for t in expected if t[0] == nodes[0]}


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_checking_never_builds_the_object_index(fixture):
    g = load_fixture(fixture)
    for pack in PACKS:
        check(g, load_pack(pack))
    assert g._osp is None


def test_no_stage_is_compiled_behind_a_scan_that_matches_nothing(monkeypatch):
    compiled: list[str] = []

    def refuse(name):
        def compile_step(self, *args):
            compiled.append(name)
            raise AssertionError(f"{name} compiled over an empty graph")

        return compile_step

    monkeypatch.setattr(_Compiler, "nested", refuse("nested"))
    monkeypatch.setattr(_Compiler, "filter", refuse("filter"))
    g = GraphBuilder().freeze()
    for pack in PACKS:
        outcomes = check(g, load_pack(pack))
        assert {o.status for o in outcomes} <= {"ok", "not-implemented"}, pack
    assert compiled == []


def test_run_plan_rows_are_tuples_of_ids_and_count_literals():
    kinds = set()
    for fixture, pack in FIXTURES.items():
        g = load_fixture(fixture)
        for c in load_pack(pack).implemented():
            built = compile_constraint(c)
            for row in run_plan(g, built):
                assert type(row) is tuple and len(row) == len(built.columns), c.id
                for x in row:
                    # None is a column the row's pipeline does not bind.
                    if type(x) is Literal:
                        assert x.datatype == XSD_INTEGER, (c.id, x)
                    else:
                        assert x is None or type(x) is int, (c.id, x)
                    kinds.add(type(x))
    assert {int, Literal, type(None)} <= kinds


def test_outcome_and_violation_records_have_no_instance_dict():
    outcomes = check(load_fixture("study-archive"), load_pack("ddi-rdf"))
    violations = [v for o in outcomes for v in o.violations]
    assert violations
    for record in [*outcomes, *violations]:
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_writing_the_violation_report_never_holds_it_whole(tmp_path):
    # As validate --out writes it: 4,000 foci, each missing two properties,
    # make 8,000 violations with 2,000-character messages.
    b = GraphBuilder()
    for i in range(4_000):
        b.add(Iri(f"urn:ex:n{i}"), RDF_TYPE, Iri("urn:ex:C"))
    g = b.freeze()
    catalog = Catalog({}, tuple(
        Constraint(
            id=cid,
            vocabulary="user-defined",
            family=FAMILIES["EXISTENTIAL-QUANTIFICATION"],
            params={"class": Iri("urn:ex:C"), "property": Iri(f"urn:ex:{p}")},
            severity=severity,
            status=IMPLEMENTED,
            message="m" * 2_000,
            expressivity=frozenset(("sparql",)),
        )
        for cid, p, severity in (("T-1", "p", Severity.ERROR), ("T-2", "q", Severity.WARNING))
    ))
    path = tmp_path / "violations.nt"
    tracemalloc.start()
    try:
        report = ViolationReport(g)
        outcomes = check(g, catalog, limit=None, records=report)
        write_atomic(path, report.chunks())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(o.count for o in outcomes) == 8_000
    size = path.stat().st_size
    assert size >= 16_000_000
    assert peak < size / 2, (peak, size)
