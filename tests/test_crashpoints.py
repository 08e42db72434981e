"""Crash-point injection for campaign directories.

A campaign is killed just before each of its filesystem mutations in
turn: no exception handler, ``finally`` block or cleanup runs, as when the
process is killed.  The next campaign over the same directory must then
leave exactly the files a clean run leaves.  This is the process-level
method of ALICE (Pillai et al., *All File Systems Are Not Created Equal*,
OSDI 2014); a power loss, which could also lose written data, is out of
scope.
"""
import json
import os
import pathlib
import shutil
import warnings

import pytest
from click.testing import CliRunner

from mockserver import MockEndpoint
from rdfval.cli import main
from rdfval.packs import load_fixture

PAGE_SIZE = 40
CRASHED = 17


class Mutations:
    """Counts the filesystem mutations under ``root``: each ``mkdir``,
    ``unlink``, ``os.replace`` and file write.  With ``crash_at`` set, the
    process exits at once in place of mutation number ``crash_at``."""

    def __init__(self, root, crash_at=None):
        self.root = str(root)
        self.crash_at = crash_at
        self.seen = []

    def install(self, monkeypatch):
        for owner, name in ((os, "mkdir"), (os, "unlink"), (os, "replace"),
                            (pathlib.Path, "write_bytes"), (pathlib.Path, "write_text")):
            monkeypatch.setattr(owner, name, self._wrap(name, getattr(owner, name)))

    def _wrap(self, name, real):
        def mutation(path, *args, **kwargs):
            if str(path).startswith(self.root):
                if len(self.seen) == self.crash_at:
                    os._exit(CRASHED)
                self.seen.append(f"{name} {os.path.relpath(path, self.root)}")
            return real(path, *args, **kwargs)

        return mutation


def campaign(sources, out):
    result = CliRunner().invoke(
        main, ["campaign", "--sources", str(sources), "--out", str(out), "--concurrency", "1"]
    )
    assert result.exit_code == 0, result.output


def files(out):
    """Every file under ``out`` by relative path, without the temporary
    files a killed writer leaves, which every run ignores."""
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and not p.name.endswith(".tmp")
    }


@pytest.fixture
def endpoints():
    eps = [MockEndpoint(load_fixture("cube-gaps")) for _ in range(3)]
    yield eps
    for ep in eps:
        ep.close()


def test_a_campaign_killed_at_any_mutation_is_repaired_by_the_next(tmp_path, monkeypatch, endpoints):
    sources = tmp_path / "sources.json"
    sources.write_text(json.dumps([
        {"abbreviation": name, "endpoint-url": ep.url, "vocabulary": "qb",
         "page-size": PAGE_SIZE, "max-retries": 0}
        for name, ep in zip(("a", "b", "c"), endpoints)
    ]), encoding="utf-8")
    campaign(sources, tmp_path / "clean")
    clean = files(tmp_path / "clean")

    # The starting point: a run that left `a` partial, `b` complete and `c`
    # unavailable.  Every later run finds all three endpoints healthy.
    endpoints[0].fail_offsets.add(PAGE_SIZE)
    endpoints[2].fail_offsets.add(0)
    start = tmp_path / "start"
    campaign(sources, start)
    for ep in endpoints:
        ep.fail_offsets.clear()

    counted = tmp_path / "counted"
    shutil.copytree(start, counted)
    counter = Mutations(counted)
    with monkeypatch.context() as m:
        counter.install(m)
        campaign(sources, counted)
    assert files(counted) == clean
    kinds = {mutation.split()[0] for mutation in counter.seen}
    assert kinds == {"mkdir", "unlink", "write_bytes", "write_text", "replace"}, counter.seen

    for k, mutation in enumerate(counter.seen):
        out = tmp_path / f"crash-{k}"
        shutil.copytree(start, out)
        with warnings.catch_warnings():
            # The mock endpoints' threads stay in the parent; the child
            # only sends them requests.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                Mutations(out, crash_at=k).install(monkeypatch)
                campaign(sources, out)
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == CRASHED, mutation
        campaign(sources, out)
        assert files(out) == clean, f"killed before mutation {k}: {mutation}"
        shutil.rmtree(out)
