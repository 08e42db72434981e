"""End-to-end and per-layer benchmark of ``rdfval validate`` and ``rdfval campaign``.

    python3 perfbench/run.py --workload wide-perf --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it puts ``src`` (and, for the
oracles and the mock endpoint, ``tests``) on PYTHONPATH, installs nothing
and opens no connection beyond 127.0.0.1. ``--workload all`` runs every
workload in turn.

With ``--trace 0`` each command runs in its own process, one at a time (a
closed loop with one client), and the run reports the medians of
``wall_s``, ``peak_rss_mb`` and ``setup_s``; the two times are scaled by a
reference job timed next to each command (see ``Scaled``). With
``--trace 1`` the commands run inside this process with wrappers around the
layer boundaries, and the run reports the per-layer metrics of
``layers.py``.

Every command's output is checked (see ``checks.py``). The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("wide-perf", "archive-ddi", "campaign-mock")
SETUP_RUNS = 7
# Wall times are reported as if the reference job (reference.py) had taken
# this long; on the machine of the README's figures it takes 0.2 to 0.5 s.
REFERENCE_S = 0.3
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _require_checkout() -> None:
    needed = [ROOT / "src" / "rdfval" / "cli.py", ROOT / "tests" / "oracles.py",
              ROOT / "tests" / "mockserver.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: not a source checkout of rdfval, missing {', '.join(missing)}")


def _env() -> dict:
    paths = [str(ROOT / "src"), str(ROOT / "tests")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(paths + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _cpus() -> tuple[set[int] | None, set[int] | None]:
    """The CPU for the commands and reference jobs, and one for the endpoint.

    The reference job must run on the CPU the commands run on, for its time
    to say how fast that CPU is right now. With one CPU nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


COMMAND_CPU, ENDPOINT_CPU = _cpus()


def _pinned(cpus: set[int] | None):
    """A ``preexec_fn`` that keeps a child process on ``cpus``."""
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def _checked(check, *args, **kwargs) -> list[str]:
    """Run one check; output it cannot read fails the check, not the run."""
    try:
        return check(*args, **kwargs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


class Tally:
    """Operations attempted and failed, and the problems the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, problems: list[str], pages: int = 1, known_fault: bool = False) -> None:
        """Count one command, or ``pages`` pages, that the checks judged."""
        self.attempted += pages
        if problems:
            self.failed += pages
            if not known_fault:
                self.problems += problems

    def add(self, other: "Tally", log: Path | None = None) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        if other.problems:
            tail = log.read_text(errors="replace")[-2000:] if log and log.exists() else ""
            self.problems.append("; ".join(other.problems[:5]) + (f"\n{tail}" if tail else ""))


# ---------------------------------------------------------------------------
# Workloads


class Validate:
    """A ``validate`` workload: one command is one operation."""

    exit_code = 1  # violations at error severity are found

    def args(self, out: Path, setup: bool) -> list[str]:
        data = self.inputs["empty" if setup else "data"]
        return ["validate", *[a for p in data for a in ("--data", str(p))],
                *self.catalog_args, "--out", str(out)]

    def check(self, out: Path, code: int, setup: bool) -> Tally:
        import checks

        r = Tally()
        want = 0 if setup else self.exit_code
        if code != want:
            r.op([f"exit code {code}, expected {want}"])
        else:
            r.op(_checked(checks.check_clean if setup else self.check_output, out))
        return r

    def distinct_terms(self) -> int:
        return self.inputs["distinct_terms"]

    def close(self) -> None:
        pass


class WidePerf(Validate):
    name = "wide-perf"

    def prepare(self, seed: int, run_dir: Path) -> None:
        import inputs

        self.inputs = inputs.wide_inputs(WORK, seed)
        self.catalog_args = ["--catalog", str(self.inputs["catalog"])]

    def check_output(self, out: Path) -> list[str]:
        import checks

        return checks.check_wide(out, self.inputs["expected"])


class ArchiveDdi(Validate):
    name = "archive-ddi"
    catalog_args = ["--pack", "ddi-rdf"]

    def prepare(self, seed: int, run_dir: Path) -> None:
        import inputs

        self.inputs = inputs.archive_inputs(ROOT, WORK, seed)

    def check_output(self, out: Path) -> list[str]:
        import checks

        return checks.check_scaled(out, ROOT, "study-archive", self.inputs["copies"])


class CampaignMock:
    name = "campaign-mock"
    exit_code = 0

    def prepare(self, seed: int, run_dir: Path) -> None:
        import inputs

        self.inputs = inputs.campaign_inputs(ROOT, WORK, seed)
        self.served = {
            s["name"]: (self.inputs["dir"] / s["file"]).read_text(encoding="utf-8").splitlines()
            for s in self.inputs["sources"]
        }
        # One endpoint process serves a whole run; a fixed hash seed keeps
        # its dict layout, and with it its speed, the same from run to run.
        self.server = subprocess.Popen(
            [sys.executable, str(HERE / "endpoints.py"), str(self.inputs["dir"])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env={**_env(), "PYTHONHASHSEED": "0"},
            text=True,
            preexec_fn=_pinned(ENDPOINT_CPU),
        )
        hello = self.server.stdout.readline()
        if not hello:
            raise RuntimeError("the mock endpoint process did not start")
        urls = json.loads(hello)
        page_size = self.inputs["page_size"]
        self.sources_path = {}
        for setup in (False, True):
            doc = [
                {
                    "abbreviation": s["name"],
                    "endpoint-url": urls["empty"] if setup else urls["urls"][s["name"]],
                    "vocabulary": s["pack"],
                    "page-size": page_size,
                    **({"max-retries": 0} if s["nodeid"] else {}),
                }
                for s in self.inputs["sources"]
            ]
            path = run_dir / ("sources-empty.json" if setup else "sources.json")
            path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
            self.sources_path[setup] = path

    def endpoint(self, command: str):
        self.server.stdin.write(command + "\n")
        self.server.stdin.flush()
        return json.loads(self.server.stdout.readline())

    def args(self, out: Path, setup: bool) -> list[str]:
        return ["campaign", "--sources", str(self.sources_path[setup]), "--out", str(out),
                "--concurrency", "2"]

    def pages(self, source: dict, setup: bool) -> int:
        n = 0 if setup else source["triples"]
        return n // self.inputs["page_size"] + 1

    def check(self, out: Path, code: int, setup: bool) -> Tally:
        import checks

        r = Tally()
        sources = self.inputs["sources"]
        if code != self.exit_code:
            r.op([f"exit code {code}, expected {self.exit_code}"])
            for s in sources:
                r.op(["command failed"], self.pages(s, setup))
            return r
        r.op(_checked(checks.check_reports, out, sorted({s["pack"] for s in sources})))
        page_size = self.inputs["page_size"]
        for s in sources:
            sdir = out / s["name"]
            served = [] if setup else self.served[s["name"]]
            problems = _checked(checks.check_source, sdir, served, page_size)
            if not problems and not s["nodeid"]:
                problems = _checked(checks.check_scaled, sdir, ROOT, s["name"],
                                    0 if setup else s["copies"], violations=False)
            r.op(problems, self.pages(s, setup), known_fault=s["nodeid"] and not setup)
        return r

    def distinct_terms(self) -> int:
        return 0

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        try:
            server.stdin.close()
            server.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            server.kill()
            server.wait()


WORKLOAD_CLASSES = {w.name: w for w in (WidePerf, ArchiveDdi, CampaignMock)}


# ---------------------------------------------------------------------------
# Measuring


def _fresh(out: Path) -> Path:
    if out.exists():
        shutil.rmtree(out)
    return out


class Spawner:
    """Runs each command from the small ``spawn.py`` process (see there why)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=_pinned(COMMAND_CPU),
        )

    def run(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """One Python script in its own process: exit code, wall s, peak RSS MB."""
        request = {"argv": [sys.executable, *argv], "log": str(log), "env": _env()}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("the command spawner exited")
        answer = json.loads(answer)
        return answer["code"], answer["wall_s"], answer["peak_rss_mb"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Scaled:
    """Wall times of commands, each scaled to the reference speed.

    The machine's speed drifts by up to 2x over minutes, and a command's
    CPU time drifts with its wall time. The reference job runs before the
    first command and after every command. A command's scaled time is
    ``wall * REFERENCE_S / r``, with ``r`` the mean of the four reference
    times nearest to it, two before and two after (fewer at the ends of a
    block), so that the noise of one reference run counts for less.
    """

    def __init__(self, spawner: Spawner, log: Path):
        self.spawner = spawner
        self.log = log
        # The command's own log stays for the checks to quote on a failure.
        self.ref_log = log.with_name("reference.log")
        self.raw: list[float] = []
        # refs[i] runs just before raw[i], refs[i + 1] just after it.
        self.refs: list[float] = [self.reference()]

    def reference(self) -> float:
        code, _, _ = self.spawner.run([str(HERE / "reference.py")], self.ref_log)
        if code != 0:
            raise RuntimeError(f"the reference job exited with {code}")
        return float(self.ref_log.read_text().split()[-1])

    def run(self, args: list[str]) -> tuple[int, float]:
        code, wall, peak = self.spawner.run([str(HERE / "rdfval_main.py"), *args], self.log)
        self.raw.append(wall)
        self.refs.append(self.reference())
        return code, peak

    def scaled(self) -> list[float]:
        return [wall * REFERENCE_S / statistics.fmean(self.refs[max(0, i - 1):i + 3])
                for i, wall in enumerate(self.raw)]


def measure(w, seconds: float, run_dir: Path, spawner: Spawner) -> tuple[dict, Tally]:
    out = run_dir / "out"
    log = run_dir / "command.log"
    tally = Tally()
    setup_tally = Tally()
    # One untimed set-up command compiles the bytecode and fills the file cache.
    code, _, _ = spawner.run([str(HERE / "rdfval_main.py"), *w.args(_fresh(out), True)], log)
    setup_tally.add(w.check(out, code, True), log)
    started = time.perf_counter()
    setup = Scaled(spawner, log)
    for _ in range(SETUP_RUNS):
        code, _ = setup.run(w.args(_fresh(out), True))
        setup_tally.add(w.check(out, code, True), log)
    setup_block_s = time.perf_counter() - started
    walls = Scaled(spawner, log)
    rss = []
    started = time.perf_counter()
    # Start a command only if a typical one, with its reference job, still
    # fits in the window.
    while not rss or (time.perf_counter() - started) * (len(rss) + 1) / len(rss) <= seconds:
        code, peak = walls.run(w.args(_fresh(out), False))
        rss.append(peak)
        tally.add(w.check(out, code, False), log)
    _fresh(out)
    tally.problems += setup_tally.problems
    for name, s in (("commands, wall_s", walls), ("set-up commands, setup_s", setup)):
        print(f"{w.name}: {len(s.raw)} {name} scaled {json.dumps(s.scaled())}")
        print(f"{w.name}:   measured {json.dumps(s.raw)}")
        print(f"{w.name}:   reference jobs {json.dumps(s.refs)}")
    print(f"{w.name}: set-up block took {setup_block_s:.1f} s, measured median wall_s "
          f"{statistics.median(walls.raw):.4f} s, reference median {statistics.median(walls.refs):.4f} s")
    metrics = {
        "wall_s": statistics.median(walls.scaled()),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup.scaled()),
    }
    return metrics, tally


def measure_traced(w, seconds: float, run_dir: Path) -> tuple[dict, Tally]:
    import layers

    out = run_dir / "out"
    tally = Tally()
    campaign = isinstance(w, CampaignMock)
    # Imports and first-call costs are not what the traced rounds measure.
    layers.run_cli(w.args(_fresh(out), True))
    plains, span_rounds, count_rounds, report_bytes = [], [], [], []
    span_times, count_times, serve_ms = [], [], []
    spans_out = []
    started = time.perf_counter()
    cycle = 0.0
    while not count_rounds or time.perf_counter() - started + cycle <= seconds:
        cycle_start = time.perf_counter()
        code, wall = layers.plain(w.args(_fresh(out), False))
        plains.append(wall)
        report_bytes.append(sum(p.stat().st_size for p in out.rglob("*") if p.is_file()))
        tally.add(w.check(out, code, False))

        if campaign:
            w.endpoint("reset")
        spans = layers.SpanPass()
        code, wall = layers.traced(spans, w.args(_fresh(out), False))
        span_times.append(wall)
        span_rounds.append(spans.metrics())
        spans_out = spans.span_records()
        if campaign:
            serve_ms.append(statistics.median(w.endpoint("stats")["serve_ms"]))
        tally.add(w.check(out, code, False))

        counts = layers.CountPass()
        code, wall = layers.traced(counts, w.args(_fresh(out), False))
        count_times.append(wall)
        count_rounds.append(counts.metrics(w.distinct_terms(), int(span_rounds[-1]["checker.violations"])))
        tally.add(w.check(out, code, False))
        cycle = time.perf_counter() - cycle_start
    _fresh(out)
    (run_dir.parent / f"{w.name}-spans.json").write_text(json.dumps(spans_out), encoding="utf-8")

    metrics = {}
    for rounds in (span_rounds, count_rounds):
        for key in rounds[0]:
            metrics[key] = statistics.median(r[key] for r in rounds)
    metrics["report.bytes"] = statistics.median(report_bytes)
    metrics["endpoint.serve_ms.p50"] = statistics.median(serve_ms) if serve_ms else 0.0
    metrics["trace.plain_s"] = statistics.median(plains)
    metrics["trace.spans_s"] = statistics.median(span_times)
    metrics["trace.counts_s"] = statistics.median(count_times)
    return metrics, tally


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 spawner: Spawner | None) -> dict:
    import layers

    run_dir = WORK / "runs" / f"{name}-{os.getpid()}"
    _fresh(run_dir).mkdir(parents=True)
    w = WORKLOAD_CLASSES[name]()
    try:
        w.prepare(seed, run_dir)
        if traced:
            values, tally = measure_traced(w, seconds, run_dir)
            units = layers.LAYER_METRICS
        else:
            values, tally = measure(w, seconds, run_dir, spawner)
            units = END_TO_END
    finally:
        w.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in tally.problems:
        print(f"{name}: check failed: {problem}", file=sys.stderr)
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    _require_checkout()
    # Started before this process grows; see spawn.py.
    spawner = None if opts.trace else Spawner()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    names = WORKLOADS if opts.workload == "all" else (opts.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                name, opts.seed, opts.seconds, bool(opts.trace), spawner)
    finally:
        if spawner is not None:
            spawner.close()
    for name in names:
        for metric, m in results[name]["metrics"].items():
            print(f"{name:14} {metric:48} {m['value']:14.6g} {m['unit']}")
        r = results[name]
        print(f"{name:14} operations: {r['attempted']} attempted, {r['failed']} failed, "
              f"correct={r['correct']}")
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
