"""A fixed job that measures how fast the machine runs Python right now.

    python3 perfbench/reference.py

prints one number: the job's time in seconds, not counting the start-up
of the interpreter. run.py runs it in its own process between the timed
rdfval commands and scales each command's wall time by it (see
``run.Scaled``). The job does what a loader and an
index do in pure Python (regex matching, interning into dicts, building
small objects, sorting and joining strings) on fixed input, and imports
nothing from rdfval, so no change to the program moves it. Changing it
changes every ``wall_s`` and ``setup_s`` the benchmark reports.
"""
import re
import time

LINES = 60_000
LINE = re.compile(r'<([^>]*)> <([^>]*)> (?:<([^>]*)>|"([^"]*)") \.')


class Row:
    __slots__ = ("s", "p", "o")

    def __init__(self, s, p, o):
        self.s, self.p, self.o = s, p, o


def job(n: int) -> int:
    lines = [f'<http://ex.org/e{i % 977}/{i}> <http://ex.org/p{i % 13}> "{i * 7 % 1000}" .'
             for i in range(n)]
    ids: dict[str, int] = {}
    rows = []
    for line in lines:
        m = LINE.match(line)
        rows.append(Row(ids.setdefault(m.group(1), len(ids)), ids.setdefault(m.group(2), len(ids)),
                        ids.setdefault(m.group(4), len(ids))))
    rows.sort(key=lambda r: (r.p, r.o, r.s))
    index: dict[tuple[int, int], list[int]] = {}
    for r in rows:
        index.setdefault((r.p, r.o), []).append(r.s)
    return len("\n".join(f"{p} {o} {len(s)}" for (p, o), s in index.items()))


def main() -> None:
    start = time.perf_counter()
    job(LINES)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
