"""Runs commands for run.py and reports their wall time and peak RSS.

    python3 perfbench/spawn.py

reads one JSON request per line on stdin, ``{"argv": [...], "log": path,
"env": {...}}``, runs the command with its output sent to ``log``, and
answers ``{"code": n, "wall_s": x, "peak_rss_mb": y}`` on stdout.

Linux folds the parent's resident size at fork into the child's
``ru_maxrss``. This process stays small, so the figure it reports is the
command's own peak, whatever the benchmark process holds in memory.
"""
import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], stdout=sink, stderr=subprocess.STDOUT, env=request["env"]
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        answer = {"code": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}
        print(json.dumps(answer), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
