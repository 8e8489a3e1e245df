"""Spawns and times child processes on behalf of run.py.

    python spawner.py      (requests on stdin, one JSON line each)

Request:  {"argv": [...], "out": PATH, "err": PATH}
Reply:    {"wall_s": float, "code": int, "rss_kb": int}

Linux carries the peak RSS of the memory image a process replaces at exec
into its own ru_maxrss, so a child spawned by the benchmark process would
report the benchmark's peak instead of its own.  This helper stays small,
so the peak RSS that os.wait4 reports is the child's.  The wall time runs
from spawn to exit.
"""

import json
import os
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["out"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["err"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reply = {"wall_s": wall, "code": os.waitstatus_to_exitcode(status), "rss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
