"""Spawn benchmark jobs from a small process and report their resource use.

Usage: python3 perfbench/launcher.py  (driven by perfbench/run.py over pipes)

Each stdin line is a JSON request {"argv": [...], "stdout": PATH,
"timeout": SECONDS}; each reply on stdout is one JSON line with the job's
wall time, user plus system CPU time, ``ru_maxrss`` in KiB and exit code,
or {"timeout": true} after the job was killed for running too long.

Jobs are spawned from here rather than from run.py because Linux carries
the spawning process's peak RSS into the child's ``ru_maxrss``; this
process stays smaller than any job, so the reported peak is the job's own.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time


def run(argv: list[str], stdout_path: str, timeout: float) -> dict:
    """Run ``argv`` to completion; stdout to ``stdout_path``, stderr beside it."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.path.splitext(stdout_path)[0] + ".err", flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        # The pid stays ours until wait4 reaps it, so the kill cannot miss.
        exited, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        if not exited:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            return {"timeout": True}
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "exit_code": os.waitstatus_to_exitcode(status),
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
