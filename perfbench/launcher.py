"""Starts the benchmark's polyadic processes and reports each one's own rusage.

run.py starts one launcher per run and sends it one JSON request per line:
{"argv": [...], "env": {...}, "stdout": PATH, "timeout": SECONDS}.  The
launcher spawns the process with stdout to PATH, waits for it with
os.wait4, and answers with one JSON line: exit code, wall seconds, CPU
seconds and peak RSS.  It ends at end of input.

Why a separate process: Linux seeds a new process's ru_maxrss with the
peak RSS of the process that spawned it (exec records the replaced memory
map's high-water mark).  run.py holds whole outputs in memory, so its
children would report its peak rather than their own.  This launcher
stays small, so a child's ru_maxrss is the child's own peak whenever that
is above about 10 MB.
"""

import json
import os
import signal
import sys
import time


def launch(request: dict) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    argv = request["argv"]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)

    def kill(*_):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # it ended just before the alarm

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, request["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall": time.perf_counter() - start,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(launch(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
