"""Start the benchmark's subprocesses from a small interpreter.

A child's peak resident set (``ru_maxrss``) includes the memory of the
process it was forked from, because the count carries over ``exec``.
Forked from the benchmark itself, every child would report at least the
benchmark's own size; forked from this process (no colorlie, no
workload data), a child reports what the program itself used.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path, "timeout": s}``;
one JSON reply per line on stdout, ``{"wall": s, "cpu": s, "code": n, "maxrss_kib": n}``,
where ``cpu`` is the child's user plus system time, its own pool workers included.
The process ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def serve(requests, replies) -> None:
    for line in requests:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"],
                                    env=req["env"])
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        replies.write(json.dumps({"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                                  "code": proc.returncode, "maxrss_kib": usage.ru_maxrss}) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
