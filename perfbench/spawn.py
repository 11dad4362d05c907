"""Start one process per request and report its launch-to-exit time and usage.

run.py keeps one of these running for the whole run and starts every timed
process through it.  On Linux, exec records the high-water RSS of the
address space it replaces into the new program's ru_maxrss, and a process
started by vfork or fork replaces its parent's.  A process started straight
from run.py, which holds reports and traces, would therefore report run.py's
peak RSS rather than its own.  This spawner stays small, below the RSS any
starcob invocation reaches, so the peak RSS reported for each child is the
child's.

Protocol: one JSON request per line on stdin, with keys `cmd`, `env`, `cwd`,
`stdout` and `stderr` (file paths); one JSON reply per line on stdout, with
keys `wall_s`, `cpu_s`, `maxrss_kb` and `rc`.  The spawner exits at end of
input.
"""
import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss, "rc": rc}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
