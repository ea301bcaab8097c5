"""Runs the benchmark's timed processes, one at a time, from a small process.

Linux carries a process's peak resident set across fork and exec, so a
process started straight from the benchmark would report the benchmark's
own peak (the interpreter, jsonschema and the outputs it keeps) as its
`ru_maxrss`.  A process started from this small launcher reports its own
peak whenever that is above the launcher's, about 15 MB.

Protocol: one JSON request per line on standard input, `{"argv": [...]}`;
one JSON reply per line on standard output with `start_s`, `wall_s`,
`cpu_s`, `maxrss_kb`, `exit_code`, `stdout` and `stderr`.  The launcher
exits at the end of its input.  A process that runs longer than the
timeout given as the first argument is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], timeout_s: float) -> dict:
    """Run one process to completion; rusage comes from wait4 on that pid."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    errors: list[bytes] = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "start_s": start,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit_code": proc.returncode,
        "stdout": out.decode(),
        "stderr": errors[0].decode(),
    }


def main() -> None:
    timeout_s = float(sys.argv[1])
    for line in sys.stdin:
        reply = run(json.loads(line)["argv"], timeout_s)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
