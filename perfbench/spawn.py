"""Run one command and report what it cost.

    python3 -S -I perfbench/spawn.py FD -- ARGV...

run.py starts every measured process through this launcher.  The child's
stdout and stderr are the launcher's own.  After the child exits, the
launcher writes one line to FD:

    <wall seconds> <user+sys seconds> <ru_maxrss in KiB> <exit code>

Why a launcher: Linux carries the memory of the process that forks a
child into the child's ru_maxrss.  Forked from run.py (about 20 MB), every
op smaller than run.py would read as run.py's size.  This process imports
nothing beyond os, sys and time and stays near 9 MB, below any lzero run.
"""

import os
import sys
import time


def main() -> int:
    fd = int(sys.argv[1])
    argv = sys.argv[3:]
    os.set_inheritable(fd, False)
    t0 = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _pid, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    report = (f"{wall!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss} "
              f"{os.waitstatus_to_exitcode(status)}\n")
    os.write(fd, report.encode("ascii"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
