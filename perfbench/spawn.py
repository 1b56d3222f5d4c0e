"""Run one command; write its wall time, exit code and peak RSS as JSON.

    python3 -I -S perfbench/spawn.py RESULT_FILE ARGV...

On Linux a process's ru_maxrss also counts the peak of the address space it
replaced on exec, which for a spawned child is its parent's.  The benchmark
holds numpy, its inputs and its calibration arrays, so it starts every timed
process through this small interpreter: the peak RSS it reports is then the
command's own, as long as the command needs more than this launcher does
(about 10 MB).  The command inherits the launcher's standard streams,
environment and working directory.
"""

import json
import os
import sys
import time


def main():
    result_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "code": os.waitstatus_to_exitcode(status),
                   "rss_mb": usage.ru_maxrss / 1024.0}, fh)


if __name__ == "__main__":
    main()
