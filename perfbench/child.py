"""Run the unital-otto CLI once; report its set-up time and peak memory.

Usage: python child.py FD [CLI ARGS...]  or  python child.py FD --setup-only

Behaves like the ``unital-otto`` console script, and writes two lines to
file descriptor FD.  The first, written when ``cli.build_parser()``
returns, is ``time.perf_counter()`` (the system-wide monotonic clock);
the parent takes the launch time from the same clock, so the difference
is the set-up time: interpreter start, imports and parser construction.
The second, written after ``cli.main`` returns, is the peak resident set
(VmHWM, kB) of this process image.  ``ru_maxrss`` from wait4 is not used
because Linux carries the parent's peak over into an exec'd child.
"""

import os
import sys
import time

from unital_otto import cli

_build_parser = cli.build_parser


def _stamped_build_parser():
    parser = _build_parser()
    os.write(STAMP_FD, repr(time.perf_counter()).encode() + b"\n")
    return parser


def _peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


if __name__ == "__main__":
    STAMP_FD = int(sys.argv[1])
    cli.build_parser = _stamped_build_parser
    if sys.argv[2:] == ["--setup-only"]:
        cli.build_parser()
        sys.exit(0)
    code = cli.main(sys.argv[2:])
    os.write(STAMP_FD, f"{_peak_rss_kb()}\n".encode())
    sys.exit(code)
