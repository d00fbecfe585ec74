"""Run one tm2net CLI operation in a fresh interpreter and report on it.

Usage: python3 bench/child.py SRC_DIR ARGV_JSON

Imports ``tm2net.cli`` from SRC_DIR, calls ``main(argv)`` once and prints
one JSON line: the exit code, the process's peak resident set size and
the operation's captured stdout.  A fresh process per operation keeps
each peak the operation's own.
The peak is the kernel's VmHWM, which exec resets; ``ru_maxrss`` is not
used because Linux carries it over from the forking parent.
"""

import contextlib
import io
import json
import sys


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    src, argv = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    from tm2net import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    print(json.dumps({"rc": rc, "peak_kb": peak_rss_kb(), "stdout": out.getvalue()}))


if __name__ == "__main__":
    main()
