"""Run the vlgmatch command line from this checkout and report peak memory.

Usage: python3 perfbench/vlgcli.py <vlgmatch arguments>

Behaves as the ``vlgmatch`` console script (``vlgmatch.cli.main``) with the
checkout's ``src/`` on the import path, so nothing needs installing.  At
exit it appends one line, ``perfbench-vmhwm-kb <n>``, to stderr: this
process's own peak resident set size, ``VmHWM`` from /proc/self/status.
The parent's ``ru_maxrss`` for a child is not used, because on Linux it
carries the forking parent's high-water mark across exec.
"""

import os
import sys

MARKER = "perfbench-vmhwm-kb"


def peak_rss_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from vlgmatch.cli import main
    try:
        main()
    finally:
        print(f"{MARKER} {peak_rss_kb()}", file=sys.stderr)
