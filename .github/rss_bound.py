"""Run a command under a bound on its max RSS.

Usage: python .github/rss_bound.py MB COMMAND...

Exits with COMMAND's exit code, or with 99 when COMMAND's max RSS reached
MB megabytes, after writing that RSS to stderr. It writes nothing of its
own otherwise, so a caller can check COMMAND's stderr exactly.
"""

import resource
import subprocess
import sys

bound = float(sys.argv[1])
status = subprocess.call(sys.argv[2:])
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
if rss >= bound:
    print(f"max RSS {rss:.0f} MB, bound {bound:.0f} MB", file=sys.stderr)
    status = 99
sys.exit(status)
