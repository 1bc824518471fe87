"""Run a command that must be refused.

Usage: python .github/refusal.py CODE STDERR COMMAND...

Passes when COMMAND exits with CODE, writes nothing to stdout and writes
exactly the line STDERR (with its newline) to stderr. COMMAND's stderr is
copied to this script's stderr either way, for the log. On any mismatch it
names each one on stderr and exits 1.
"""

import os
import subprocess
import sys

code, message = int(sys.argv[1]), os.fsencode(sys.argv[2]) + b"\n"
run = subprocess.run(sys.argv[3:], capture_output=True)
sys.stderr.buffer.write(run.stderr)
sys.stderr.flush()
faults = []
if run.returncode != code:
    faults.append(f"exit code {run.returncode}, expected {code}")
if run.stdout:
    faults.append(f"stdout is not empty: {run.stdout[:200]!r}")
if run.stderr != message:
    faults.append(f"stderr is {run.stderr[:400]!r}, expected {message!r}")
for fault in faults:
    print(f"refusal: {fault}", file=sys.stderr)
sys.exit(1 if faults else 0)
