#!/usr/bin/env python3
"""Time the tier-1 test suite once and list its slowest tests.

    python3 bench/tier1_report.py

Runs the ROADMAP tier-1 command with pytest's --durations from the
repository root, prints one JSON report and writes it to
.bench_work/tier1.json. It only reports: the exit code is 0 whatever the
tests do, and the report carries pytest's own exit code.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
DURATION_LINE = re.compile(r"^(\d+(?:\.\d+)?)s\s+(call|setup|teardown)\s+(\S+)")
SUMMARY_LINE = re.compile(r"^=*\s*(.*\b(?:passed|failed|error).*?)\s*=*$")
DURATIONS = 15


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               f"--durations={DURATIONS}"]
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - started

    slowest, summary = [], ""
    for line in proc.stdout.splitlines():
        if match := DURATION_LINE.match(line):
            slowest.append({"seconds": float(match[1]), "phase": match[2], "test": match[3]})
        elif match := SUMMARY_LINE.match(line):
            summary = match[1]
    report = {"command": " ".join(["PYTHONPATH=src python", *command[1:]]),
              "wall_s": wall, "pytest_exit_code": proc.returncode,
              "summary": summary, "slowest": slowest}
    out = ROOT / ".bench_work"
    out.mkdir(exist_ok=True)
    (out / "tier1.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
