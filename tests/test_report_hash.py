"""tools/report_hash.py: the 2700 bench reports still hash to the pinned digest."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_reports_hash_to_the_pinned_digest():
    proc = subprocess.run([sys.executable, "tools/report_hash.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("  2700 reports\n"), proc.stdout
