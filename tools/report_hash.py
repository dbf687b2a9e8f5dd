"""SHA-256 of the 2700 benchmark reports, to check a change moves no output byte.

Runs ``bench/families.py`` seeds 1-5, seed-major, the sextic-wide pool and
then the quartic-lines pool of each seed, through parse, ``analyze`` and the
JSON serializer, and prints one hex digest of the concatenated reports with
their count.  Run it from the repository root (``make report-hash``): it exits
1, printing both digests, when the reports no longer hash to ``EXPECTED``.  A
change that is meant to move report bytes updates ``EXPECTED`` with them.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from cy_smoother.catalog import load_catalog  # noqa: E402
from cy_smoother.schemas import dump_json, parse_degeneration, report_to_dict  # noqa: E402
from cy_smoother.smoothing import analyze  # noqa: E402
from families import GENERATORS  # noqa: E402

EXPECTED = "c21687db5a38f8187791f50c4232dda0daa723fc771dd4e3ed89da62147c443d"
SEEDS = range(1, 6)
FAMILIES = ("sextic-wide", "quartic-lines")


def reports():
    """The JSON text of each bench report, in the hashed order."""
    catalog = load_catalog()
    for seed in SEEDS:
        for family in FAMILIES:
            for case in GENERATORS[family](seed):
                yield dump_json(report_to_dict(analyze(parse_degeneration(case.doc, catalog))))


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    for report in reports():
        digest.update(report.encode())
        count += 1
    print("%s  %d reports" % (digest.hexdigest(), count))
    if digest.hexdigest() != EXPECTED:
        print("report hash mismatch: expected %s, got %s" % (EXPECTED, digest.hexdigest()),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
