"""Compare a CSV report with a pinned one; exit 1 and print the first difference.

Usage: python tests/compare_reports.py GOT.csv WANT.csv

Rows match when every column but ``runtime_ms`` and ``value`` is equal and
``value`` is equal as text or within 1e-9 relative as a float. Standard
library only, so it runs before the package's test dependencies exist.
"""

import csv
import math
import sys


def _text(row):
    return [v for k, v in row.items() if k not in ("runtime_ms", "value")]


def _same(got, want):
    if _text(got) != _text(want):
        return False
    return got["value"] == want["value"] or math.isclose(
        float(got["value"]), float(want["value"]), rel_tol=1e-9)


def first_difference(got_path, want_path):
    """A message naming the first row that differs, or None when the reports match."""
    with open(got_path, newline="") as g, open(want_path, newline="") as w:
        got, want = list(csv.DictReader(g)), list(csv.DictReader(w))
    for k, (a, b) in enumerate(zip(got, want), 1):
        if not _same(a, b):
            return f"row {k} differs:\n  got:  {dict(a)}\n  want: {dict(b)}"
    if len(got) != len(want):
        return f"{len(got)} rows, want {len(want)}"
    return None


def main(argv):
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    message = first_difference(*argv)
    if message is not None:
        print(f"{argv[0]} does not match {argv[1]}: {message}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
