"""Fixed reference work, timed next to the CLI to gauge the host's speed.

Usage: python perfbench/reference.py

A fresh interpreter imports numpy and the benchmark's own model
(``oracle.py``, never ``unital_otto``), evaluates the 16-path table and
its cumulants point by point, as the CLI's per-point loops do, and
formats the results as CSV text.  It prints the length of that text.
The work never changes, so its wall time moves only with the host; the
harness divides the CLI's wall times by it (see README.md).
"""

import oracle

POINTS = 2500


def main() -> int:
    rows = []
    for i in range(POINTS):
        d = (i % 50) / 100.0
        w, _, p = oracle.path_table(0.7, 1.0, 2.3, d, d, 0.3)
        rows.append(",".join(repr(float(x)) for x in oracle.cumulants(w, p)))
    print(len("\n".join(rows)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
