"""Behaviour fingerprint of a sweep's ``results.csv``.

    python3 perfbench/fingerprint.py perfbench/out/paper_sweep/sweep/results.csv

Prints a SHA-256 of the results rows with the ``wall_ms`` column dropped,
then the mean fairness index per algorithm. Two commits that give the
same fingerprint on the same workload and seed reported the same numbers.
It is for comparison only; no run fails on it.
"""

from __future__ import annotations

import csv
import hashlib
import sys
from collections import defaultdict


def _rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        keep = [i for i, name in enumerate(header) if name != "wall_ms"]
        yield [header[i] for i in keep]
        for row in reader:
            yield [row[i] for i in keep]


def of_file(path) -> str:
    h = hashlib.sha256()
    for row in _rows(path):
        h.update((",".join(row) + "\n").encode())
    return h.hexdigest()[:16]


def mean_fi_by_algorithm(path) -> dict[str, float]:
    rows = _rows(path)
    header = next(rows)
    algo, fi = header.index("algorithm"), header.index("fairness_index")
    values = defaultdict(list)
    for row in rows:
        values[row[algo]].append(float(row[fi]))
    return {a: sum(v) / len(v) for a, v in values.items()}


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    for path in sys.argv[1:]:
        fis = " ".join(f"{a}={v:.6f}" for a, v in mean_fi_by_algorithm(path).items())
        print(f"{path}: {of_file(path)} {fis}")
