"""Output checks for one job, run in the job's working directory.

``structure`` checks what must hold for any seed: every output exists,
CSVs have the schema's 69 columns and one row per input row, and the
chosen k lies inside the configured k_range. ``mismatches`` compares
output digests with the expected ones.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from workloads import CSV_COLUMNS


def _csv_rows(path: str, columns: int | None) -> tuple[int, list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    problems = []
    if not rows:
        return 0, [f"{path}: empty"]
    if columns is not None:
        widths = {len(r) for r in rows}
        if widths != {columns}:
            problems.append(f"{path}: row widths {sorted(widths)}, expected {columns}")
    return len(rows) - 1, problems


def structure(spec: dict) -> list[str]:
    missing = [p for p in spec["outputs"] if not Path(p).is_file()]
    if missing:
        return [f"missing outputs {missing}"]
    rows = spec["rows"]
    table = "features.csv" if spec["command"] == "extract" else "reports/feature_matrix.csv"
    n, problems = _csv_rows(table, CSV_COLUMNS)
    if n != rows:
        problems.append(f"{table}: {n} rows, expected {rows}")
    if spec["command"] == "analyze":
        n, more = _csv_rows("reports/pc_scores.csv", None)
        problems += more
        if n != rows:
            problems.append(f"pc_scores.csv: {n} rows, expected {rows}")
        n, more = _csv_rows("reports/silhouette_sweep.csv", 2)
        problems += more
        if n != len(spec["k_values"]):
            problems.append(f"silhouette_sweep.csv: {n} rows, expected "
                            f"{len(spec['k_values'])}")
        report = json.loads(Path("reports/cluster_report.json").read_text(encoding="utf-8"))
        if report.get("chosen_k") not in spec["k_values"]:
            problems.append(f"chosen_k {report.get('chosen_k')} outside k_range")
    return problems


def mismatches(digests: dict[str, str], expected: dict[str, str]) -> list[str]:
    return [f"{name}: digest differs from the expected output"
            for name in sorted(set(digests) | set(expected))
            if digests.get(name) != expected.get(name)]
