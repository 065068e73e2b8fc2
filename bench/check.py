"""The benchmark's output check.

A run fails if the CLI exits non-zero, if a gate row of its CSV has
``satisfied = 0``, or if a ``value`` or ``stderr`` cell differs from the
reference recorded for that (workload, CLI seed) by more than
``REL_TOL * |reference| + ABS_TOL``.  The tolerance admits round-off
changes in the last digits, such as a closed form replacing a quadrature;
it does not admit a changed estimate.  Rows the reference does not know
are allowed, but their gates must pass too.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, List, Tuple

REL_TOL = 1e-9
ABS_TOL = 1e-12


def read_rows(path: Path) -> List[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _key(row: dict) -> Tuple[str, str, str]:
    return (row["metric"], row["n"], row["T"])


def reference_rows(rows: List[dict]) -> List[List[str]]:
    """The cells of a CSV that the check compares: key, value and stderr."""
    return [[r["metric"], r["n"], r["T"], r["value"], r["stderr"]] for r in rows]


def load_references(path: Path) -> Dict[str, Dict[str, List[List[str]]]]:
    with open(path) as fh:
        return json.load(fh)["workloads"]


def _cell_matches(got: str, want: str) -> bool:
    if got == want:
        return True
    if got == "" or want == "":
        return False
    g, w = float(got), float(want)
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return abs(g - w) <= REL_TOL * abs(w) + ABS_TOL


def check_run(cli_exit: int, csv_file: Path, reference) -> List[str]:
    """Problems found in one run's outputs; an empty list means it passed."""
    if cli_exit != 0:
        return [f"the CLI exited with code {cli_exit}"]
    if not csv_file.is_file():
        return [f"no CSV at {csv_file}"]
    rows = read_rows(csv_file)
    problems = [f"gate {r['metric']} (n={r['n']}) is not satisfied"
                for r in rows if r["satisfied"] == "0"]
    if reference is None:
        return problems + ["no reference recorded for this workload and seed"]
    got = {_key(r): r for r in rows}
    for metric, n, T, value, stderr in reference:
        row = got.get((metric, n, T))
        if row is None:
            problems.append(f"row {metric} (n={n}, T={T}) is missing")
            continue
        for cell, want in (("value", value), ("stderr", stderr)):
            if not _cell_matches(row[cell], want):
                problems.append(f"{metric} (n={n}, T={T}) {cell} is {row[cell]!r}, "
                                f"reference {want!r}")
    return problems
