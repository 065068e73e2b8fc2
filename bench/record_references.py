"""Record the output-check references: the value and stderr cells of every
workload's CSV for each CLI seed 0 .. REFERENCE_SEEDS - 1.

    PYTHONPATH=src python3 bench/record_references.py

Run it only to define the benchmark anew; the references describe the
outputs of the code they were recorded from, and every later run is
checked against them.  Gate failures are recorded as they are and listed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from sgdlab.harness import cli

from check import read_rows, reference_rows
from workloads import REFERENCE_SEEDS, REFERENCES, ROOT, WORKLOADS, cli_argv, csv_path


def main() -> int:
    out = ROOT / ".bench_work" / "record"
    table = {}
    try:
        for name, workload in WORKLOADS.items():
            table[name] = {}
            for seed in range(REFERENCE_SEEDS):
                code = cli.main(cli_argv(workload, seed, out))
                rows = read_rows(csv_path(workload, out))
                failed = [r["metric"] for r in rows if r["satisfied"] == "0"]
                if code != 0 or failed:
                    print(f"{name} seed {seed}: exit {code}, failed gates {failed}")
                table[name][str(seed)] = reference_rows(rows)
                print(f"{name} seed {seed}: {len(rows)} rows", flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    write_references(commit, table)
    return 0


def write_references(commit: str, table: dict) -> None:
    """Write the table with one CSV row per line, so that diffs stay readable."""
    lines = ["{", f' "recorded_from": {json.dumps(commit)},', ' "workloads": {']
    for i, (name, seeds) in enumerate(table.items()):
        lines.append(f"  {json.dumps(name)}: {{")
        for j, (seed, rows) in enumerate(seeds.items()):
            lines.append(f"   {json.dumps(seed)}: [")
            lines += [f"    {json.dumps(r)}" + ("," if k + 1 < len(rows) else "")
                      for k, r in enumerate(rows)]
            lines.append("   ]" + ("," if j + 1 < len(seeds) else ""))
        lines.append("  }" + ("," if i + 1 < len(table) else ""))
    lines += [" }", "}", ""]
    REFERENCES.write_text("\n".join(lines))


if __name__ == "__main__":
    sys.exit(main())
