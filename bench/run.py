"""Benchmark sgdlab end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
its ``src`` directory, nothing needs installing.  An invocation lasts about
S seconds.  It first starts SETUP_PROCS fresh processes that only import
``sgdlab.harness``, to time set-up, and then one measuring process
(`child.py`) that imports the package, makes one untimed warm-up call of
``sgdlab.harness.cli.main`` with the workload's config and then repeats
timed calls until the S seconds are over; the k-th call gets CLI seed
(N + k) mod 64.  Every call's outputs go through the check in `check.py`.
Every time is scaled to a reference CPU speed by the calibration that
child.py runs next to it (see ``_scaled``).

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json: the
medians over the calls, the median set-up time over all the processes, the
peak RSS of the measuring process and the share of calls that passed the
check.  With ``--trace 1`` the measuring process spends the second half of
its time on calls under `tracing.Tracer`, and the invocation prints the
per-layer metrics (medians over the traced calls) and ``trace.overhead_s``;
a traced call whose CSV differs by one byte from the untraced call with
the same CLI seed fails.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Everything a run writes stays under ``.bench_work`` in the checkout: the
environment, samples and metrics of each invocation in ``results/`` and the
spans of the latest traced call of each workload in ``traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from workloads import BENCH_DIR, ROOT, SRC, WORKLOADS

WORK = ROOT / ".bench_work"
# import-only processes started before the measuring one; set-up time is
# the median over all of them
SETUP_PROCS = 4
# every time is scaled to the CPU speed at which one run of the calibration
# in child.py takes this long; about its time on the 2-vCPU Xeon VM the
# benchmark was defined on, when no other tenant slowed it down
CAL_REF_S = 0.030
# the measuring process may overrun its deadline by one call and the checks
CHILD_GRACE_S = 60.0
# the longest measurement, so that one invocation stays far below three
# minutes even when --seconds is large
MAX_SECONDS = 100.0


def _median_quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def _commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over the package sources, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _child(args: List[str], result: Path, timeout: float) -> dict:
    """Run child.py with ``args`` and return its result; raise RuntimeError if it fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    # the workload fixes threads = 2 in its config; LAB_THREADS would override it
    env.pop("LAB_THREADS", None)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--result", str(result)] + args
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"the process took longer than {timeout:.0f} s") from None
    if proc.returncode != 0 or not result.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise RuntimeError(f"the process exited with code {proc.returncode}: {tail[0]}")
    with open(result) as fh:
        return json.load(fh)


def _scaled(seconds: float, cal_s: float) -> float:
    """``seconds`` measured while the calibration took ``cal_s``, at the reference speed."""
    return seconds * CAL_REF_S / cal_s


def _summary(values: List[float], unit: str, name: str, printed: Dict[str, dict],
             what: str = "calls") -> None:
    med, q1, q3 = _median_quartiles(values)
    print(f"{name} = {med:.6g} {unit}  (median of {len(values)} {what}; "
          f"quartiles {q1:.6g} .. {q3:.6g})")
    printed[name] = {"value": med, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sgdlab" / "harness" / "cli.py").is_file():
        print(f"bench: no sgdlab sources under {SRC}; run it in a source checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]

    run_dir = WORK / "runs" / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    start = time.monotonic()
    until = start + min(args.seconds, MAX_SECONDS)
    spans = WORK / "traces" / f"{workload.name}.spans.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    try:
        setups = [_child(["--import-only"], run_dir / f"setup{k}.json",
                         CHILD_GRACE_S)["setup"]
                  for k in range(SETUP_PROCS)]
        result = _child(["--workload", workload.name, "--cli-seed", str(args.seed),
                         "--until", repr(until), "--out", str(run_dir / "out"),
                         "--trace", str(args.trace), "--trace-spans", str(spans)],
                        run_dir / "result.json",
                        until - time.monotonic() + CHILD_GRACE_S)
        setups.append(result["setup"])
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    calls = [result["warm_up"]] + result["samples"]
    failed = [s for s in calls if s["problems"]]
    for s in failed:
        more = len(s["problems"]) - 1
        print(f"call with CLI seed {s['cli_seed']} failed: {s['problems'][0]}"
              + (f" (and {more} more problems)" if more else ""))
    untraced = [s for s in result["samples"] if not s["traced"]]
    traced = [s for s in result["samples"] if s["traced"]]

    env = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "cli_seeds": [s["cli_seed"] for s in calls],
        "python": platform.python_version(),
        "numpy": result["numpy"], "scipy": result["scipy"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(), "src_sha256": _src_digest(),
    }
    print("env " + json.dumps(env))

    metrics: Dict[str, dict] = {}
    if args.trace:
        plain = {}
        for s in untraced:
            plain.setdefault(s["cli_seed"], []).append(_scaled(s["wall_s"], s["cal_s"]))
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_s":
                values = [_scaled(s["wall_s"], s["cal_s"])
                          - statistics.median(plain[s["cli_seed"]]) for s in traced]
            else:
                values = [s["layers"][m["name"]] for s in traced]
            _summary(values, m["unit"], m["name"], metrics, "traced calls")
    else:
        for m in spec["end_to_end"]:
            name, unit = m["name"], m["unit"]
            if name == "setup_s":
                _summary([_scaled(d["wall_s"], d["cal_s"]) for d in setups],
                         unit, name, metrics, "processes")
            elif name == "peak_rss_mb":
                value = result["peak_rss_mb"]
                print(f"{name} = {value:.6g} {unit}  (the measuring process)")
                metrics[name] = {"value": value, "unit": unit}
            elif name == "pass_frac":
                value = 1.0 - len(failed) / len(calls)
                print(f"{name} = {value:.6g} {unit}  ({len(calls) - len(failed)} of "
                      f"{len(calls)} calls passed the output check)")
                metrics[name] = {"value": value, "unit": unit}
            else:
                _summary([_scaled(s[name], s["cal_s"]) for s in untraced],
                         unit, name, metrics)
        raw = statistics.median(s["wall_s"] for s in untraced)
        cal = statistics.median(s["cal_s"] for s in untraced)
        print(f"unscaled: wall time {raw:.6g} s per call, calibration {cal:.6g} s "
              f"(medians)")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w") as fh:
        json.dump({"env": env, "metrics": metrics, "setup_s": setups,
                   "warm_up": result["warm_up"], "samples": result["samples"]},
                  fh, indent=1)

    print(json.dumps({"correct": not failed, "attempted": len(calls),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
