"""The measuring process of one benchmark invocation.

    python3 bench/child.py --workload NAME --cli-seed N --until T --out DIR
                           --result FILE [--trace 0|1] [--trace-spans FILE]
    python3 bench/child.py --import-only --result FILE

The process pins itself to one CPU.  It times the import of
``sgdlab.harness`` (set-up), between two runs of the calibration; with
``--import-only`` it stops there.  Otherwise it makes one untimed warm-up
call of the public CLI entry point ``sgdlab.harness.cli.main`` with CLI
seed N, reads the peak RSS, and then repeats timed calls with CLI seeds
N + 1, N + 2, ... (mod the reference seeds) until the monotonic clock
passes T, with a run of the calibration after each.  Every call's CSV goes
through the output check.  With ``--trace 1`` the second half of the time
is spent on calls under `tracing.Tracer`, which repeat the CLI seeds of the
untraced calls and must reproduce their CSVs byte for byte; the spans of
the last traced call are written to ``--trace-spans``.  The result file
holds the set-up time, the peak RSS, the library versions and one sample
per call.  ``src`` must be on ``PYTHONPATH``.

The calibration is a fixed computation, an integer loop and a walk over
floats in shuffled order, timed by the CPU time of the main thread.  Other
tenants of a shared machine slow a CPU down by up to 1.7 times for seconds
to minutes at once; the calibrations on either side of a call measure how
fast the CPU ran during it.  run.py scales every time by
``CAL_REF_S / calibration`` to the speed at which one calibration takes
``CAL_REF_S``.  Pinning keeps the calibration on the CPU the call ran on.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from check import check_run, load_references
from workloads import REFERENCES, WORKLOADS, cli_argv, cli_seed, csv_path

CAL_INT_STEPS = 200_000
CAL_FLOATS = 300_000


class Calibration:
    """A fixed computation whose CPU time tracks the current speed of the CPU."""

    def __init__(self):
        values = [float(i) for i in range(CAL_FLOATS)]
        random.Random(0).shuffle(values)
        self.values = values

    def __call__(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.thread_time()
            s = 0
            for i in range(CAL_INT_STEPS):
                s += i * i
            x = 0.0
            for v in self.values:
                x += v
            return time.thread_time() - t0
        finally:
            if enabled:
                gc.enable()


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _call(cli, workload, seed: int, out: Path, references, tracer=None) -> dict:
    """One timed CLI call with CLI seed ``seed``, its outputs checked."""
    csv_file = csv_path(workload, out)
    csv_file.unlink(missing_ok=True)
    errors = []
    with tracer or contextlib.nullcontext():
        cpu0 = _cpu_s()
        w0 = time.perf_counter()
        try:
            code = cli.main(cli_argv(workload, seed, out))
        except Exception as exc:  # a failed call is counted, not fatal
            code = None
            errors = [f"the CLI raised {type(exc).__name__}: {exc}",
                      traceback.format_exc()]
        wall_s = time.perf_counter() - w0
        cpu_s = _cpu_s() - cpu0
    problems = errors or check_run(code, csv_file, references.get(str(seed)))
    return {"cli_seed": seed, "traced": tracer is not None,
            "wall_s": wall_s, "cpu_s": cpu_s, "problems": problems,
            "csv": csv_file.read_bytes() if csv_file.is_file() else None}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--cli-seed", type=int, default=0)
    parser.add_argument("--until", type=float, default=0.0)
    parser.add_argument("--out")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-spans", default=None)
    args = parser.parse_args()

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    calibrate = Calibration()
    cal0 = calibrate()
    t0 = time.perf_counter()
    import sgdlab.harness.cli as cli
    setup = {"wall_s": time.perf_counter() - t0, "cal_s": (cal0 + calibrate()) / 2}
    if args.import_only:
        with open(args.result, "w") as fh:
            json.dump({"setup": setup}, fh)
        return 0

    import numpy
    import scipy
    workload = WORKLOADS[args.workload]
    references = load_references(REFERENCES).get(workload.name, {})
    out = Path(args.out)

    # caches fill and lazy set-up finishes before anything is timed
    warm = _call(cli, workload, cli_seed(args.cli_seed, 0), out, references)
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cal = calibrate()

    def timed(seed: int, tracer=None) -> dict:
        nonlocal cal
        sample = _call(cli, workload, seed, out, references, tracer)
        after = calibrate()
        sample["cal_s"] = (cal + after) / 2
        cal = after
        return sample

    samples = []
    start = time.monotonic()
    untraced_until = start + (args.until - start) / 2 if args.trace else args.until
    last = 0.0
    # a call that would end more than half its length after the deadline
    # is not started
    while not samples or time.monotonic() + last / 2 < untraced_until:
        t = time.monotonic()
        samples.append(timed(cli_seed(args.cli_seed, len(samples) + 1)))
        last = time.monotonic() - t

    if args.trace:
        from tracing import Tracer, layer_metrics
        untraced = {s["cli_seed"]: s["csv"] for s in samples}
        seeds = list(untraced)
        k = 0
        while k == 0 or time.monotonic() + last / 2 < args.until:
            t = time.monotonic()
            tracer = Tracer()
            s = timed(seeds[k % len(seeds)], tracer)
            if not s["problems"] and s["csv"] != untraced[s["cli_seed"]]:
                s["problems"].append("the traced call's CSV differs from the "
                                     "untraced call's")
            s["layers"] = layer_metrics(tracer.spans)
            samples.append(s)
            last = time.monotonic() - t
            k += 1
        tracer.write_spans(args.trace_spans)

    for s in [warm] + samples:
        del s["csv"]
    result = {
        "setup": setup,
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "warm_up": warm,
        "samples": samples,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
