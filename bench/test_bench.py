"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from sgdlab import _engine, losses, stability  # noqa: E402
from sgdlab.harness import cli, experiments  # noqa: E402
from sgdlab.harness.config import load_config  # noqa: E402

import check  # noqa: E402
from tracing import Tracer, _targets, layer_metrics  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

# n in {3, 5}, T = n, R = 10 replicates (chunks of 8 and 2, so the pool
# runs the engine on both threads), every neighbour coupled
TINY = ("[experiment]\nkind = stability-sweep\nn_grid = 3, 5\nreplicates = 10\n"
        "master_seed = 4\nthreads = 2\n"
        "[loss]\nkind = least_squares\n"
        "[distribution]\nkind = gauss_lin_reg\nw_star = 1.0, 0.0\ncov = 0.5\n"
        "noise_sd = 0.3\n"
        "[schedule]\nkind = fixed_constant\neta1 = 0.05\n")


def _run(tmp_path, label, trace):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY)
    out = tmp_path / label
    argv = ["stability-sweep", "--config", str(cfg), "--out", str(out)]
    if trace:
        with Tracer() as tracer:
            assert cli.main(argv) == 0
    else:
        tracer = None
        assert cli.main(argv) == 0
    return (out / "stability-sweep.csv").read_bytes(), tracer


def test_row_steps_are_replicates_times_rows_times_steps(tmp_path):
    _, tracer = _run(tmp_path, "traced", trace=True)
    m = layer_metrics(tracer.spans)
    R = 10
    assert m["engine.calls"] == 4  # two chunks per n
    assert m["engine.steps"] == 2 * (3 + 5)
    assert m["engine.row_steps"] == R * (1 + 3) * 3 + R * (1 + 5) * 5
    assert m["stability.estimator_calls"] == 2
    assert m["data.sample_calls"] == 2 * R
    assert m["data.sample_examples"] == 2 * R * (3 + 5)  # base and ghost
    assert m["harness.csv_rows"] == 6
    assert 0.0 < m["engine.self_s"] <= m["engine.busy_s"]


def test_pool_thread_spans_are_caused_by_the_estimator(tmp_path):
    _, tracer = _run(tmp_path, "traced", trace=True)
    kind = {s.sid: s.kind for s in tracer.spans}
    engine = [s for s in tracer.spans if s.kind == "engine"]
    assert engine and all(s.thread != threading.get_ident() for s in engine)
    assert all(kind[s.parent] == "stability" for s in engine)


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    targets = _targets()
    originals = [vars(owner)[name] for owner, name, _, _ in targets]
    owners = {owner for owner, _, _, _ in targets}
    assert {_engine, stability, experiments, cli, losses.LeastSquares} <= owners
    _run(tmp_path, "traced", trace=True)
    for (owner, name, _, _), original in zip(targets, originals):
        assert vars(owner)[name] is original, f"{owner.__name__}.{name}"


def test_traced_and_untraced_csvs_are_byte_identical(tmp_path):
    plain, _ = _run(tmp_path, "plain", trace=False)
    traced, _ = _run(tmp_path, "traced", trace=True)
    assert plain == traced


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_parses_and_validates(name):
    workload = WORKLOADS[name]
    cfg = load_config(str(workload.config))
    assert cfg.experiment == workload.experiment
    assert cfg.threads == 2
    assert "criteri" in workload.config.read_text().splitlines()[0]


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(layer_metrics([])) | {"trace.overhead_s"} == names


def test_check_flags_a_changed_value_and_a_failed_gate(tmp_path):
    csv_file = tmp_path / "run.csv"
    header = "experiment,config_hash,seed,n,T,theta,metric,value,stderr,bound_rhs,satisfied\n"
    row = "bound-check,abc,0,64,64,,l1_stability,{v},0.5,2.0,{ok}\n"
    reference = [["l1_stability", "64", "64", "0.25", "0.5"]]

    csv_file.write_text(header + row.format(v="0.25000000000000006", ok=1))
    assert check.check_run(0, csv_file, reference) == []
    csv_file.write_text(header + row.format(v="0.2500001", ok=1))
    assert len(check.check_run(0, csv_file, reference)) == 1
    csv_file.write_text(header + row.format(v="0.25", ok=0))
    assert len(check.check_run(0, csv_file, reference)) == 1
    assert check.check_run(1, csv_file, reference) != []


def test_import_only_process_reports_a_calibrated_setup(tmp_path):
    result = tmp_path / "setup.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, str(BENCH / "child.py"), "--import-only",
                    "--result", str(result)], env=env, check=True, timeout=120)
    setup = json.loads(result.read_text())["setup"]
    assert setup["wall_s"] > 0.0 and setup["cal_s"] > 0.0
