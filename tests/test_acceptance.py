"""Acceptance gate: one test (one pass/fail line under -v) per criterion.

The runs here use the public experiment runner end to end and parse the CSV
artifacts it writes; nothing reaches into private state.  Time budgets are
asserted with generous headroom on the measured wall times.
"""

import csv
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from sgdlab import _engine, stability
from sgdlab.data import GaussLinReg, neighbor, sample_dataset, sample_neighbor_family
from sgdlab.harness.config import parse_config
from sgdlab.harness.experiments import run_experiment, run_property_battery
from sgdlab.losses import LeastSquares, QNormHinge
from sgdlab.optim import FixedConstant, sgd_run, spgd_run
from sgdlab.stability import brute_force_stability


def _run(text, out):
    cfg = parse_config(text + f"out_path = {out}\n")
    t = time.monotonic()
    code = run_experiment(cfg)
    elapsed = time.monotonic() - t
    with open(f"{out}/{cfg.experiment}.csv") as fh:
        rows = list(csv.DictReader(fh))
    return code, rows, elapsed


def _rows(rows, metric):
    got = [r for r in rows if r["metric"] == metric]
    assert got, f"no rows for metric {metric!r}"
    return got


def _all_satisfied(rows, metric):
    return all(r["satisfied"] == "1" for r in _rows(rows, metric))


GAUSS_8D = ("[distribution]\nkind = gauss_lin_reg\n"
            "w_star = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0\n"
            "cov = 0.125\nnoise_sd = 0.5\n")

MARGIN_4D = ("[distribution]\nkind = margin_classif\n"
             "w_star = 1.0, 0.0, 0.0, 0.0\ncov = 0.25\nflip_prob = 0.1\n")

GAUSS_4D = ("[distribution]\nkind = gauss_lin_reg\nw_star = 1.0, 0.0, 0.0, 0.0\n"
            "cov = 0.25\nnoise_sd = 0.25\n")

HINGE = "[loss]\nkind = q_hinge\nq = 1.0\n"

C3_TEXT = ("[experiment]\nkind = bound-check\ntarget = thm2\nn_grid = 64, 256\n"
           "T_rule = equal_n\nreplicates = 200\nmaster_seed = 0\nthreads = 2\n"
           "[loss]\nkind = least_squares\n" + GAUSS_8D +
           "[schedule]\nkind = fixed_constant\neta1 = 0.015625\n[experiment]\n")

C4_TEXT = ("[experiment]\nkind = bound-check\ntarget = thmD1\nn_grid = 64\n"
           "T_rule = equal_n\nreplicates = 200\nmaster_seed = 0\nthreads = 2\n"
           + HINGE + MARGIN_4D +
           "[schedule]\nkind = horizon_poly\nc = 1.0\ntheta = 0.75\n[experiment]\n")


@pytest.fixture(scope="module")
def thm2_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("c3")
    return _run(C3_TEXT, out)


@pytest.fixture(scope="module")
def thmD1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("c4")
    return _run(C4_TEXT, out)


# criterion 1: every regularity checker holds on 10^4 random draws per
# (loss, checker) pair at the default 1e-9 tolerance, in under 10 s
def test_c01_checker_battery_clean():
    t = time.monotonic()
    results = list(run_property_battery(10_000, master_seed=0))
    elapsed = time.monotonic() - t
    assert len(results) >= 20
    bad = [(name, label, fails) for name, label, draws, fails in results if fails]
    assert bad == []
    assert elapsed < 10.0, f"battery took {elapsed:.1f}s"


# criterion 2: Monte-Carlo stability agrees with exact enumeration at n=2,
# T=2 and n=3, T=3 within 3 sigma at 10^4 replicates, and the enumerator
# itself matches a hand-rolled recursion to 1e-12; under 30 s
def test_c02_oracle_agreement(tmp_path):
    text = ("[experiment]\nkind = oracle\nn_grid = 2, 3\nreplicates = 10000\n"
            "master_seed = 0\nthreads = 2\n"
            "[loss]\nkind = least_squares\n"
            "[distribution]\nkind = gauss_lin_reg\nw_star = 1.0, 0.0\n"
            "cov = 0.5\nnoise_sd = 0.3\n"
            "[schedule]\nkind = fixed_constant\neta1 = 0.1\n[experiment]\n")
    code, rows, elapsed = _run(text, tmp_path)
    assert code == 0
    assert _all_satisfied(rows, "l1_agreement")
    assert _all_satisfied(rows, "l2_sq_agreement")
    assert elapsed < 30.0, f"oracle took {elapsed:.1f}s"

    # enumeration vs a from-scratch python recursion on the same family
    dist = GaussLinReg(w_star=np.array([1.0, 0.0]), cov=0.5, noise_sd=0.3)
    fam = sample_neighbor_family(dist, 2, seed=0)
    l1, l2 = brute_force_stability(LeastSquares(), fam, FixedConstant(0.1), None, 2)

    def replay(ds, seq):
        w = np.zeros(2)
        for i in seq:
            w = w - 0.1 * (w @ ds.features[i] - ds.labels[i]) * ds.features[i]
        return w

    acc1, acc2 = [], []
    for seq in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        dists = [np.linalg.norm(replay(fam.base, seq) - replay(neighbor(fam, i), seq))
                 for i in range(2)]
        acc1.append(np.mean(dists))
        acc2.append(np.mean(np.square(dists)))
    assert abs(l1 - np.mean(acc1)) <= 1e-12
    assert abs(l2 - np.mean(acc2)) <= 1e-12


# criterion 3: smooth-case stability bounds hold on Gaussian linear
# regression at n in {64, 256}, T = n, eta = 1/(4L), 200 replicates, < 5 min
def test_c03_thm2_stability_bounds(thm2_run):
    code, rows, elapsed = thm2_run
    assert code == 0
    assert _all_satisfied(rows, "l1_stability")
    assert _all_satisfied(rows, "l2_sq_stability")
    assert len(_rows(rows, "l1_stability")) == 2  # both n
    assert elapsed < 300.0, f"thm2 run took {elapsed:.1f}s"


# criterion 4: non-smooth (alpha = 0) stability bound holds for the hinge on
# the margin model at n = 64, T = n, eta_t = T^(-3/4), 200 replicates, < 5 min
def test_c04_thmD1_stability_bound(thmD1_run):
    code, rows, elapsed = thmD1_run
    assert code == 0
    assert _all_satisfied(rows, "l2_sq_stability")
    assert elapsed < 300.0, f"thmD1 run took {elapsed:.1f}s"


# criterion 5: the stability -> generalization gap bounds hold on the same
# runs as criteria 3 and 4 (smooth and Hölder variants)
def test_c05_generalization_gap_bounds(thm2_run, thmD1_run):
    _, rows3, _ = thm2_run
    _, rows4, _ = thmD1_run
    assert _all_satisfied(rows3, "generalization_gap")
    assert _all_satisfied(rows4, "generalization_gap")


# the config_hash column of c03 and c04 names each config's results; it
# keeps the value it has had since these configs were fixed
def test_c03_c04_config_hash_is_pinned(thm2_run, thmD1_run):
    assert {r["config_hash"] for r in thm2_run[1]} == {"65142cc17878"}
    assert {r["config_hash"] for r in thmD1_run[1]} == {"8eab22d823b4"}


# criterion 6: realizable least squares, constant steps: excess-risk decay
# at least n^-0.6 across n = 128 .. 4096, 100 replicates, < 15 min
def test_c06_realizable_rate(tmp_path):
    text = ("[experiment]\nkind = rate-fit\n"
            "n_grid = 128, 256, 512, 1024, 2048, 4096\nT_rule = equal_n\n"
            "replicates = 100\nmaster_seed = 0\nthreads = 2\nslope_gate = -0.6\n"
            "[loss]\nkind = least_squares\n"
            "[distribution]\nkind = realizable_lin_reg\nw_star = 1.0, 0.0\ncov = 0.5\n"
            "[schedule]\nkind = fixed_constant\neta1 = 0.015625\n[experiment]\n")
    code, rows, elapsed = _run(text, tmp_path)
    assert code == 0
    assert _all_satisfied(rows, "slope")
    slope = float(_rows(rows, "slope")[0]["value"])
    assert slope <= -0.6
    assert elapsed < 900.0, f"rate fit took {elapsed:.1f}s"


# criterion 7: noisy least squares, eta = c/sqrt(T), T = n: excess risk
# decays at least like n^-0.35 on the same grid, < 15 min
def test_c07_noisy_rate(tmp_path):
    text = ("[experiment]\nkind = rate-fit\n"
            "n_grid = 128, 256, 512, 1024, 2048, 4096\nT_rule = equal_n\n"
            "replicates = 100\nmaster_seed = 0\nthreads = 2\nslope_gate = -0.35\n"
            "[loss]\nkind = least_squares\n" + GAUSS_8D +
            "[schedule]\nkind = horizon_constant\nc = 0.5\n[experiment]\n")
    code, rows, elapsed = _run(text, tmp_path)
    assert code == 0
    slope = float(_rows(rows, "slope")[0]["value"])
    assert slope <= -0.35
    assert elapsed < 900.0, f"rate fit took {elapsed:.1f}s"


# criterion 8: hinge on the margin model with eta_t = T^(-3/4) and T = n^2:
# excess risk decays at least like n^-0.3 across n = 32 .. 256, < 20 min
def test_c08_nonsmooth_rate(tmp_path):
    text = ("[experiment]\nkind = rate-fit\nn_grid = 32, 64, 128, 256\n"
            "T_rule = n_squared\nreplicates = 100\nmaster_seed = 0\nthreads = 4\n"
            "slope_gate = -0.3\n" + HINGE + MARGIN_4D +
            "[schedule]\nkind = horizon_poly\nc = 1.0\ntheta = 0.75\n[experiment]\n")
    code, rows, elapsed = _run(text, tmp_path)
    assert code == 0
    slope = float(_rows(rows, "slope")[0]["value"])
    assert slope <= -0.3
    assert elapsed < 1200.0, f"rate fit took {elapsed:.1f}s"


# criterion 9: AUC surrogate on the imbalanced two-Gaussian model inside a
# ball, eta_t = 0.1 t^-0.6: the convex-objective stability bound holds and
# the per-example surrogate is an unbiased estimate of the population
# objective (Monte-Carlo probes at 3 sigma), < 5 min
def test_c09_thm6_auc(tmp_path):
    text = ("[experiment]\nkind = bound-check\ntarget = thm6\nn_grid = 64\n"
            "T_rule = equal_n\nreplicates = 200\nmaster_seed = 0\nthreads = 2\n"
            "draws = 20000\n"
            "[loss]\nkind = auc_square\n"
            "[distribution]\nkind = imbalanced_gauss\np_plus = 0.3\n"
            "mu_plus = 0.1, 0.0, 0.0, 0.0, 0.0\nmu_minus = -0.1, 0.0, 0.0, 0.0, 0.0\n"
            "cov_plus = 0.09\ncov_minus = 0.09\n"
            "[schedule]\nkind = poly_decay\neta1 = 0.1\ntheta = 0.6\n"
            "[domain]\nkind = ball\nradius = 0.5\n[experiment]\n")
    code, rows, elapsed = _run(text, tmp_path)
    assert code == 0
    assert _all_satisfied(rows, "l1_stability")
    assert _all_satisfied(rows, "unbiasedness_probe_0")
    assert _all_satisfied(rows, "unbiasedness_probe_1")
    assert elapsed < 300.0


# criterion 10: strongly-convex stability for least squares in a ball with
# the data-derived sigma'_S schedule and a zero-example neighbor at n = 128,
# T = n, < 5 min
def test_c10_thm8_strongly_convex(tmp_path):
    text = ("[experiment]\nkind = bound-check\ntarget = thm8\nn_grid = 128\n"
            "T_rule = equal_n\nreplicates = 100\nmaster_seed = 0\n"
            "[loss]\nkind = least_squares\n"
            "[distribution]\nkind = gauss_lin_reg\nw_star = 1.0, 0.0, 0.0, 0.0\n"
            "cov = 0.25\nnoise_sd = 0.25\n"
            "[schedule]\nkind = strongly_convex\nsigma = 1.0\n"
            "[domain]\nkind = ball\nradius = 1.0\n[experiment]\n")
    code, rows, elapsed = _run(text, tmp_path)
    assert code == 0
    assert _all_satisfied(rows, "zero_example_stability")
    assert elapsed < 300.0


# criterion 11: the ERM gap bound for ridge-regularized least squares with
# lambda = sigma at n in {64, 256}, 500 replicates, < 2 min
def test_c11_propD2_erm_gap(tmp_path):
    text = ("[experiment]\nkind = bound-check\ntarget = propD2\nn_grid = 64, 256\n"
            "replicates = 500\nmaster_seed = 0\n"
            "[loss]\nkind = least_squares\n" + GAUSS_8D +
            "[schedule]\nkind = fixed_constant\neta1 = 0.015625\nsigma = 1.0\n"
            "[experiment]\n")
    code, rows, elapsed = _run(text, tmp_path)
    assert code == 0
    assert _all_satisfied(rows, "erm_gap")
    assert len(_rows(rows, "erm_gap")) == 2
    assert elapsed < 120.0


# criterion 12a: the proximal variant with no regularizer reproduces plain
# SGD bit for bit
def test_c12a_spgd_none_is_sgd():
    dist = GaussLinReg(w_star=np.array([1.0, 0.0, 0.0, 0.0]), cov=0.25,
                       noise_sd=0.25)
    ds = sample_dataset(dist, 64, seed=0)
    sched = FixedConstant(0.05)
    a = sgd_run(QNormHinge(q=1.0), ds, sched, None, T=64, rng_seed=7)
    b = spgd_run(QNormHinge(q=1.0), None, ds, sched, T=64, rng_seed=7)
    assert np.array_equal(a.final, b.final)
    assert np.array_equal(a.iterates, b.iterates)
    assert np.array_equal(a.avg_eta, b.avg_eta)
    assert np.array_equal(a.avg_linear, b.avg_linear)
    assert np.array_equal(a.per_step_risk, b.per_step_risk)


# criterion 12b: the epoch (without-replacement) stability bound holds for
# the hinge at n = 32, K = 4 epochs, at 3 sigma
def test_c12b_propG2_epoch_stability(tmp_path):
    text = ("[experiment]\nkind = bound-check\ntarget = propG2\nn_grid = 32\n"
            "replicates = 200\nepochs = 4\nmaster_seed = 0\nthreads = 2\n"
            + HINGE + MARGIN_4D +
            "[schedule]\nkind = poly_decay\neta1 = 0.05\ntheta = 0.5\n[experiment]\n")
    code, rows, elapsed = _run(text, tmp_path)
    assert code == 0
    assert _all_satisfied(rows, "epoch_l1_stability")
    assert elapsed < 300.0


# criterion 12c: the high-probability coupled-distance bound at delta = 0.1
# is exceeded on at most a 0.1 fraction of 10^3 independent seeds
def test_c12c_propG1_high_probability(tmp_path):
    text = ("[experiment]\nkind = bound-check\ntarget = propG1\nn_grid = 32\n"
            "replicates = 1000\ndelta = 0.1\nmaster_seed = 0\n"
            + HINGE + MARGIN_4D +
            "[schedule]\nkind = horizon_poly\nc = 1.0\ntheta = 0.75\n[experiment]\n")
    code, rows, elapsed = _run(text, tmp_path)
    assert code == 0
    frac_row = _rows(rows, "exceedance_fraction")[0]
    assert frac_row["satisfied"] == "1"
    assert float(frac_row["value"]) <= 0.1
    assert elapsed < 300.0


# criterion 13: every experiment writes byte-identical CSVs with 1 and 4
# worker threads (replicates reduced; the chunked seeding scheme is
# replicate-count independent, so invariance at small R covers large R)
_C13_CONFIGS = {
    "properties": ("[experiment]\nkind = properties\ndraws = 300\nmaster_seed = 1\n"
                   "[experiment]\n"),
    "oracle": ("[experiment]\nkind = oracle\nn_grid = 2, 3\nreplicates = 64\n"
               "master_seed = 1\n"
               "[loss]\nkind = least_squares\n"
               "[distribution]\nkind = gauss_lin_reg\nw_star = 1.0, 0.0\ncov = 0.5\n"
               "noise_sd = 0.3\n"
               "[schedule]\nkind = fixed_constant\neta1 = 0.1\n[experiment]\n"),
    "stability-sweep": ("[experiment]\nkind = stability-sweep\nn_grid = 8, 16\n"
                        "replicates = 16\nmaster_seed = 1\n"
                        "[loss]\nkind = least_squares\n"
                        "[distribution]\nkind = gauss_lin_reg\nw_star = 1.0, 0.0\n"
                        "cov = 0.5\nnoise_sd = 0.3\n"
                        "[schedule]\nkind = fixed_constant\neta1 = 0.05\n[experiment]\n"),
    "rate-fit": ("[experiment]\nkind = rate-fit\nn_grid = 8, 16, 32\nreplicates = 8\n"
                 "master_seed = 1\n"
                 "[loss]\nkind = least_squares\n"
                 "[distribution]\nkind = realizable_lin_reg\nw_star = 1.0, 0.0\n"
                 "cov = 0.5\n"
                 "[schedule]\nkind = fixed_constant\neta1 = 0.05\n[experiment]\n"),
    "bound-thm2": ("[experiment]\nkind = bound-check\ntarget = thm2\nn_grid = 16\n"
                   "replicates = 16\nmaster_seed = 1\n"
                   "[loss]\nkind = least_squares\n" + GAUSS_8D +
                   "[schedule]\nkind = fixed_constant\neta1 = 0.015625\n[experiment]\n"),
    "bound-thmD1": ("[experiment]\nkind = bound-check\ntarget = thmD1\nn_grid = 16\n"
                    "replicates = 16\nmaster_seed = 1\n" + HINGE + MARGIN_4D +
                    "[schedule]\nkind = horizon_poly\nc = 1.0\ntheta = 0.75\n"
                    "[experiment]\n"),
    "bound-thmD1-q_hinge_1.5": ("[experiment]\nkind = bound-check\ntarget = thmD1\n"
                                "n_grid = 16\nreplicates = 16\nmaster_seed = 1\n"
                                "[loss]\nkind = q_hinge\nq = 1.5\n" + MARGIN_4D +
                                "[schedule]\nkind = horizon_poly\nc = 1.0\ntheta = 0.75\n"
                                "[experiment]\n"),
    "bound-thmD1-q_power_abs_1.5": ("[experiment]\nkind = bound-check\ntarget = thmD1\n"
                                    "n_grid = 16\nreplicates = 16\nmaster_seed = 1\n"
                                    "[loss]\nkind = q_power_abs\nq = 1.5\n" + GAUSS_4D +
                                    "[schedule]\nkind = horizon_poly\nc = 1.0\n"
                                    "theta = 0.75\n[experiment]\n"),
    "bound-thm2-q_power_abs_2": ("[experiment]\nkind = bound-check\ntarget = thm2\n"
                                 "n_grid = 16\nreplicates = 16\nmaster_seed = 1\n"
                                 "[loss]\nkind = q_power_abs\nq = 2.0\n" + GAUSS_4D +
                                 "[schedule]\nkind = fixed_constant\neta1 = 0.001\n"
                                 "[experiment]\n"),
    "bound-thm6": ("[experiment]\nkind = bound-check\ntarget = thm6\nn_grid = 16\n"
                   "replicates = 16\ndraws = 2000\nmaster_seed = 1\n"
                   "[loss]\nkind = auc_square\n"
                   "[distribution]\nkind = imbalanced_gauss\np_plus = 0.3\n"
                   "mu_plus = 0.1, 0.0\nmu_minus = -0.1, 0.0\ncov_plus = 0.09\n"
                   "cov_minus = 0.09\n"
                   "[schedule]\nkind = poly_decay\neta1 = 0.1\ntheta = 0.6\n"
                   "[domain]\nkind = ball\nradius = 0.5\n[experiment]\n"),
    "bound-thm8": ("[experiment]\nkind = bound-check\ntarget = thm8\nn_grid = 16\n"
                   "replicates = 10\nmaster_seed = 1\n"
                   "[loss]\nkind = least_squares\n"
                   "[distribution]\nkind = gauss_lin_reg\nw_star = 1.0, 0.0\n"
                   "cov = 0.25\nnoise_sd = 0.25\n"
                   "[domain]\nkind = ball\nradius = 1.0\n[experiment]\n"),
    "bound-propD2": ("[experiment]\nkind = bound-check\ntarget = propD2\nn_grid = 16\n"
                     "replicates = 20\nmaster_seed = 1\n"
                     "[loss]\nkind = least_squares\n" + GAUSS_8D +
                     "[schedule]\nkind = fixed_constant\neta1 = 0.015625\nsigma = 1.0\n"
                     "[experiment]\n"),
    "bound-propG2": ("[experiment]\nkind = bound-check\ntarget = propG2\nn_grid = 8\n"
                     "replicates = 10\nepochs = 2\nmaster_seed = 1\n" + HINGE + MARGIN_4D +
                     "[schedule]\nkind = poly_decay\neta1 = 0.05\ntheta = 0.5\n"
                     "[experiment]\n"),
    "bound-propG1": ("[experiment]\nkind = bound-check\ntarget = propG1\nn_grid = 8\n"
                     "replicates = 20\ndelta = 0.1\nmaster_seed = 1\n" + HINGE + MARGIN_4D +
                     "[schedule]\nkind = horizon_poly\nc = 1.0\ntheta = 0.75\n"
                     "[experiment]\n"),
}


def test_c13_thread_count_invariance(tmp_path):
    for label, text in _C13_CONFIGS.items():
        outs = {}
        for threads in (1, 4):
            out = tmp_path / f"{label}-t{threads}"
            cfg = parse_config(text + f"out_path = {out}\nthreads = {threads}\n")
            run_experiment(cfg)
            outs[threads] = (out / f"{cfg.experiment}.csv").read_bytes()
        assert outs[1] == outs[4], f"{label}: thread counts changed the output"


# next to criterion 13: chunks of replicates are sized by a row budget, and
# every experiment writes byte-identical CSVs whatever the budget, from one
# replicate per chunk to all replicates in one chunk
def test_c13_row_budget_invariance(tmp_path, monkeypatch):
    for label, text in _C13_CONFIGS.items():
        outs = {}
        for budget in (1, 50, stability.ROW_BUDGET, 10**6):
            monkeypatch.setattr(stability, "ROW_BUDGET", budget)
            out = tmp_path / f"{label}-b{budget}"
            cfg = parse_config(text + f"out_path = {out}\n")
            run_experiment(cfg)
            outs[budget] = (out / f"{cfg.experiment}.csv").read_bytes()
        assert len(set(outs.values())) == 1, f"{label}: the row budget changed the output"


# next to criterion 13: every target draws its replicates' datasets chunk by
# chunk, so no draw holds more replicates than a chunk, and each replicate is
# drawn once
@pytest.mark.parametrize("label", ["bound-thm8", "bound-propD2"])
def test_c13_chunks_bound_the_draws(tmp_path, monkeypatch, label):
    k = 3
    monkeypatch.setattr(stability, "ROW_BUDGET", 10**6)
    monkeypatch.setattr(stability, "EXAMPLE_BUDGET", k * 16)   # n = 16
    draws = []
    sample = stability.sample_datasets

    def counted(dist, n, seeds, ghosts=False):
        draws.append(len(seeds))
        return sample(dist, n, seeds, ghosts)

    monkeypatch.setattr(stability, "sample_datasets", counted)
    cfg = parse_config(_C13_CONFIGS[label] + f"out_path = {tmp_path}\n")
    assert run_experiment(cfg) == 0
    assert max(draws) == k
    assert sum(draws) == cfg.replicates


# the engine reads the index streams in chunks of whole blocks of steps, and
# every experiment writes byte-identical CSVs whatever their lengths: blocks
# of one step read in chunks of 1, 2 and 7 steps, and one chunk of all steps
def test_c13_stream_chunk_invariance(tmp_path, monkeypatch):
    for label, text in _C13_CONFIGS.items():
        outs = {}
        for block_rows, stream_steps in ((1, 1), (1, 2), (1, 7), (2, 7),
                                         (_engine.BLOCK_ROWS, _engine.STREAM_STEPS),
                                         (10**6, 10**6)):
            monkeypatch.setattr(_engine, "BLOCK_ROWS", block_rows)
            monkeypatch.setattr(_engine, "STREAM_STEPS", stream_steps)
            out = tmp_path / f"{label}-b{block_rows}-c{stream_steps}"
            cfg = parse_config(text + f"out_path = {out}\n")
            run_experiment(cfg)
            outs[block_rows, stream_steps] = (out / f"{cfg.experiment}.csv").read_bytes()
        assert len(set(outs.values())) == 1, f"{label}: the stream chunks changed the output"


# next to criterion 13: a change of units moves both sides of every gate by
# its exact power of two.  The twin of a config scales every feature by 2
# (cov and class covariances x4, noise_sd and class means x2) and the steps
# (eta1, c) by 1/4.  Least squares and q_power_abs at q = 2 then run the
# same iterates, with loss values x4 (so propD2's ridge sigma is x4 too);
# the hinge and the AUC surrogate run iterates halved, ball radius with
# them, and keep their loss values.  A metric of units (iterate length a,
# loss value b) then moves by 2^(a i + b v), with (i, v) the run's scales,
# in its value, stderr and rhs cells alike.
# bound-thmD1-q_power_abs_1.5 is left out: its loss is homogeneous of degree
# 1.5 in the residual, so no power-of-two step scaling keeps its iterates.
_METRIC_UNITS = {"l1_stability": (1, 0), "epoch_l1_stability": (1, 0),
                 "zero_example_stability": (1, 0), "coupled_distance_mean": (1, 0),
                 "l2_sq_stability": (2, 0), "generalization_gap": (0, 1), "erm_gap": (0, 1),
                 "unbiasedness_probe_0": (0, 1), "unbiasedness_probe_1": (0, 1),
                 "exceedance_fraction": (0, 0)}
_TWIN_LABELS = [label for label in _C13_CONFIGS
                if label.startswith("bound-") and label != "bound-thmD1-q_power_abs_1.5"]


def _twin(cfg):
    """The config with features x2 and steps x1/4, and the (iterate, loss value)
    powers of two its runs move by."""
    same_iterates = cfg.loss_kind in ("least_squares", "q_power_abs")
    i, v = (0, 2) if same_iterates else (-1, 0)

    def times(x, k):
        return None if x is None else (tuple(math.ldexp(a, k) for a in x)
                                       if isinstance(x, tuple) else math.ldexp(x, k))

    return cfg._replace(
        cov=times(cfg.cov, 2), cov_plus=times(cfg.cov_plus, 2),
        cov_minus=times(cfg.cov_minus, 2), noise_sd=times(cfg.noise_sd, 1),
        mu_plus=times(cfg.mu_plus, 1), mu_minus=times(cfg.mu_minus, 1),
        eta1=times(cfg.eta1, -2), c=times(cfg.c, -2), sigma=times(cfg.sigma, v),
        radius=times(cfg.radius, i)), i, v


@pytest.mark.parametrize("label", _TWIN_LABELS)
def test_gates_are_exactly_scale_covariant(tmp_path, label):
    cfg = parse_config(_C13_CONFIGS[label] + f"out_path = {tmp_path / 'base'}\n")
    twin, i, v = _twin(cfg._replace(out_path=str(tmp_path / "twin")))

    def rows(c):
        run_experiment(c)
        with open(f"{c.out_path}/{c.experiment}.csv") as fh:
            return list(csv.DictReader(fh))

    base, scaled = rows(cfg), rows(twin)
    assert [r["metric"] for r in base] == [r["metric"] for r in scaled]
    for b, t in zip(base, scaled):
        a, u = _METRIC_UNITS[b["metric"]]
        k = a * i + u * v
        for cell in ("value", "stderr", "bound_rhs"):
            want = "" if b[cell] == "" else math.ldexp(float(b[cell]), k)
            got = "" if t[cell] == "" else float(t[cell])
            assert got == want, (b["metric"], cell, b[cell], t[cell], k)
        assert t["satisfied"] == b["satisfied"], b["metric"]


# next to criterion 13: tests/golden.json holds the sha256 of every c13 CSV,
# of the c03 and c04 CSVs and of the benchmark workloads' CSVs at their own
# master seed, with the numpy version they were recorded with; the runs go
# through a fresh interpreter under one and under two OpenBLAS threads, the
# one thread count that could move bytes
_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
_BENCH_CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "bench", "configs")


def _bench_texts():
    """{bench-<workload>: its config text}, which ends in its [experiment] section."""
    texts = {}
    for name in sorted(os.listdir(_BENCH_CONFIGS)):
        if name.endswith(".ini"):
            with open(os.path.join(_BENCH_CONFIGS, name)) as fh:
                texts[f"bench-{name[:-4]}"] = fh.read() + "[experiment]\n"
    return texts
_GOLDEN_RUN = """\
import hashlib, json, os, sys
from sgdlab.harness.config import parse_config
from sgdlab.harness.experiments import run_experiment
texts, out = json.load(sys.stdin)
digests = {}
for label, text in texts.items():
    cfg = parse_config(text + "out_path = " + os.path.join(out, label) + "\\n")
    run_experiment(cfg)
    with open(os.path.join(out, label, cfg.experiment + ".csv"), "rb") as fh:
        digests[label] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps(digests))
"""


def golden_digests(out, blas_threads):
    """{label: sha256 of its CSV} for the manifest's configs, run in a new process."""
    import sgdlab
    src = os.path.dirname(os.path.dirname(sgdlab.__file__))
    texts = dict(_C13_CONFIGS, c03=C3_TEXT, c04=C4_TEXT, **_bench_texts())
    proc = subprocess.run([sys.executable, "-c", _GOLDEN_RUN],
                          input=json.dumps([texts, str(out)]), capture_output=True,
                          text=True, timeout=600,
                          env=dict(os.environ, PYTHONPATH=src,
                                   OPENBLAS_NUM_THREADS=str(blas_threads)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_golden_csv_bytes(tmp_path, blas_threads):
    with open(_GOLDEN) as fh:
        golden = json.load(fh)
    assert golden["numpy"] == np.__version__, (
        f"tests/golden.json was recorded with numpy {golden['numpy']} and this is numpy "
        f"{np.__version__}; its hashes hold for that version only (re-record with "
        f"`PYTHONPATH=src python tests/test_acceptance.py` once the bytes are checked)")
    got = golden_digests(tmp_path, blas_threads)
    moved = sorted(label for label, digest in golden["sha256"].items()
                   if got.get(label) != digest)
    assert not moved, f"OPENBLAS_NUM_THREADS={blas_threads}: the bytes of {moved} moved"
    assert sorted(got) == sorted(golden["sha256"])


if __name__ == "__main__":
    # record the manifest afresh, after a change whose moved bytes are accounted for,
    # and print the labels it adds, moves and drops against the old manifest
    import tempfile
    with tempfile.TemporaryDirectory() as out:
        digests = golden_digests(out, 1)
    old = {}
    if os.path.exists(_GOLDEN):
        with open(_GOLDEN) as fh:
            old = json.load(fh)["sha256"]
    for what, labels in (("added", set(digests) - set(old)),
                         ("moved", {k for k in set(digests) & set(old) if digests[k] != old[k]}),
                         ("dropped", set(old) - set(digests))):
        print(f"{what}: {' '.join(sorted(labels)) or '-'}")
    with open(_GOLDEN, "w") as fh:
        json.dump({"numpy": np.__version__, "sha256": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
