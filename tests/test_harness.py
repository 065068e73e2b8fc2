import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgdlab import _engine, stability
from sgdlab.bounds import expand_risk_path, thmD1_nonsmooth_l2_bound
from sgdlab.errors import ConfigError, InvalidArgument
from sgdlab.harness import config, experiments
from sgdlab.harness.cli import main
from sgdlab.harness.config import (
    BUILDERS,
    TARGETS,
    ExperimentConfig,
    build,
    config_hash,
    load_config,
    parse_config,
    serialize_config,
    steps_for,
    validate_config,
)
from sgdlab.harness.experiments import CsvRow, run_experiment, standard_error, write_csv
from sgdlab.harness.ratefit import fit_loglog_slope
from sgdlab.losses import support_constants

FULL_TEXT = """
# exercises every section
[experiment]
kind = stability-sweep
n_grid = 8, 16, 32
T_rule = n_pow
T_pow = 1.5
replicates = 40
master_seed = 11
threads = 2
delta = 0.05
epochs = 3
draws = 500

[loss]
kind = q_hinge
q = 1.5

[distribution]
kind = margin_classif
w_star = 1.0, 0.0, 0.0
cov = 0.25
flip_prob = 0.1

[schedule]
kind = poly_decay
eta1 = 0.1
theta = 0.6

[domain]
kind = ball
radius = 2.5
"""


def _properties_text(out, draws=60, seed=3):
    return (f"[experiment]\nkind = properties\ndraws = {draws}\n"
            f"master_seed = {seed}\nout_path = {out}\n")


def _write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_round_trip():
    cfg = parse_config(FULL_TEXT)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert cfg.n_grid == (8, 16, 32)
    assert cfg.T_pow == 1.5
    assert cfg.loss_q == 1.5 and cfg.w_star == (1.0, 0.0, 0.0)
    assert cfg.domain_kind == "ball" and cfg.radius == 2.5


def test_parse_repr_floats_round_trip():
    # repr-based serialization must survive awkward floats exactly
    cfg = parse_config(FULL_TEXT)
    cfg = cfg._replace(eta1=0.1 + 2e-17, T_pow=1 / 3)
    again = parse_config(serialize_config(cfg))
    assert again.eta1 == cfg.eta1 and again.T_pow == cfg.T_pow


def test_parse_error_line_numbers():
    with pytest.raises(ConfigError, match="line 2.*unknown section"):
        parse_config("[experiment]\n[nonsense]\nkind = properties\n")
    with pytest.raises(ConfigError, match="line 3.*unknown key"):
        parse_config("[experiment]\nkind = properties\nwat = 1\n")
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config("[experiment]\nkind = properties\nkind = oracle\n")
    with pytest.raises(ConfigError, match="line 1.*outside"):
        parse_config("kind = properties\n")
    with pytest.raises(ConfigError, match="line 2.*key = value"):
        parse_config("[experiment]\njust words\n")
    with pytest.raises(ConfigError, match="line 3.*integer"):
        parse_config("[experiment]\nkind = properties\ndraws = many\n")
    with pytest.raises(ConfigError, match="kind"):
        parse_config("[loss]\nkind = least_squares\n")  # missing experiment kind


def test_parse_rejects_non_finite_numbers():
    for value in ("inf", "-inf", "nan", "1e400"):
        with pytest.raises(ConfigError, match=r"line 2: eta1: expected a finite number"):
            parse_config(f"[schedule]\neta1 = {value}\n[experiment]\nkind = properties\n")
    with pytest.raises(ConfigError, match=r"line 2: w_star: expected a finite number.*nan"):
        parse_config("[distribution]\nw_star = 1.0, nan\n[experiment]\nkind = properties\n")


def test_parse_cuts_comments_after_values():
    cfg = parse_config("[experiment]  # header comment\n"
                       "kind = properties   # the battery\n"
                       "draws = 12# no space\n"
                       "  # an indented comment line\n")
    assert cfg.experiment == "properties" and cfg.draws == 12


def test_readme_example_config_parses():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        text = fh.read()
    blocks = text.split("```ini\n")
    assert len(blocks) == 2, "README.md should hold exactly one ini block"
    cfg = parse_config(blocks[1].split("```")[0])
    assert (cfg.experiment, cfg.target, cfg.n_grid) == ("bound-check", "thm2", (64, 256))
    assert cfg.T_rule == "equal_n" and cfg.cov == (0.125,)
    assert (cfg.loss_kind, cfg.sched_kind, cfg.domain_kind) == \
        ("least_squares", "fixed_constant", "none")


_BENCH_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "bench" / "configs").glob("*.ini"))


@pytest.mark.parametrize("path", _BENCH_CONFIGS, ids=lambda p: p.stem)
def test_benchmark_configs_pass_every_rule(monkeypatch, path):
    # each benchmark workload's config parses and meets every rule of its
    # run, without running it: a dropped key or kind fails here first
    def fail(*args, **kwargs):
        raise AssertionError("the engine ran while the rules were checked")

    monkeypatch.setattr(_engine, "run_core", fail)
    cfg = load_config(str(path))
    validate_config(cfg)
    runner, parts = experiments._prepare(cfg)
    assert callable(runner)


def test_config_hash_identity():
    cfg = parse_config(FULL_TEXT)
    h = config_hash(cfg)
    assert len(h) == 12 and int(h, 16) >= 0
    # threads / out_path are execution details, not experiment identity
    assert config_hash(cfg._replace(threads=8)) == h
    assert config_hash(cfg._replace(out_path="elsewhere")) == h
    assert config_hash(cfg._replace(replicates=41)) != h
    assert config_hash(cfg._replace(master_seed=12)) != h


def test_validate_config_rules():
    ok = parse_config(FULL_TEXT)
    validate_config(ok)
    bad = [
        dict(n_grid=()),
        dict(n_grid=(4, 4)),
        dict(n_grid=(8, 4)),
        dict(n_grid=(0,)),
        dict(T_rule="linear"),
        dict(T_rule="n_pow", T_pow=None),
        dict(replicates=0),
        dict(threads=0),
        dict(draws=0),
        dict(experiment="bound-check", target=None),
        dict(experiment="bound-check", target="thm99"),
        dict(loss_kind="l0"),
        dict(dist_kind="cauchy"),
        dict(sched_kind="cosine"),
        dict(domain_kind="box"),
        dict(domain_kind="ball", radius=None),
        dict(domain_kind="ball", radius=0.0),
        dict(delta=0.0),
        dict(delta=1.0),
        dict(epochs=0),
        dict(master_seed=-1),
    ]
    for overrides in bad:
        with pytest.raises(ConfigError):
            validate_config(ok._replace(**overrides))


def test_steps_for_rules():
    cfg = ExperimentConfig(experiment="stability-sweep")
    assert steps_for(cfg, 16) == 16
    assert steps_for(cfg._replace(T_rule="n_squared"), 16) == 256
    half = cfg._replace(T_rule="n_pow", T_pow=0.5)
    assert steps_for(half, 16) == 4
    assert steps_for(half, 17) == 5  # ceil


# (section, kind) -> the fields its builder needs, each with a value no
# other field shares, so a builder that swaps two of them is caught
_BUILDER_NEEDS = {
    ("loss", "least_squares"): {},
    ("loss", "q_hinge"): {},
    ("loss", "q_power_abs"): {},
    ("loss", "auc_square"): dict(p_plus=0.3, mu_plus=(0.1, 0.0), mu_minus=(-0.2, 0.0)),
    ("distribution", "gauss_lin_reg"): dict(w_star=(1.0, 0.5), noise_sd=0.25),
    ("distribution", "realizable_lin_reg"): dict(w_star=(1.0, 0.5)),
    ("distribution", "margin_classif"): dict(w_star=(1.0, 0.5), flip_prob=0.125),
    ("distribution", "imbalanced_gauss"): dict(p_plus=0.3, mu_plus=(0.1, 0.0),
                                               mu_minus=(-0.2, 0.0)),
    ("schedule", "fixed_constant"): dict(eta1=0.1),
    ("schedule", "horizon_constant"): dict(c=1.25),
    ("schedule", "horizon_poly"): dict(c=1.25, theta=0.5),
    ("schedule", "poly_decay"): dict(eta1=0.1, theta=0.5),
    ("schedule", "strongly_convex"): dict(sigma=2.0),
    ("domain", "none"): {},
    ("domain", "ball"): dict(radius=2.5),
}
_KIND_FIELDS = {"loss": "loss_kind", "distribution": "dist_kind",
                "schedule": "sched_kind", "domain": "domain_kind"}
# per section, a config whose constructor rejects a parameter
_BAD_PARAMETERS = {
    "loss": dict(loss_kind="q_hinge", loss_q=7.0),
    "distribution": dict(dist_kind="gauss_lin_reg", w_star=(1.0,), noise_sd=-1.0),
    "schedule": dict(sched_kind="fixed_constant", eta1=-0.1),
    "domain": dict(domain_kind="ball", radius=-1.0),
}


def test_builders():
    assert set(_BUILDER_NEEDS) == {(section, kind) for section, table in BUILDERS.items()
                                   for kind in table}
    for (section, kind), needs in _BUILDER_NEEDS.items():
        # the least config: the kind and the fields its builder needs
        cfg = ExperimentConfig(experiment="oracle", **{_KIND_FIELDS[section]: kind},
                               **needs)
        obj = build(section, cfg)
        if section == "domain":
            assert (obj is None) == (kind == "none")
        else:
            assert obj.kind == kind
        for field, value in needs.items():
            got = getattr(obj, "p" if field == "p_plus" else field)
            assert np.array_equal(got, value), (section, kind, field)
            # each needed field is named when it is missing
            section_of, key = config._FIELD_TO_KEY[field]
            with pytest.raises(ConfigError, match=fr"missing key '{key}' in \[{section_of}\]"):
                build(section, cfg._replace(**{field: None}))
        # every kind of a section is listed when the kind is not one of them
        message = f"unknown {section} kind 'nope'; expected one of {tuple(BUILDERS[section])}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate_config(cfg._replace(**{_KIND_FIELDS[section]: "nope"}))
    for section, overrides in _BAD_PARAMETERS.items():
        cfg = ExperimentConfig(experiment="oracle", **overrides)
        with pytest.raises(ConfigError, match=f"bad {section} parameters"):
            build(section, cfg)
    # the q-losses default to the plain hinge and the squared residual
    for kind, q in (("q_hinge", 1.0), ("q_power_abs", 2.0)):
        cfg = ExperimentConfig(experiment="oracle", loss_kind=kind)
        assert build("loss", cfg).q == q
        assert build("loss", cfg._replace(loss_q=1.5)).q == 1.5
    with pytest.raises(ConfigError, match=r"missing key 'kind' in \[schedule\]"):
        build("schedule", ExperimentConfig(experiment="oracle"))


# ---------------------------------------------------------------------------
# rate fit
# ---------------------------------------------------------------------------

def test_fit_loglog_frozen_slope():
    fit = fit_loglog_slope([(1.0, 1.0), (2.0, 0.5), (4.0, 0.25)])
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    fit2 = fit_loglog_slope([(2.0, 3.0), (4.0, 3.0), (8.0, 3.0)])
    assert fit2.slope == pytest.approx(0.0, abs=1e-12)
    assert fit2.r_squared == 1.0  # flat fit of a constant is perfect


def test_fit_loglog_validation():
    with pytest.raises(InvalidArgument):
        fit_loglog_slope([(1.0, 1.0), (2.0, 0.5)])
    with pytest.raises(InvalidArgument):
        fit_loglog_slope([(1.0, 1.0), (2.0, 0.0), (4.0, 0.25)])
    with pytest.raises(InvalidArgument):
        fit_loglog_slope([(0.0, 1.0), (2.0, 0.5), (4.0, 0.25)])


def test_standard_error():
    # one replicate: no spread to measure
    assert standard_error(np.array([3.0])) == 0.0
    np.testing.assert_array_equal(standard_error(np.array([[3.0, 1.0]])), [0.0, 0.0])
    vals = np.array([1.0, 2.0, 4.0, 7.0])
    se = standard_error(vals)
    assert isinstance(se, float)
    assert se == pytest.approx(np.std(vals, ddof=1) / 2.0, rel=1e-15)
    # (R, C): one value per column, each that of the column alone
    mat = np.stack([vals, 3.0 * vals[::-1], np.full(4, 0.5)], axis=1)
    got = standard_error(mat)
    assert got.shape == (3,)
    for c in range(3):
        assert got[c] == standard_error(mat[:, c].copy())


def _unscaled_standard_error(vals):
    """The standard error as it reads without the power-of-two scaling."""
    return vals.std(axis=0, ddof=1) / math.sqrt(vals.shape[0])


@pytest.mark.parametrize("power", [-600, 600])
@pytest.mark.parametrize("shape", [(16,), (16, 5)])
def test_standard_error_scales_by_powers_of_two_bit_for_bit(power, shape):
    # at 2^-600 the squares underflow to 0, at 2^600 they overflow to inf;
    # the stderr still scales with the values, and of normal-sized values
    # it keeps the bits it has without the scaling
    vals = np.random.default_rng(3).standard_normal(shape)
    base = standard_error(vals)
    np.testing.assert_array_equal(base, _unscaled_standard_error(vals))
    got = standard_error(np.ldexp(vals, power))
    assert np.all(got > 0.0) and np.all(np.isfinite(got))
    np.testing.assert_array_equal(got, np.ldexp(base, power))


def test_standard_error_of_non_finite_and_equal_values():
    nan, inf = math.nan, math.inf
    cols = [[1.0, nan, 2.0, 3.0], [1.0, inf, 2.0, 3.0], [-inf, inf, 0.0, 1.0],
            [inf, inf, inf, inf], [0.25] * 4, [0.0] * 4, [-1e-300] * 4]
    mat = np.array(cols).T
    with np.errstate(invalid="ignore"):
        want = _unscaled_standard_error(mat)
        np.testing.assert_array_equal(standard_error(mat), want)
        for c, col in enumerate(cols):
            np.testing.assert_array_equal(standard_error(np.array(col)), want[c])


# ---------------------------------------------------------------------------
# csv
# ---------------------------------------------------------------------------

def test_csv_exact_formatting(tmp_path):
    rows = [
        CsvRow("oracle", "abcdef012345", 7, 2, 4, None, "l1_mc", 0.1, None, 2.0, True),
        CsvRow("oracle", "abcdef012345", 7, None, None, 0.75, "slope", -1.0,
               0.001953125, None, False),
    ]
    path = tmp_path / "rows.csv"
    write_csv(str(path), rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "experiment,config_hash,seed,n,T,theta,metric,value,stderr,bound_rhs,satisfied"
    assert lines[1] == "oracle,abcdef012345,7,2,4,,l1_mc,0.10000000000000001,,2,1"
    assert lines[2] == "oracle,abcdef012345,7,,,0.75,slope,-1,0.001953125,,0"


def test_properties_experiment_rows(tmp_path):
    out = tmp_path / "res"
    cfg = parse_config(_properties_text(out, draws=40, seed=9))
    assert run_experiment(cfg) == 0
    lines = (out / "properties.csv").read_text().splitlines()
    assert len(lines) > 10
    header = lines[0].split(",")
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(header)
        assert cells[0] == "properties"
        assert cells[2] == "9"
        assert cells[3] == cells[4] == cells[5] == ""  # no n/T/theta
        assert ":" in cells[6]
        assert cells[7] == "0"     # zero failures
        assert cells[9] == "0"     # bound_rhs
        assert cells[10] == "1"    # satisfied
    names = {line.split(",")[6] for line in lines[1:]}
    assert any(m.startswith("self_bounding:") for m in names)
    assert any(m.startswith("nonexpansive:") for m in names)


def test_oracle_experiment_smoke(tmp_path):
    out = tmp_path / "res"
    text = (f"[experiment]\nkind = oracle\nn_grid = 2, 3\nreplicates = 600\n"
            f"master_seed = 4\nout_path = {out}\n"
            "[loss]\nkind = least_squares\n"
            "[distribution]\nkind = gauss_lin_reg\nw_star = 1.0, 0.0\n"
            "cov = 0.5\nnoise_sd = 0.3\n"
            "[schedule]\nkind = fixed_constant\neta1 = 0.1\n")
    cfg = parse_config(text)
    assert run_experiment(cfg) == 0
    lines = (out / "oracle.csv").read_text().splitlines()
    metrics = [line.split(",")[6] for line in lines[1:]]
    assert metrics == ["l1_mc", "l1_exact", "l1_agreement",
                       "l2_sq_mc", "l2_sq_exact", "l2_sq_agreement"] * 2


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def test_cli_pass_and_seed_out_overrides(tmp_path):
    cfg_path = _write(tmp_path, _properties_text(tmp_path / "ignored", draws=40))
    out = tmp_path / "cli_out"
    code = main(["properties", "--config", cfg_path, "--seed", "42",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "properties.csv").read_text().splitlines()
    assert all(line.split(",")[2] == "42" for line in lines[1:])


def test_cli_config_error_exit_2(tmp_path):
    bad = _write(tmp_path, "[experiment]\nkind = properties\nwat = 1\n")
    assert main(["properties", "--config", bad]) == 2
    missing = str(tmp_path / "definitely_not_here.ini")
    assert main(["properties", "--config", missing]) == 2


def test_cli_resource_limit_exit_3(tmp_path):
    # n = 8, T = 8 needs 8^8 > 10^6 enumerated sequences
    out = tmp_path / "res"
    text = (f"[experiment]\nkind = oracle\nn_grid = 8\nreplicates = 10\n"
            f"out_path = {out}\n"
            "[loss]\nkind = least_squares\n"
            "[distribution]\nkind = gauss_lin_reg\nw_star = 1.0\ncov = 1.0\n"
            "noise_sd = 0.1\n"
            "[schedule]\nkind = fixed_constant\neta1 = 0.1\n")
    assert main(["oracle", "--config", _write(tmp_path, text)]) == 3


def test_cli_gate_failure_exit_1(tmp_path):
    out = tmp_path / "res"
    text = (f"[experiment]\nkind = rate-fit\nn_grid = 4, 8, 16\nreplicates = 8\n"
            f"master_seed = 1\nslope_gate = -5.0\nout_path = {out}\n"
            "[loss]\nkind = least_squares\n"
            "[distribution]\nkind = realizable_lin_reg\nw_star = 1.0, 0.0\ncov = 0.5\n"
            "[schedule]\nkind = fixed_constant\neta1 = 0.05\n")
    assert main(["rate-fit", "--config", _write(tmp_path, text)]) == 1
    lines = (out / "rate-fit.csv").read_text().splitlines()
    slope_rows = [l for l in lines if l.split(",")[6] == "slope"]
    assert len(slope_rows) == 1 and slope_rows[0].split(",")[10] == "0"


def test_cli_lab_threads_env(tmp_path, monkeypatch):
    cfg_path = _write(tmp_path, _properties_text(tmp_path / "res", draws=30))
    monkeypatch.setenv("LAB_THREADS", "junk")
    assert main(["properties", "--config", cfg_path]) == 2
    monkeypatch.setenv("LAB_THREADS", "2")
    assert main(["properties", "--config", cfg_path]) == 0


def test_cli_thread_invariance_bytes(tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t4"
    text = ("[experiment]\nkind = stability-sweep\nn_grid = 4, 6\nreplicates = 12\n"
            "master_seed = 5\n"
            "[loss]\nkind = least_squares\n"
            "[distribution]\nkind = gauss_lin_reg\nw_star = 1.0, 0.0\ncov = 0.5\n"
            "noise_sd = 0.3\n"
            "[schedule]\nkind = fixed_constant\neta1 = 0.1\n")
    cfg_path = _write(tmp_path, text)
    assert main(["stability-sweep", "--config", cfg_path, "--out", str(out1),
                 "--threads", "1"]) == 0
    assert main(["stability-sweep", "--config", cfg_path, "--out", str(out2),
                 "--threads", "4"]) == 0
    b1 = (out1 / "stability-sweep.csv").read_bytes()
    b2 = (out2 / "stability-sweep.csv").read_bytes()
    assert b1 == b2


def test_cli_negative_seed_exit_2(tmp_path, capsys):
    cfg_path = _write(tmp_path, _properties_text(tmp_path / "res", draws=20))
    assert main(["properties", "--config", cfg_path, "--seed", "-5"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "master_seed" in err


def test_cli_seed_has_no_upper_limit(tmp_path):
    # --seed takes any nonnegative integer, 2^64 and beyond included
    cfg_path = _write(tmp_path, _properties_text(tmp_path / "res", draws=20))
    for seed in (2 ** 64, 2 ** 70 + 1):
        assert main(["properties", "--config", cfg_path, "--seed", str(seed)]) == 0


def test_cli_unexpected_error_exit_4(tmp_path, capsys, monkeypatch):
    def broken(cfg, gates=None):
        raise RuntimeError("boom")

    monkeypatch.setattr("sgdlab.harness.cli.run_experiment", broken)
    cfg_path = _write(tmp_path, _properties_text(tmp_path / "res", draws=20))
    assert main(["properties", "--config", cfg_path]) == 4
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["lab: internal error: RuntimeError: boom"]
    assert captured.out == ""


_THM2_TEXT = ("[experiment]\nkind = bound-check\ntarget = thm2\nn_grid = 8, 16\n"
              "T_rule = equal_n\nreplicates = 6\nmaster_seed = 0\n"
              "[loss]\nkind = least_squares\n"
              "[distribution]\nkind = gauss_lin_reg\n"
              "w_star = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0\n"
              "cov = 0.125\nnoise_sd = 0.5\n"
              "[schedule]\nkind = fixed_constant\n")


def test_cli_thm2_step_size_precondition_exit_2(tmp_path, capsys):
    # eta = 50 is far above 2/L = 1/8: the runs diverge with a stderr as
    # large as the mean, so every gate would pass on noise
    out = tmp_path / "res"
    cfg_path = _write(tmp_path, _THM2_TEXT + f"eta1 = 50\n[experiment]\nout_path = {out}\n")
    assert main(["bound-check", "--config", cfg_path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "eta_t <= 2/L" in err[0]
    assert not (out / "bound-check.csv").exists()
    # the boundary step size 2/L itself is allowed
    cfg = parse_config(_THM2_TEXT + f"eta1 = 0.125\n[experiment]\nout_path = {out}\n")
    assert run_experiment(cfg) in (0, 1)


def test_cli_infinite_step_size_exits_2_before_running(tmp_path, capsys):
    out = tmp_path / "res"
    text = (f"[experiment]\nkind = bound-check\ntarget = thmD1\nn_grid = 8\n"
            f"T_rule = equal_n\nreplicates = 4\nout_path = {out}\n"
            "[loss]\nkind = q_hinge\nq = 1.0\n"
            "[distribution]\nkind = margin_classif\nw_star = 1.0, 0.0\ncov = 0.25\n"
            "flip_prob = 0.1\n"
            "[schedule]\nkind = fixed_constant\neta1 = inf\n")
    assert main(["bound-check", "--config", _write(tmp_path, text)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "eta1: expected a finite number" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("target", ["thm2", "thmD1", "propD2", "propG1", "propG2"])
def test_cli_ball_domain_on_an_unprojected_target_exits_2(tmp_path, capsys, monkeypatch,
                                                          target):
    # these targets run without projection, so a ball would be named in the
    # config hash and ignored by the runs
    def fail(*args):
        raise AssertionError("the target ran")

    monkeypatch.setitem(experiments._TARGETS, target,
                        experiments._TARGETS[target]._replace(run=fail))
    out = tmp_path / "res"
    text = (f"[experiment]\nkind = bound-check\ntarget = {target}\nout_path = {out}\n"
            "[domain]\nkind = ball\nradius = 0.01\n")
    assert main(["bound-check", "--config", _write(tmp_path, text)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"target {target} runs without projection" in err[0]
    assert not out.exists()


def test_target_table_names_every_target():
    # one entry per run kind that reads a [schedule], then every target
    assert list(experiments._TARGETS) == ["oracle", "stability-sweep", "rate-fit",
                                          *TARGETS]


_PAIRS = {
    "lsq": ("[loss]\nkind = least_squares\n[distribution]\nkind = gauss_lin_reg\n"
            "w_star = 1.0, 0.0, 0.0, 0.0\ncov = 0.25\nnoise_sd = 0.25\n"),
    "hinge": ("[loss]\nkind = q_hinge\nq = 1.0\n[distribution]\nkind = margin_classif\n"
              "w_star = 1.0, 0.0, 0.0, 0.0\ncov = 0.25\nflip_prob = 0.1\n"),
    "q_hinge_1.5": ("[loss]\nkind = q_hinge\nq = 1.5\n[distribution]\n"
                    "kind = margin_classif\nw_star = 1.0, 0.0, 0.0, 0.0\ncov = 0.25\n"
                    "flip_prob = 0.1\n"),
    "lsq_margin": ("[loss]\nkind = least_squares\n[distribution]\nkind = margin_classif\n"
                   "w_star = 1.0, 0.0, 0.0, 0.0\ncov = 0.25\nflip_prob = 0.1\n"),
    "power_2": ("[loss]\nkind = q_power_abs\nq = 2.0\n[distribution]\n"
                "kind = gauss_lin_reg\nw_star = 1.0, 0.0, 0.0, 0.0\ncov = 0.25\n"
                "noise_sd = 0.25\n"),
    "auc": ("[loss]\nkind = auc_square\n[distribution]\nkind = imbalanced_gauss\n"
            "p_plus = 0.3\nmu_plus = 0.5, 0.0\nmu_minus = -0.5, 0.0\ncov_plus = 0.2\n"
            "cov_minus = 0.2\n"),
}
_POLY = "[schedule]\nkind = horizon_poly\nc = 1.0\ntheta = 0.75\n"
_SMALL_STEP = "[schedule]\nkind = fixed_constant\neta1 = 0.001\n"
_BALL = "[domain]\nkind = ball\nradius = 2.0\n"


# the [experiment] keys of the rule checks: sizes at which a check after the
# first grid point would cost seconds
_EXPERIMENT = {"n_grid": "64, 512", "replicates": "200"}
_ONE_REPLICATE = {"replicates": "1"}
_OVERFLOWING_T = {"n_grid": "8, 16", "T_rule": "n_pow", "T_pow": "400"}


def _experiment_keys(changes=None) -> str:
    return "".join(f"{k} = {v}\n" for k, v in {**_EXPERIMENT, **(changes or {})}.items())


# one config per rule of each target: (target, pair, rest of the config,
# message[, changed [experiment] keys])
_VIOLATIONS = {
    "thm2-smooth": ("thm2", "hinge", _SMALL_STEP, "needs a smooth loss"),
    "thm2-2/L": ("thm2", "lsq", "[schedule]\nkind = fixed_constant\neta1 = 50\n",
                 "eta_t <= 2/L"),
    "thm2-convex": ("thm2", "auc", _SMALL_STEP, "target thm2 needs a convex, nonnegative loss"),
    "thm2-ball": ("thm2", "lsq", _SMALL_STEP + _BALL, "runs without projection"),
    "thmD1-holder": ("thmD1", "lsq", _POLY, "needs a non-smooth loss"),
    "thm6-ball": ("thm6", "hinge", _POLY, "needs a ball domain"),
    "thm6-risk": ("thm6", "q_hinge_1.5", _POLY + _BALL, "closed-form population risk"),
    "thm6-probe-draws": ("thm6", "auc", _POLY + _BALL,
                         "target thm6 needs draws * min(p_plus, 1 - p_plus) >= 6",
                         {"draws": "19"}),
    "thm8-lsq": ("thm8", "hinge", _BALL, "needs least squares"),
    "thm8-ball": ("thm8", "lsq", "", "needs a ball domain"),
    "propD2-lsq": ("propD2", "hinge", "[schedule]\nsigma = 0.1\n", "needs least squares"),
    "propD2-ridge": ("propD2", "lsq", "", "sigma (= the ridge strength) > 0"),
    "propD2-risk": ("propD2", "lsq_margin", "[schedule]\nsigma = 0.1\n",
                    "closed-form population risk"),
    "propD2-ball": ("propD2", "lsq", "[schedule]\nsigma = 0.1\n" + _BALL,
                    "runs without projection"),
    "propG2-hinge": ("propG2", "q_hinge_1.5", _POLY, "needs the plain hinge"),
    "propG1-hinge": ("propG1", "lsq", _POLY, "needs the plain hinge"),
    "propG1-poly": ("propG1", "hinge", "[schedule]\nkind = fixed_constant\neta1 = 0.1\n",
                    "needs a horizon_poly schedule"),
    "thm2-schedule": ("thm2", "lsq", "", "missing key 'kind' in [schedule]"),
    "thmD1-schedule": ("thmD1", "hinge", "[schedule]\nkind = fixed_constant\neta1 = -0.1\n",
                       "bad schedule parameters"),
    "thm6-schedule": ("thm6", "hinge", "[schedule]\nkind = poly_decay\neta1 = 0.1\n" + _BALL,
                      "missing key 'theta' in [schedule]"),
    "propG2-schedule": ("propG2", "hinge", "", "missing key 'kind' in [schedule]"),
    "propG1-schedule": ("propG1", "hinge", "[schedule]\nkind = horizon_poly\nc = 1.0\n",
                        "missing key 'theta' in [schedule]"),
    "thm2-replicates": ("thm2", "lsq", _SMALL_STEP, "target thm2 needs at least 2 replicates",
                        _ONE_REPLICATE),
    "thmD1-replicates": ("thmD1", "hinge", _POLY, "target thmD1 needs at least 2 replicates",
                         _ONE_REPLICATE),
    "thm2-T-overflow": ("thm2", "lsq", _SMALL_STEP,
                        "T = ceil(n^T_pow) overflows at n = 8, T_pow = 400", _OVERFLOWING_T),
    "thmD1-T-overflow": ("thmD1", "hinge", _POLY,
                         "T = ceil(n^T_pow) overflows at n = 8, T_pow = 400", _OVERFLOWING_T),
}


@pytest.mark.parametrize("case", sorted(_VIOLATIONS))
def test_cli_target_rules_are_checked_before_any_run(tmp_path, capsys, monkeypatch, case):
    # a config that misses one of its target's rules exits 2 before the
    # output directory is made, before the engine runs and before any
    # population risk is evaluated
    def fail(*args, **kwargs):
        raise AssertionError("work ran before the rules were checked")

    monkeypatch.setattr(_engine, "run_core", fail)
    monkeypatch.setattr(experiments, "population_risk", fail)
    monkeypatch.setattr(stability, "population_risk", fail)
    target, pair, rest, message, *changes = _VIOLATIONS[case]
    out = tmp_path / "res"
    text = (f"[experiment]\nkind = bound-check\ntarget = {target}\n"
            + _experiment_keys(*changes) + f"out_path = {out}\n" + _PAIRS[pair] + rest)
    assert main(["bound-check", "--config", _write(tmp_path, text)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["oracle", "stability-sweep", "rate-fit"])
@pytest.mark.parametrize("schedule, message", [
    ("", "missing key 'kind' in [schedule]"),
    ("[schedule]\nkind = fixed_constant\neta1 = -0.1\n", "bad schedule parameters"),
])
def test_cli_schedule_is_checked_before_any_run(tmp_path, capsys, monkeypatch, experiment,
                                                schedule, message):
    def fail(*args, **kwargs):
        raise AssertionError("work ran before the schedule was checked")

    monkeypatch.setattr(_engine, "run_core", fail)
    out = tmp_path / "res"
    text = (f"[experiment]\nkind = {experiment}\nn_grid = 2, 3\nreplicates = 4\n"
            f"out_path = {out}\n" + _PAIRS["lsq"] + schedule)
    assert main([experiment, "--config", _write(tmp_path, text)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("experiment, n_grid, code, message", [
    # 9^9 index sequences at n = T = 9 exceed the enumeration budget
    ("oracle", "3, 4, 9", 3, "enumeration needs 387420489 sequences"),
    ("rate-fit", "64, 128", 2, "rate-fit needs at least 3 n values in n_grid"),
    # (n_grid, the other [experiment] keys)
    pytest.param("rate-fit", ("64, 128, 256", "replicates = 1\n"), 2,
                 "rate-fit needs at least 2 replicates", id="rate-fit-one-replicate"),
    pytest.param("rate-fit", ("1, 8, 16", "replicates = 4\nT_rule = n_pow\nT_pow = 400\n"),
                 2, "T = ceil(n^T_pow) overflows at n = 8, T_pow = 400",
                 id="rate-fit-T-overflow"),
    # (n_grid, the other [experiment] keys, more [distribution] keys)
    pytest.param("stability-sweep", ("8, 16", "replicates = 4\n", "x_bound = -1.0\n"), 2,
                 "x_bound must be positive and finite, got -1.0", id="x-bound-negative"),
])
def test_cli_run_rules_are_checked_before_any_run(tmp_path, capsys, monkeypatch, experiment,
                                                  n_grid, code, message):
    # a rule that a later grid point breaks stops the run before the first
    def fail(*args, **kwargs):
        raise AssertionError("the engine ran before the rules were checked")

    monkeypatch.setattr(_engine, "run_core", fail)
    n_grid = n_grid if isinstance(n_grid, tuple) else (n_grid, "replicates = 4\n")
    n_grid, keys, dist_keys = n_grid + ("",) * (3 - len(n_grid))
    out = tmp_path / "res"
    text = (f"[experiment]\nkind = {experiment}\nn_grid = {n_grid}\n{keys}"
            f"out_path = {out}\n" + _PAIRS["lsq"] + dist_keys + _SMALL_STEP)
    assert main([experiment, "--config", _write(tmp_path, text)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]
    assert not out.exists()


# alpha = 0.5 pairs with no closed-form population risk or risk minimum
_HOLDER_PAIRS = {
    "q_hinge": ("[loss]\nkind = q_hinge\nq = 1.5\n"
                "[distribution]\nkind = margin_classif\nw_star = 1.0, 0.0, 0.0, 0.0\n"
                "cov = 0.25\nflip_prob = 0.1\n"),
    "q_power_abs": ("[loss]\nkind = q_power_abs\nq = 1.5\n"
                    "[distribution]\nkind = gauss_lin_reg\nw_star = 1.0, 0.0, 0.0, 0.0\n"
                    "cov = 0.25\nnoise_sd = 0.25\n"),
}


@pytest.mark.parametrize("target, pair, schedule", [
    ("thmD1", _HOLDER_PAIRS["q_hinge"], _POLY),
    ("thmD1", _HOLDER_PAIRS["q_power_abs"], _POLY),
    ("thm2", _PAIRS["power_2"], _SMALL_STEP),
], ids=["thmD1-q_hinge", "thmD1-q_power_abs", "thm2-q_power_abs"])
def test_cli_gap_without_closed_form_risk_uses_the_neighbour_runs(tmp_path, monkeypatch,
                                                                  target, pair, schedule):
    # with no closed-form population risk the gap gate takes E F(A(S)) from
    # the held-out loss of the neighbour runs, and no population risk is
    # evaluated
    def fail(*args, **kwargs):
        raise AssertionError("a population risk was evaluated")

    monkeypatch.setattr(experiments, "population_risk", fail)
    monkeypatch.setattr(stability, "population_risk", fail)
    out = tmp_path / "res"
    text = (f"[experiment]\nkind = bound-check\ntarget = {target}\nn_grid = 16\n"
            f"T_rule = equal_n\nreplicates = 20\nout_path = {out}\n" + pair + schedule)
    assert main(["bound-check", "--config", _write(tmp_path, text)]) == 0
    rows = [r.split(",") for r in (out / "bound-check.csv").read_text().splitlines()[1:]]
    assert all(r[3] == "16" and r[10] == "1" for r in rows)
    assert all(np.isfinite(float(r[k])) for r in rows for k in (7, 8, 9))
    [gap] = [r for r in rows if r[6] == "generalization_gap"]

    cfg = parse_config(text)
    loss, dist, sched = (build(s, cfg) for s in ("loss", "distribution", "schedule"))
    rep = stability.estimate_on_average_stability(loss, dist, 16, 16, sched, None,
                                                  cfg.replicates, cfg.master_seed,
                                                  record_risks=False)
    diff = rep.held_out - rep.emp_risk
    assert float(gap[7]) == float(diff.mean())
    assert float(gap[8]) == standard_error(diff)


def test_cli_rejects_the_removed_keys(tmp_path, capsys):
    # mc_pop (Monte-Carlo population risk) and output (rate-fit's iterate
    # selector) are gone, not ignored
    for key, value in (("mc_pop", "1000"), ("output", "final")):
        text = (f"[experiment]\nkind = stability-sweep\n{key} = {value}\n"
                f"out_path = {tmp_path / key}\n" + _PAIRS["lsq"] + _SMALL_STEP)
        assert main(["stability-sweep", "--config", _write(tmp_path, text)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"unknown key '{key}'" in err[0]
        assert not (tmp_path / key).exists()


def _thmD1_text(out, pair: str) -> str:
    return (f"[experiment]\nkind = bound-check\ntarget = thmD1\nn_grid = 16\n"
            f"T_rule = equal_n\nreplicates = 20\nout_path = {out}\n" + pair + _POLY)


@pytest.mark.parametrize("pair, records", [
    (_PAIRS["hinge"], False), (_HOLDER_PAIRS["q_hinge"], True)],
    ids=["alpha-0", "alpha-0.5"])
def test_cli_thmD1_records_risks_only_where_its_bound_reads_them(tmp_path, monkeypatch,
                                                                  pair, records):
    # the rhs weights step j by E[F_S(w_j)^(2 alpha / (1 + alpha))]; at
    # alpha = 0 that is 1 whatever the risks are, so the runs record none
    calls = []
    run_core = _engine.run_core

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return run_core(*args, **kwargs)

    monkeypatch.setattr(_engine, "run_core", spy)
    cfg_path = _write(tmp_path, _thmD1_text(tmp_path / "res", pair))
    assert main(["bound-check", "--config", cfg_path]) == 0
    assert calls
    for kwargs in calls:
        assert (kwargs.get("risk_ckpt_steps") is not None) == records
        assert kwargs.get("average_weights") is None


def test_cli_thmD1_hinge_rhs_equals_the_bound_on_the_recorded_risks(tmp_path):
    # the rhs on a recorded risk path: F_S at every step raised to the power
    # 0, then mean + stderr per step; a run that records no path has its bits
    out = tmp_path / "res"
    text = _thmD1_text(out, _PAIRS["hinge"])
    assert main(["bound-check", "--config", _write(tmp_path, text)]) == 0
    rows = [r.split(",") for r in (out / "bound-check.csv").read_text().splitlines()[1:]]
    [l2] = [r for r in rows if r[6] == "l2_sq_stability"]

    cfg = parse_config(text)
    loss, dist, sched = (build(s, cfg) for s in ("loss", "distribution", "schedule"))
    n = T = 16
    rep = stability.estimate_on_average_stability(loss, dist, n, T, sched, None,
                                                  cfg.replicates, cfg.master_seed,
                                                  record_risks=True)
    consts = support_constants(loss, dist)
    path = expand_risk_path(
        rep.risk_steps, experiments._upper(np.power(np.maximum(rep.risk, 0.0), 0.0)), T)
    rhs = thmD1_nonsmooth_l2_bound(n, sched.etas(T), loss.alpha, consts.c1, consts.c3, path)
    assert float(l2[9]) == rhs
    assert float(l2[7]) == float(rep.l2_sq.mean())


def test_cli_out_naming_a_file_exits_2_before_running(tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    cfg_path = _write(tmp_path, _properties_text(tmp_path / "ignored"))

    def fail(cfg):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(experiments, "_run_properties", fail)
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "missing")
    # the file itself, a directory to be made below it, a dangling symlink
    for out in (taken, taken / "sub", dangling):
        assert main(["properties", "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"out_path {str(out)!r}" in err[0]
    assert taken.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini", "dangling", "taken"]


def test_cli_rate_fit_with_subnormal_flip_prob_exits_2(tmp_path, capsys):
    # the hinge risk minimiser's scale g* ~ 1/sqrt(2 pf) overflows when
    # squared, so there is no F* to measure the excess risk against
    out = tmp_path / "res"
    text = (f"[experiment]\nkind = rate-fit\nn_grid = 4, 8\nreplicates = 4\n"
            f"master_seed = 1\nout_path = {out}\n"
            "[loss]\nkind = q_hinge\nq = 1.0\n"
            "[distribution]\nkind = margin_classif\nw_star = 1.0, 0.0\ncov = 0.25\n"
            "flip_prob = 1e-320\n"
            "[schedule]\nkind = fixed_constant\neta1 = 0.05\n")
    assert main(["rate-fit", "--config", _write(tmp_path, text)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "flip_prob" in err[0]
    assert not out.exists()


def test_cli_prints_one_line_per_gate(tmp_path, capsys):
    out, ref = tmp_path / "cli", tmp_path / "ref"
    text = _THM2_TEXT + "eta1 = 0.015625\n[experiment]\n"
    assert main(["bound-check", "--config", _write(tmp_path, text),
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [r for r in (out / "bound-check.csv").read_text().splitlines()[1:]
            if r.split(",")[10] != ""]
    assert len(lines) == len(rows) == 6
    for line, row in zip(lines, rows):
        name, n, T, measured, rhs, slack, satisfied = line.split()
        cells = row.split(",")
        assert [name, n, T, satisfied] == [cells[6], cells[3], cells[4], cells[10]]
        assert float(measured) == pytest.approx(float(cells[7]), rel=1e-5)
        assert float(rhs) == pytest.approx(float(cells[9]), rel=1e-5)
        assert float(slack) > 0.0
    # printing leaves the CSV bytes as run_experiment writes them
    run_experiment(parse_config(text + f"out_path = {ref}\n"))
    assert (out / "bound-check.csv").read_bytes() == (ref / "bound-check.csv").read_bytes()


@pytest.mark.parametrize("argv,message", [
    (["bogus", "--config", "x"], "invalid choice: 'bogus'"),
    (["rate-fit", "--config", "x", "--seed", "abc"], "invalid int value: 'abc'"),
])
def test_cli_argument_error_prints_one_line_exit_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("lab: config error: ") and message in err[0]
    assert captured.out == ""


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "bound-check" in capsys.readouterr().out


_ORACLE_TEXT = ("[experiment]\nkind = oracle\nn_grid = 2, 3\nreplicates = 64\nmaster_seed = 1\n"
                "[loss]\nkind = least_squares\n"
                "[distribution]\nkind = gauss_lin_reg\nw_star = 1.0, 0.0\ncov = 0.5\n"
                "noise_sd = 0.3\n"
                "[schedule]\nkind = fixed_constant\neta1 = 0.1\n")

_THM8_TEXT = ("[experiment]\nkind = bound-check\ntarget = thm8\nn_grid = 16\n"
              "replicates = 10\nmaster_seed = 1\n"
              "[loss]\nkind = least_squares\n"
              "[distribution]\nkind = gauss_lin_reg\nw_star = 1.0, 0.0\ncov = 0.25\n"
              "noise_sd = 0.25\n" + _BALL)
_PROPD2_TEXT = ("[experiment]\nkind = bound-check\ntarget = propD2\nn_grid = 16\n"
                "replicates = 20\nmaster_seed = 1\n"
                "[loss]\nkind = least_squares\n"
                "[distribution]\nkind = gauss_lin_reg\nw_star = 1.0, 0.0\ncov = 0.125\n"
                "noise_sd = 0.5\n[schedule]\nsigma = 1.0\n")
_THM6_TEXT = ("[experiment]\nkind = bound-check\ntarget = thm6\nn_grid = 16\n"
              "replicates = 16\ndraws = 2000\nmaster_seed = 1\n"
              "[loss]\nkind = auc_square\n"
              "[distribution]\nkind = imbalanced_gauss\np_plus = 0.3\n"
              "mu_plus = 0.1, 0.0\nmu_minus = -0.1, 0.0\ncov_plus = 0.09\n"
              "cov_minus = 0.09\n"
              "[schedule]\nkind = poly_decay\neta1 = 0.1\ntheta = 0.6\n"
              "[domain]\nkind = ball\nradius = 0.5\n")
_PROPG2_TEXT = ("[experiment]\nkind = bound-check\ntarget = propG2\nn_grid = 8\n"
                "replicates = 10\nepochs = 2\nmaster_seed = 1\n" + _PAIRS["hinge"] + _POLY)
_PROPG1_TEXT = ("[experiment]\nkind = bound-check\ntarget = propG1\nn_grid = 8\n"
                "replicates = 20\ndelta = 0.1\nmaster_seed = 1\n" + _PAIRS["hinge"] + _POLY)

# One key of a valid config set to a bad or extreme value, and the exit code
# the run must end in: 0 every gate passed (measurements that underflow
# included), 1 a gate failed (a NaN measurement fails its gate), 2 a config
# error (a derived constant that overflows included), 3 a resource limit.
_MUTATIONS = [
    # l2^2 underflows to a subnormal, and the squares of the oracle's values
    # underflow in their standard error
    pytest.param(_THM2_TEXT + "eta1 = 0.015625\n", "eta1", "1e-160", 0,
                 id="thm2-eta1-1e-160"),
    pytest.param(_thmD1_text("res", _PAIRS["hinge"]), "c", "1e-160", 0,
                 id="thmD1-hinge-c-1e-160"),
    pytest.param(_ORACLE_TEXT, "eta1", "1e-160", 0, id="oracle-eta1-1e-160"),
    pytest.param(_ORACLE_TEXT, "eta1", "1e-100", 0, id="oracle-eta1-1e-100"),
    # distances of about 1e299, whose components' squares overflow
    pytest.param(_PROPG2_TEXT, "c", "1e300", 0, id="propG2-c-1e300"),
    pytest.param(_PROPG1_TEXT, "c", "1e300", 0, id="propG1-c-1e300"),
    pytest.param(_THM2_TEXT + "eta1 = 0.015625\n", "w_star", "", 2, id="thm2-empty-w_star"),
    pytest.param(_ORACLE_TEXT, "n_grid", "", 2, id="oracle-empty-n_grid"),
    pytest.param(_ORACLE_TEXT, "eta1", "1e300", 1, id="oracle-eta1-1e300"),
    pytest.param(_ORACLE_TEXT, "cov", "1e300", 1, id="oracle-cov-1e300"),
    # sigma'_S^2 underflows to 0, or 4 L^2 / sigma'_S^2 is inf / inf
    pytest.param(_THM8_TEXT, "cov", "1e-320", 2, id="thm8-cov-1e-320"),
    pytest.param(_THM8_TEXT, "cov", "1e300", 2, id="thm8-cov-1e300"),
    # the closed-form risk adds noise_sd^2
    pytest.param(_THM2_TEXT + "eta1 = 0.015625\n", "noise_sd", "1e300", 2,
                 id="thm2-noise_sd-1e300"),
    pytest.param(_PROPD2_TEXT, "noise_sd", "1e300", 2, id="propD2-noise_sd-1e300"),
    # the AUC surrogate's L on the feature ball is finite, and its square is not
    pytest.param(_THM6_TEXT, "cov_plus", "1e300", 2, id="thm6-cov_plus-1e300"),
    pytest.param(_THM6_TEXT, "cov_minus", "1e300", 2, id="thm6-cov_minus-1e300"),
    pytest.param(_THM6_TEXT, "mu_plus", "1e150, 1e150", 2, id="thm6-mu_plus-1e150"),
    pytest.param(_THM6_TEXT, "mu_minus", "1e150, 1e150", 2, id="thm6-mu_minus-1e150"),
    # C_T = prod_j (1 + L^2 eta_j^2) in thm6's bound overflows, and so does
    # propD2's factor 2 c1^2 / (n sigma)
    pytest.param(_THM6_TEXT, "eta1", "1e300", 2, id="thm6-eta1-1e300"),
    pytest.param(_THM6_TEXT, "eta1", str(2 ** 63), 2, id="thm6-eta1-2^63"),
    pytest.param(_THM6_TEXT, "cov_plus", str(2 ** 63), 2, id="thm6-cov_plus-2^63"),
    pytest.param(_THM6_TEXT, "cov_minus", str(2 ** 63), 2, id="thm6-cov_minus-2^63"),
    pytest.param(_PROPD2_TEXT, "sigma", "1e-320", 2, id="propD2-sigma-1e-320"),
    # 0.2 and 2e-317 positive draws expected: a probe sample would hold none
    pytest.param(_THM6_TEXT, "p_plus", "1e-4", 2, id="thm6-p_plus-1e-4"),
    pytest.param(_THM6_TEXT, "p_plus", "1e-320", 2, id="thm6-p_plus-1e-320"),
    # c3 = (2^-alpha L)^(1/(1 - alpha)) overflows as it is computed
    pytest.param(_thmD1_text("res", _HOLDER_PAIRS["q_hinge"]), "cov", "1e250", 2,
                 id="thmD1-q_hinge_1.5-cov-1e250"),
    # sizes no run can hold end before the output directory is made
    pytest.param(_PROPD2_TEXT, "replicates", str(2 ** 63), 3, id="propD2-replicates-2^63"),
    pytest.param(_PROPD2_TEXT, "n_grid", str(2 ** 63), 3, id="propD2-n_grid-2^63"),
    pytest.param(_THM6_TEXT, "draws", str(2 ** 63), 3, id="thm6-draws-2^63"),
    pytest.param(_PROPG2_TEXT, "epochs", str(2 ** 63), 3, id="propG2-epochs-2^63"),
]


@pytest.mark.parametrize("text, key, value, code", _MUTATIONS)
def test_cli_config_mutations_end_in_their_exit_codes(tmp_path, capsys, text, key, value,
                                                      code):
    text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert count == 1
    experiment = re.search(r"^kind = (.*)$", text, flags=re.M).group(1)
    cfg_path = _write(tmp_path, text)
    assert main([experiment, "--config", cfg_path, "--out", str(tmp_path / "res")]) == code
    if code in (2, 3):
        assert len(capsys.readouterr().err.splitlines()) == 1
    if code == 3:
        assert not (tmp_path / "res").exists()


def test_cli_import_leaves_dataclasses_unloaded():
    # the records are NamedTuples: no class statement generates code at import
    import sgdlab
    src = os.path.dirname(os.path.dirname(sgdlab.__file__))
    code = "import sys, sgdlab.harness.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _lab_in_fresh_process(tmp_path, argv):
    """Run ``main(argv)`` in a new interpreter; return its exit code and the scipy modules it loaded."""
    import sgdlab
    src = os.path.dirname(os.path.dirname(sgdlab.__file__))
    code = ("import sys\n"
            "from sgdlab.harness.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    exit_code, modules = proc.stdout.splitlines()[-1].split(" ", 1)
    return int(exit_code), modules


def test_least_squares_run_leaves_scipy_unloaded(tmp_path):
    cfg_path = _write(tmp_path, _THM2_TEXT + "eta1 = 0.015625\n[experiment]\n")
    code, modules = _lab_in_fresh_process(
        tmp_path, ["bound-check", "--config", cfg_path, "--out", str(tmp_path / "res")])
    assert code == 0
    assert modules == "[]"


@pytest.mark.parametrize("text", [
    # the exact hinge population risk on the margin model needs Owen's T,
    # which the package computes itself
    pytest.param("[experiment]\nkind = bound-check\ntarget = thmD1\nn_grid = 8\n"
                 "T_rule = equal_n\nreplicates = 4\nmaster_seed = 0\n"
                 "[loss]\nkind = q_hinge\nq = 1.0\n"
                 "[distribution]\nkind = margin_classif\nw_star = 1.0, 0.0\n"
                 "cov = 0.25\nflip_prob = 0.1\n"
                 "[schedule]\nkind = horizon_poly\nc = 1.0\ntheta = 0.75\n",
                 id="hinge_margin"),
    pytest.param("[experiment]\nkind = bound-check\ntarget = thm6\nn_grid = 8\n"
                 "T_rule = equal_n\nreplicates = 4\ndraws = 200\nmaster_seed = 0\n"
                 "[loss]\nkind = auc_square\n"
                 "[distribution]\nkind = imbalanced_gauss\np_plus = 0.3\n"
                 "mu_plus = 0.1, 0.0\nmu_minus = -0.1, 0.0\ncov_plus = 0.09\n"
                 "cov_minus = 0.09\n"
                 "[schedule]\nkind = poly_decay\neta1 = 0.1\ntheta = 0.6\n"
                 "[domain]\nkind = ball\nradius = 0.5\n",
                 id="auc"),
])
def test_run_leaves_scipy_unloaded(tmp_path, text):
    code, modules = _lab_in_fresh_process(
        tmp_path, ["bound-check", "--config", _write(tmp_path, text),
                   "--out", str(tmp_path / "res")])
    assert code == 0
    assert modules == "[]"


def test_console_script_installed(tmp_path):
    cfg_path = _write(tmp_path, _properties_text(tmp_path / "res", draws=20))
    proc = subprocess.run(["lab", "properties", "--config", cfg_path],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    proc2 = subprocess.run(["lab", "--help"], capture_output=True, text=True)
    assert proc2.returncode == 0
    assert "bound-check" in proc2.stdout
