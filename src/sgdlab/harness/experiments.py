"""Experiment drivers behind the `lab` CLI.

Five experiment kinds:

- properties: run the inequality checkers over a battery of loss instances,
  each checker on all draws in one batched call (one CSV row per
  checker/loss pair, value = failed draws);
- oracle: Monte-Carlo stability vs exact enumeration on tiny (n, T);
- stability-sweep: measure l1/l2 on-average stability over an n grid;
- rate-fit: excess risk of the averaged iterate over an n grid plus a
  log-log slope fit;
- bound-check: measured quantities gated against the closed-form right-hand
  sides (select with `target`).  The targets that run replace-one
  neighbours (thm2, thmD1, thm6, propG2) share one runner, which takes the
  l2 and gap bounds from the loss's alpha.

Every row carries the master seed and a hash of the canonical config; float
cells use 17 significant digits so reruns are byte-comparable.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import _engine
from ..bounds import (
    BoundReport,
    expand_risk_path,
    gate,
    propD2_erm_bound,
    propG1_high_prob_bound,
    propG2_without_replacement_bound,
    roundoff_allowance,
    thm1b_generalization_bound,
    thm1c_generalization_bound,
    thm2_l1_bound,
    thm2_l2_bound,
    thm6_convex_stability_bound,
    thm8_strongly_convex_stability_bound,
    thmD1_nonsmooth_l2_bound,
)
from ..data import (
    closed_form_risk,
    min_positive_eigenvalue,
    population_risk,
    population_risk_minimum,
    sample_dataset,
    sample_neighbor_family,
    Dataset,
)
from ..errors import ConfigError, PreconditionViolation, ResourceLimitExceeded
from ..losses import (
    CHECK_PRECONDITIONS,
    check_cocoercivity,
    check_expansiveness_slack,
    check_gradient_monotonicity,
    check_nonexpansive,
    check_self_bounding,
    check_smoothness_upper_bound,
    support_constants,
    AucSquare,
    LeastSquares,
    QNormHinge,
    QPowerAbsolute,
    _rowdot,
)
from ..optim import t0_for_strong_convexity, StronglyConvexDecay
from ..stability import (
    brute_force_stability,
    coupled_distances,
    enumeration_count,
    estimate_generalization_gap,
    estimate_on_average_stability,
    gap_from_stability,
    replicate_chunks,
    replicate_data,
)
from .config import (
    ExperimentConfig,
    build,
    config_hash,
    steps_for,
    validate_config,
)
from .ratefit import fit_loglog_slope

CSV_HEADER = ("experiment", "config_hash", "seed", "n", "T", "theta",
              "metric", "value", "stderr", "bound_rhs", "satisfied")

# derivation tags private to the harness (distinct from the engine's)
_TAG_BATTERY = 0xC4
_TAG_UNBIASED = 0xE5

#: elements a configured size may ask for: the size times the width of the
#: rows it counts.  2^32 float64 elements are 32 GiB, past the memory of the
#: machines the lab is run on; a larger size would not fail before the run
#: but midway, in a numpy allocation, as an internal error.
MAX_ELEMENTS = 2 ** 32


class CsvRow(NamedTuple):
    experiment: str
    config_hash: str
    seed: int
    n: Optional[int]
    T: Optional[int]
    theta: Optional[float]
    metric: str
    value: float
    stderr: Optional[float]
    bound_rhs: Optional[float]
    satisfied: Optional[bool]


def standard_error(vals: np.ndarray):
    """The standard error of the mean over axis 0; 0 for fewer than two rows.

    A float for (R,) values, one value per column for (R, C).  Each column is
    scaled by a power of two that brings its largest |value| into [1/2, 1)
    before its squares are summed, and the result is scaled back: the scaling
    is exact, so values near the ends of the float range neither underflow
    nor overflow in the squares, and the rest keep their bits.
    """
    R = vals.shape[0]
    if R < 2:
        se = np.zeros(vals.shape[1:])
    else:
        e = np.frexp(np.abs(vals).max(axis=0))[1]
        se = np.ldexp(np.ldexp(vals, -e).std(axis=0, ddof=1) / math.sqrt(R), e)
    return float(se) if vals.ndim == 1 else se


def _mean_se(vals: np.ndarray) -> Tuple[float, float]:
    """The mean of (R,) replicate values and its standard error."""
    return float(vals.mean()), standard_error(vals)


def _upper(vals: np.ndarray):
    """Mean plus one standard error over axis 0: the conservative direction
    for a measured quantity that feeds a bound's right-hand side."""
    return vals.mean(axis=0) + standard_error(vals)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path: str, rows: List[CsvRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([r.experiment, r.config_hash, str(r.seed),
                             _fmt(r.n), _fmt(r.T), _fmt(r.theta), r.metric,
                             _fmt(r.value), _fmt(r.stderr), _fmt(r.bound_rhs),
                             _fmt(r.satisfied)])


class GateLine(NamedTuple):
    """A gate's outcome with the grid point it was measured at."""

    report: BoundReport
    n: Optional[int]
    T: Optional[int]

    def __str__(self) -> str:
        r = self.report
        n = "-" if self.n is None else self.n
        T = "-" if self.T is None else self.T
        return (f"{r.name} {n} {T} {r.measured:.6g} {r.rhs:.6g} "
                f"{r.slack_sigma:.3g} {int(r.satisfied)}")


class _Emitter:
    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.hash = config_hash(cfg)
        self.rows: List[CsvRow] = []
        self.gates: List[GateLine] = []

    def row(self, metric: str, value: float, *, n=None, T=None, theta=None,
            stderr=None, bound_rhs=None, satisfied=None) -> None:
        self.rows.append(CsvRow(self.cfg.experiment, self.hash,
                                self.cfg.master_seed, n, T, theta, metric,
                                float(value), stderr, bound_rhs, satisfied))

    def gate_row(self, name: str, rhs: float, measured: float, stderr: float,
                 *, n=None, T=None, theta=None, roundoff=0.0) -> bool:
        rep = gate(name, rhs, measured, stderr, roundoff)
        self.gates.append(GateLine(rep, n, T))
        self.row(name, rep.measured, n=n, T=T, theta=theta, stderr=stderr,
                 bound_rhs=rep.rhs, satisfied=rep.satisfied)
        return rep.satisfied

    def ok(self) -> bool:
        return all(r.satisfied is not False for r in self.rows)


def _grid(cfg: ExperimentConfig, steps=steps_for):
    """Yield ``(n, T, schedule, theta)`` over the n grid, with T = steps(cfg, n)
    and one schedule, a rule in T (theta is None for schedules without one)."""
    sched = build("schedule", cfg)
    theta = getattr(sched, "theta", None)
    for n in cfg.n_grid:
        yield n, steps(cfg, n), sched, theta


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_BATTERY_MU = np.array([0.1, 0.0, 0.0, 0.0, 0.0])


def property_battery():
    """Loss instances the properties experiment exercises (label, loss)."""
    return [
        ("least_squares", LeastSquares()),
        ("q_hinge_1.0", QNormHinge(q=1.0)),
        ("q_hinge_1.5", QNormHinge(q=1.5)),
        ("q_power_abs_1.5", QPowerAbsolute(q=1.5)),
        ("q_power_abs_2.0", QPowerAbsolute(q=2.0)),
        ("auc_square", AucSquare(p=0.3, mu_plus=_BATTERY_MU, mu_minus=-_BATTERY_MU)),
    ]


# each checker as (loss, w, w2, X, y, eta) -> one bool per row; a runner looks its
# checker up here when it runs, so a wrapper of the name (bench/tracing.py's) sees it
_CHECK_RUNNERS = {
    "self_bounding": lambda l, w, w2, X, y, eta: check_self_bounding(l, w, X, y),
    "gradient_monotonicity":
        lambda l, w, w2, X, y, eta: check_gradient_monotonicity(l, w, w2, X, y),
    "cocoercivity": lambda l, w, w2, X, y, eta: check_cocoercivity(l, w, w2, X, y),
    "nonexpansive": lambda l, w, w2, X, y, eta: check_nonexpansive(l, w, w2, X, y, eta),
    "expansiveness_slack":
        lambda l, w, w2, X, y, eta: check_expansiveness_slack(l, w, w2, X, y, eta),
    "smoothness_upper_bound":
        lambda l, w, w2, X, y, eta: check_smoothness_upper_bound(l, w, w2, X, y),
}


def applicable_checks(loss):
    """(name, runner) of each checker whose ``CHECK_PRECONDITIONS`` entry the loss meets."""
    return [(name, _CHECK_RUNNERS[name])
            for name, (_, holds) in CHECK_PRECONDITIONS.items() if holds(loss)]


def battery_draws(index: int, label: str, loss, draws: int, master_seed: int):
    """The random rows (W, W2, X, Y, U) of battery loss number `index`.

    Parameters are Gaussian with sd 2, features are clipped to norm 3, labels
    are +-1 for the classification losses, and U in (0, 1] scales the step
    sizes, with U = 1 on every 16th draw.
    """
    x_bound = 3.0
    d = _BATTERY_MU.shape[0] if label == "auc_square" else 4
    rng = _engine.path_generator(master_seed, _TAG_BATTERY, index)
    W = 2.0 * rng.standard_normal((draws, d))
    W2 = 2.0 * rng.standard_normal((draws, d))
    X = rng.standard_normal((draws, d))
    nrm = np.linalg.norm(X, axis=1)
    X *= np.minimum(1.0, x_bound / np.maximum(nrm, 1e-300))[:, None]
    if loss.binary_labels:
        Y = np.where(rng.random(draws) < 0.5, 1.0, -1.0)
    else:
        Y = 2.0 * rng.standard_normal(draws)
    U = rng.random(draws)
    U[::16] = 1.0
    return W, W2, X, Y, U


def run_property_battery(draws: int, master_seed: int):
    """Run every applicable checker on `draws` random (w, w2, z, eta) tuples.

    Each checker sees all draws of its loss as one batch of rows.  Returns
    (check_name, loss_label, draws, failures) per pair.  Step sizes for the
    non-expansiveness check are scaled into (0, 2/L(z)] with the boundary
    value hit exactly on every 16th draw.
    """
    results = []
    for bi, (label, loss) in enumerate(property_battery()):
        W, W2, X, Y, U = battery_draws(bi, label, loss, draws, master_seed)
        for name, fn in applicable_checks(loss):
            eta = U * 2.0 / loss.holder_constant(X, Y) if name == "nonexpansive" else U
            ok = fn(loss, W, W2, X, Y, eta)
            results.append((name, label, draws, draws - int(np.count_nonzero(ok))))
    return results


def _run_properties(cfg: ExperimentConfig, em: _Emitter) -> None:
    for name, label, draws, failures in run_property_battery(cfg.draws, cfg.master_seed):
        em.row(f"{name}:{label}", float(failures), bound_rhs=0.0,
               satisfied=(failures == 0))


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _run_oracle(cfg: ExperimentConfig, em: _Emitter, loss, dist, domain) -> None:
    for n, T, sched, theta in _grid(cfg):
        family = sample_neighbor_family(dist, n, cfg.master_seed)
        l1_exact, l2_exact = brute_force_stability(loss, family, sched, domain, T)
        rep = estimate_on_average_stability(loss, None, n, T, sched, domain,
                                            cfg.replicates, cfg.master_seed,
                                            record_risks=False, fixed_family=family)
        l1, l1_se = _mean_se(rep.l1)
        l2_sq, l2_sq_se = _mean_se(rep.l2_sq)
        em.row("l1_mc", l1, n=n, T=T, theta=theta, stderr=l1_se)
        em.row("l1_exact", l1_exact, n=n, T=T, theta=theta)
        # each side is a mean over R replicates (or the n^T index sequences)
        # of per-row means over the n neighbours, all of nonnegative terms;
        # a term meets the roundings of both sums, so the allowances of the
        # two levels add (the outer one taken at the longer of the two sums)
        count = max(cfg.replicates, n ** T)

        def roundoff(exact, mc):
            return roundoff_allowance(exact, mc, n) + roundoff_allowance(exact, mc, count)

        em.gate_row("l1_agreement", 0.0, abs(l1 - l1_exact), l1_se, n=n, T=T,
                    theta=theta, roundoff=roundoff(l1_exact, l1))
        em.row("l2_sq_mc", l2_sq, n=n, T=T, theta=theta, stderr=l2_sq_se)
        em.row("l2_sq_exact", l2_exact, n=n, T=T, theta=theta)
        em.gate_row("l2_sq_agreement", 0.0, abs(l2_sq - l2_exact), l2_sq_se, n=n, T=T,
                    theta=theta, roundoff=roundoff(l2_exact, l2_sq))


# ---------------------------------------------------------------------------
# stability sweep / rate fit
# ---------------------------------------------------------------------------

def _run_stability_sweep(cfg: ExperimentConfig, em: _Emitter, loss, dist,
                         domain) -> None:
    for n, T, sched, theta in _grid(cfg):
        rep = estimate_on_average_stability(loss, dist, n, T, sched, domain, cfg.replicates,
                                            cfg.master_seed, record_risks=False)
        for metric, vals in (("l1_stability", rep.l1), ("l2_sq_stability", rep.l2_sq),
                             ("final_emp_risk", rep.emp_risk)):
            mean, se = _mean_se(vals)
            em.row(metric, mean, n=n, T=T, theta=theta, stderr=se)


def _run_rate_fit(cfg: ExperimentConfig, em: _Emitter, loss, dist, domain) -> None:
    f_star, _ = population_risk_minimum(loss, dist)
    points = []
    for n, T, sched, theta in _grid(cfg):
        rep = estimate_generalization_gap(loss, dist, n, T, sched, domain,
                                          cfg.replicates, cfg.master_seed)
        excess, excess_se = _mean_se(rep.pop - f_star)
        em.row("excess_risk", excess, n=n, T=T, theta=theta, stderr=excess_se)
        points.append((n, excess))
    fit = fit_loglog_slope(points)
    if cfg.slope_gate is not None:
        em.gate_row("slope", cfg.slope_gate, fit.slope, 0.0, theta=theta)
    else:
        em.row("slope", fit.slope, theta=theta)
    em.row("r_squared", fit.r_squared, theta=theta)


# ---------------------------------------------------------------------------
# bound checks
# ---------------------------------------------------------------------------

def _replace_one(cfg: ExperimentConfig, em: _Emitter, loss, dist, domain, *,
                 l1=None, l2: bool = False, epochs: bool = False) -> None:
    """Gate the on-average stability of replace-one neighbours over the n grid.

    ``l1(n, etas, consts, loss, path)`` gives the name and rhs of an l1 gate;
    ``path(f)`` is the mean plus stderr of f(max(F_S(w_j), 0)), j = 1..T.
    ``l2`` adds the l2^2 and gap gates of the same runs (Theorems 2 and 1(b)
    at alpha = 1, D.1 and 1(c) below); ``epochs`` runs ``cfg.epochs`` epochs
    without replacement.
    """
    consts = support_constants(loss, dist, domain)
    frac_expo = 2.0 * loss.alpha / (1.0 + loss.alpha)
    steps = (lambda cfg, n: cfg.epochs * n) if epochs else steps_for
    for n, T, sched, theta in _grid(cfg, steps):
        etas = sched.etas(T)
        # the l2 rhs weights step j by E[F_S(w_j)^frac_expo], which is
        # E F_S(w_j) at alpha = 1, where F^1 is exactly F.  At alpha = 0 the
        # exponent is 0, every F^0 is 1 (0 and NaN included), and the mean
        # plus stderr of ones is exactly 1, so the runs record no risk path
        rep = estimate_on_average_stability(loss, dist, n, T, sched, domain, cfg.replicates,
                                            cfg.master_seed,
                                            record_risks=l2 and frac_expo > 0.0,
                                            without_replacement=epochs)

        def path(f):
            return expand_risk_path(rep.risk_steps, _upper(f(np.maximum(rep.risk, 0.0))), T)

        at = dict(n=n, T=T, theta=theta)
        if l1 is not None:
            em.gate_row(*l1(n, etas, consts, loss, path), *_mean_se(rep.l1), **at)
        if not l2:
            continue
        frac_path = path(lambda F: np.power(F, frac_expo)) if frac_expo > 0.0 else np.ones(T)
        gap = gap_from_stability(loss, dist, rep)
        if loss.alpha == 1.0:
            l2_rhs = thm2_l2_bound(n, etas, consts.L, frac_path)
            gap_rhs = thm1b_generalization_bound(consts.L, _upper(rep.l2_sq),
                                                 _upper(rep.emp_risk))
        else:
            l2_rhs = thmD1_nonsmooth_l2_bound(n, etas, loss.alpha, consts.c1, consts.c3,
                                              frac_path)
            # E[F^frac] <= (E F)^frac by concavity, so (E F + stderr)^frac is
            # conservative for the rhs.  Without a closed form gap.pop is the
            # held-out loss, whose mean is E F(A(S)) because A(S^(i)) has the
            # law of A(S) and is independent of z_i
            gap_rhs = thm1c_generalization_bound(consts.c1, _upper(rep.l2_sq),
                                                 max(_upper(gap.pop), 0.0) ** frac_expo)
        em.gate_row("l2_sq_stability", l2_rhs, *_mean_se(rep.l2_sq), **at)
        em.gate_row("generalization_gap", gap_rhs, *_mean_se(gap.gap), **at)


def _thm2_l1(n, etas, consts, loss, path):
    return "l1_stability", thm2_l1_bound(n, etas, consts.L, path(np.sqrt))


def _thm6_l1(n, etas, consts, loss, path):
    return "l1_stability", thm6_convex_stability_bound(n, etas, consts.L, consts.G)


def _propG2_l1(n, etas, consts, loss, path):
    # epoch k runs steps k n + 1 .. (k + 1) n
    return "epoch_l1_stability", propG2_without_replacement_bound(
        etas.reshape(-1, n), loss.alpha, consts.c3, consts.G, n)


def _check_thm6(cfg: ExperimentConfig, em: _Emitter, loss, dist, domain) -> None:
    _replace_one(cfg, em, loss, dist, domain, l1=_thm6_l1)
    # the surrogate's expectation must reproduce the closed-form population
    # objective: Monte-Carlo check at the origin and at an interior point
    probes = [np.zeros(dist.dim)]
    w1 = np.zeros(dist.dim)
    w1[0] = domain.radius / 2.0
    probes.append(w1)
    for j, w in enumerate(probes):
        ds = sample_dataset(dist, cfg.draws,
                            _engine.derive_seed(cfg.master_seed, _TAG_UNBIASED, j))
        vals = loss.batch_value(np.broadcast_to(w, (cfg.draws, dist.dim)),
                                ds.features, ds.labels)
        mc, se = _mean_se(vals)
        analytic = population_risk(loss, dist, w)
        # two-sided agreement at 3 sigma plus the round-off of the mean: at
        # w = 0 every draw equals p (1 - p), so se is itself round-off and
        # the mean can miss the closed form by a few ulp
        roundoff = roundoff_allowance(analytic, float(np.abs(vals).mean()), cfg.draws)
        em.gate_row(f"unbiasedness_probe_{j}", 0.0, abs(mc - analytic), se,
                    roundoff=roundoff)


def _check_thm8(cfg: ExperimentConfig, em: _Emitter, loss, dist, domain) -> None:
    consts = support_constants(loss, dist, domain)
    for n in cfg.n_grid:
        T = steps_for(cfg, n)
        draw = replicate_data(dist, n, cfg.master_seed, ghosts=False)
        rhss = np.empty(cfg.replicates)

        def data(lo, hi):
            # each ghost is the zero example, which the engine reads only at position 0
            Xs, ys = draw(lo, hi)
            return Xs, ys, np.broadcast_to(0.0, Xs.shape), np.broadcast_to(0.0, ys.shape)

        def etas(lo, hi, Xs, ys):
            # sigma'_S, t0 and the step sizes of each replicate's own dataset
            out = np.empty((hi - lo, T))
            for k in range(hi - lo):
                sigma = min_positive_eigenvalue(Dataset(features=Xs[k], labels=ys[k]))
                t0 = t0_for_strong_convexity(consts.L, sigma)
                out[k] = StronglyConvexDecay(sigma=sigma, t0=t0).etas(T)
                rhss[lo + k] = thm8_strongly_convex_stability_bound(n, consts.G, sigma, T, t0)
            return out

        dists = coupled_distances(loss, data, n, T, etas, domain, cfg.replicates,
                                  cfg.master_seed)
        em.gate_row("zero_example_stability", float(rhss.mean()), *_mean_se(dists),
                    n=n, T=T)


def _ridge_c1(cfg, loss, dist) -> float:
    # per-example objective f + (lam/2)||w||^2 is smooth with constant L + lam
    return math.sqrt(2.0 * (support_constants(loss, dist).L + cfg.sigma))


def _check_propD2(cfg: ExperimentConfig, em: _Emitter, loss, dist, domain) -> None:
    lam = cfg.sigma
    c1 = _ridge_c1(cfg, loss, dist)
    for n in cfg.n_grid:
        R = cfg.replicates
        draw = replicate_data(dist, n, cfg.master_seed, ghosts=False)
        gaps, fracs = np.empty((2, R))
        for lo, hi in replicate_chunks(R, n, 1):
            Xs, ys = draw(lo, hi)
            # the chunk's ridge systems (X'X/n + lam I) w = X'y/n, solved as one stack
            Xt = Xs.swapaxes(1, 2)
            A = Xt @ Xs / n + lam * np.eye(dist.dim)
            W = np.linalg.solve(A, Xt @ ys[..., None] / n)[..., 0]
            pop = population_risk(loss, dist, W)
            gaps[lo:hi] = pop - _engine._batch_empirical_risk(loss, W, Xs, ys)
            fracs[lo:hi] = pop + 0.5 * lam * _rowdot(W, W)
        rhs = propD2_erm_bound(c1, n, lam, _upper(fracs))
        em.gate_row("erm_gap", rhs, *_mean_se(gaps), n=n)


def _check_propG1(cfg: ExperimentConfig, em: _Emitter, loss, dist, domain) -> None:
    consts = support_constants(loss, dist)
    for n, T, sched, theta in _grid(cfg):
        rhs = propG1_high_prob_bound(cfg.c, theta, loss.alpha, consts.c3, consts.G, T, n,
                                     cfg.delta)
        R = cfg.replicates
        total = coupled_distances(loss, replicate_data(dist, n, cfg.master_seed), n, T,
                                  sched.etas(T), None, R, cfg.master_seed)
        exceed = int(np.count_nonzero(total > rhs))
        mean, se = _mean_se(total)
        em.row("coupled_distance_mean", mean, n=n, T=T, theta=theta, stderr=se,
               bound_rhs=rhs)
        em.gate_row("exceedance_fraction", cfg.delta, exceed / R, 0.0,
                    n=n, T=T, theta=theta)


# ---------------------------------------------------------------------------
# what each run needs: rules checked before anything runs
# ---------------------------------------------------------------------------

def _rule(holds, what: str):
    """A need that ``holds(cfg, loss)``; otherwise the run needs ``what``."""
    def need(cfg, loss, dist) -> None:
        if not holds(cfg, loss):
            run = f"target {cfg.target}" if cfg.experiment == "bound-check" else cfg.experiment
            raise ConfigError(f"{run} needs {what}")
    return need


_SMOOTH = _rule(lambda cfg, loss: loss.alpha == 1.0, "a smooth loss")
_HOLDER = _rule(lambda cfg, loss: loss.alpha < 1.0, "a non-smooth loss (alpha < 1)")
# Theorem 2's hypotheses
_CONVEX_NONNEGATIVE = _rule(lambda cfg, loss: loss.convex_per_example and loss.nonnegative,
                            "a convex, nonnegative loss")
_LEAST_SQUARES = _rule(lambda cfg, loss: loss.kind == "least_squares", "least squares")
_PLAIN_HINGE = _rule(lambda cfg, loss: loss.kind == "q_hinge" and loss.alpha == 0.0,
                     "the plain hinge (q = 1), whose gradients are globally bounded")
_RIDGE = _rule(lambda cfg, loss: cfg.sigma is not None and cfg.sigma > 0.0,
               "sigma (= the ridge strength) > 0")
_HORIZON_POLY = _rule(lambda cfg, loss: cfg.sched_kind == "horizon_poly",
                      "a horizon_poly schedule (constant steps c * T^(-theta))")
# the gap estimates take a standard error, which needs two replicates
_TWO_REPLICATES = _rule(lambda cfg, loss: cfg.replicates >= 2, "at least 2 replicates")
# thm6's unbiasedness probes: a probe sample without the rare class lacks its
# term of the objective, and the sample's own stderr cannot show that.  It
# happens with probability about exp(-draws p), and 6 expected draws keep it
# below e^-6 = 0.25%, the false-fail rate that a two-sided 3-sigma gate allows
_PROBE_CLASSES = _rule(lambda cfg, loss: cfg.p_plus is None
                       or cfg.draws * min(cfg.p_plus, 1.0 - cfg.p_plus) >= 6.0,
                       "draws * min(p_plus, 1 - p_plus) >= 6, so that each unbiasedness "
                       "probe draws the rare class")
# a log-log line through two points fits them exactly and has no residual
_THREE_POINTS = _rule(lambda cfg, loss: len(cfg.n_grid) >= 3,
                      "at least 3 n values in n_grid to fit a slope")


def _schedule(cfg, loss, dist) -> None:
    build("schedule", cfg)


def _enumerable(cfg, loss, dist) -> None:
    # the oracle enumerates all n^T index sequences at every n
    for n in cfg.n_grid:
        enumeration_count(n, steps_for(cfg, n))


def _risk_minimum(cfg, loss, dist) -> None:
    population_risk_minimum(loss, dist)   # F*; raises where it has no closed form


def _finite_constants(cfg, loss, dist) -> None:
    # the calculators square L, c1 and c3: a constant whose square overflows
    # would end the run in an OverflowError after all of its work
    try:
        consts = support_constants(loss, dist, build("domain", cfg))
    except OverflowError:   # c3, a power of L, in Python floats
        consts = None
    if consts is None or not all(math.isfinite(v * v) for v in consts if v is not None):
        raise ConfigError(f"target {cfg.target} needs constants of the loss on the data's "
                          f"support whose squares are finite, got {consts or 'an overflow'}")


def _steps_within_2_over_L(cfg, loss, dist) -> None:
    # Theorem 2's step-size condition at every n of the grid; beyond it the
    # runs can diverge with a stderr as large as the mean, and the gates
    # would pass
    L = support_constants(loss, dist).L
    for n, T, sched, _ in _grid(cfg):
        top = float(sched.etas(T).max())
        if top > 2.0 / L:
            raise PreconditionViolation(
                f"thm2 needs eta_t <= 2/L = {2.0 / L:.6g}, but the schedule "
                f"reaches {top:.6g} at n = {n}")


def _finite_bound(cfg, what: str, n: int, value: float) -> None:
    # a bound that depends on the config alone and is not finite says nothing,
    # and its gate would fail on finite measurements after all of the run's work
    if not math.isfinite(value):
        raise ConfigError(f"target {cfg.target} needs a finite {what} at every n, "
                          f"and it is {value} at n = {n}")


def _finite_thm6_bound(cfg, loss, dist) -> None:
    consts = support_constants(loss, dist, build("domain", cfg))
    for n, T, sched, _ in _grid(cfg):
        _, rhs = _thm6_l1(n, sched.etas(T), consts, loss, None)
        _finite_bound(cfg, "l1 bound", n, rhs)


def _finite_propD2_factor(cfg, loss, dist) -> None:
    c1 = _ridge_c1(cfg, loss, dist)
    for n in cfg.n_grid:
        _finite_bound(cfg, "factor 2 c1^2 / (n sigma)", n,
                      propD2_erm_bound(c1, n, cfg.sigma, 1.0))


def _risk_closed_form(cfg, loss, dist) -> None:
    if closed_form_risk(loss, dist) is None:
        raise ConfigError(f"target {cfg.target} needs a closed-form population "
                          f"risk, and ({loss.kind}, {dist.kind}) has none")


class _Target(NamedTuple):
    """A run kind: its runner, whether its runs project onto the [domain] ball
    (True: need one, False: reject one, None: either), and its needs, each a
    function of (cfg, loss, dist) that raises when the config misses it."""

    run: Callable[..., None]
    ball: Optional[bool]
    needs: Tuple[Callable[..., None], ...]


_TARGETS = {
    "oracle": _Target(_run_oracle, None, (_schedule, _enumerable)),
    "stability-sweep": _Target(_run_stability_sweep, None, (_schedule,)),
    "rate-fit": _Target(_run_rate_fit, None,
                        (_schedule, _risk_minimum, _THREE_POINTS, _TWO_REPLICATES)),
    "thm2": _Target(functools.partial(_replace_one, l1=_thm2_l1, l2=True), False,
                    (_SMOOTH, _CONVEX_NONNEGATIVE, _schedule, _finite_constants,
                     _steps_within_2_over_L, _TWO_REPLICATES)),
    "thmD1": _Target(functools.partial(_replace_one, l2=True), False,
                     (_HOLDER, _schedule, _finite_constants, _TWO_REPLICATES)),
    "thm6": _Target(_check_thm6, True, (_schedule, _risk_closed_form, _finite_constants,
                                        _finite_thm6_bound, _PROBE_CLASSES)),
    "thm8": _Target(_check_thm8, True, (_LEAST_SQUARES, _finite_constants)),
    "propD2": _Target(_check_propD2, False,
                      (_LEAST_SQUARES, _RIDGE, _risk_closed_form, _finite_constants,
                       _finite_propD2_factor)),
    "propG2": _Target(functools.partial(_replace_one, l1=_propG2_l1, epochs=True), False,
                      (_PLAIN_HINGE, _schedule, _finite_constants)),
    "propG1": _Target(_check_propG1, False,
                      (_PLAIN_HINGE, _schedule, _HORIZON_POLY, _finite_constants)),
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _check_sizes(cfg: ExperimentConfig, d: int) -> None:
    """Raise ``ResourceLimitExceeded`` when a configured size needs an array
    of more than ``MAX_ELEMENTS`` elements on d-dimensional data.

    A run keeps an iterate and a risk path of up to ``MAX_CHECKPOINTS``
    values per replicate, a (d,) row per example and per neighbour at each
    n, one step size per step, and a (d,) row per draw.
    """
    sizes = [("replicates", cfg.replicates, max(d, _engine.MAX_CHECKPOINTS)),
             ("draws", cfg.draws, d)]
    for n in cfg.n_grid:
        sizes += [("n", n, d), ("T", steps_for(cfg, n), 1), ("epochs * n", cfg.epochs * n, 1)]
    for what, size, width in sizes:
        if size * width > MAX_ELEMENTS:
            raise ResourceLimitExceeded(f"{what} = {size} needs arrays of {size * width} "
                                        f"elements; the budget is {MAX_ELEMENTS}")


def _prepare(cfg: ExperimentConfig) -> Tuple[Callable[..., None], tuple]:
    """The configured runner and its arguments after (cfg, emitter).

    Checks the configured sizes, builds the loss, distribution and domain
    once and checks every need of the run's ``_TARGETS`` entry; none of them
    runs the engine, and none but rate-fit's closed-form F* evaluates a
    population risk.
    """
    if cfg.experiment == "properties":
        _check_sizes(cfg, _BATTERY_MU.shape[0])
        return _run_properties, ()
    target = _TARGETS[cfg.target if cfg.experiment == "bound-check" else cfg.experiment]
    if target.ball is not None and target.ball != (cfg.domain_kind == "ball"):
        if target.ball:
            raise ConfigError(f"target {cfg.target} needs a ball domain")
        balls = tuple(name for name, t in _TARGETS.items() if t.ball)
        raise ConfigError(f"target {cfg.target} runs without projection; "
                          f"a ball domain is used only by {balls}")
    loss, dist, domain = (build(s, cfg) for s in ("loss", "distribution", "domain"))
    _check_sizes(cfg, dist.dim)
    for need in target.needs:
        need(cfg, loss, dist)
    return target.run, (loss, dist, domain)


# an overflow gives non-finite measurements, which fail their gates: numpy need not warn
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_experiment(cfg: ExperimentConfig,
                   gates: Optional[List[GateLine]] = None) -> int:
    """Run one experiment, write `<out_path>/<experiment>.csv`, return 0/1.

    Every rule on the config is checked before the CSV's directory is made
    and before anything runs.  The outcome of every gate, in CSV order, is
    appended to ``gates`` when a list is given.
    """
    validate_config(cfg)
    runner, parts = _prepare(cfg)
    # the CSV's directory is made before any work runs, so a path that cannot
    # be one fails at once
    try:
        os.makedirs(cfg.out_path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"out_path {cfg.out_path!r}: {e.strerror}") from None
    em = _Emitter(cfg)
    runner(cfg, em, *parts)
    write_csv(os.path.join(cfg.out_path, f"{cfg.experiment}.csv"), em.rows)
    if gates is not None:
        gates.extend(em.gates)
    return 0 if em.ok() else 1
