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
  sides (select with `target`).

Every row carries the master seed and a hash of the canonical config; float
cells use 17 significant digits so reruns are byte-comparable.
"""

from __future__ import annotations

import csv
import math
import os
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import _engine
from ..bounds import (
    BoundReport,
    default_gamma_holder,
    default_gamma_smooth,
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
from ..errors import ConfigError, PreconditionViolation
from ..losses import (
    check_cocoercivity,
    check_expansiveness_slack,
    check_gradient_monotonicity,
    check_nonexpansive,
    check_self_bounding,
    check_smoothness_upper_bound,
    gradient_bound_on_ball,
    regularity_constants,
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

    A float for (R,) values, one value per column for (R, C).
    """
    R = vals.shape[0]
    se = vals.std(axis=0, ddof=1) / math.sqrt(R) if R >= 2 else np.zeros(vals.shape[1:])
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


def applicable_checks(loss):
    """(name, runner) pairs valid for this loss's convexity/regularity."""
    checks = []
    if loss.nonnegative:
        checks.append(("self_bounding",
                       lambda l, w, w2, z, eta: check_self_bounding(l, w, z)))
    if loss.convex_per_example:
        checks.append(("gradient_monotonicity",
                       lambda l, w, w2, z, eta: check_gradient_monotonicity(l, w, w2, z)))
        checks.append(("cocoercivity",
                       lambda l, w, w2, z, eta: check_cocoercivity(l, w, w2, z)))
        if loss.alpha == 1.0:
            checks.append(("nonexpansive",
                           lambda l, w, w2, z, eta: check_nonexpansive(l, w, w2, z, eta)))
        else:
            checks.append(("expansiveness_slack",
                           lambda l, w, w2, z, eta: check_expansiveness_slack(l, w, w2, z, eta)))
    if loss.alpha == 1.0:
        checks.append(("smoothness_upper_bound",
                       lambda l, w, w2, z, eta: check_smoothness_upper_bound(l, w, w2, z)))
    return checks


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
    if loss.kind in ("q_hinge", "auc_square"):
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
            ok = fn(loss, W, W2, (X, Y), eta)
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

def _stability(cfg, loss, dist, n, T, sched, domain, record_risks,
               without_replacement=False):
    """The configured on-average stability estimate at one grid point."""
    return estimate_on_average_stability(loss, dist, n, T, sched, domain,
                                         cfg.replicates, cfg.master_seed,
                                         record_risks=record_risks,
                                         without_replacement=without_replacement)


def _run_stability_sweep(cfg: ExperimentConfig, em: _Emitter, loss, dist,
                         domain) -> None:
    for n, T, sched, theta in _grid(cfg):
        rep = _stability(cfg, loss, dist, n, T, sched, domain, record_risks=False)
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

def _sup_holder(loss, dist) -> Tuple[float, float, float]:
    """(x_bound, sup-over-z Hölder constant, sup-over-z gradient norm at 0).

    The probe x = x_bound e_1 reaches each sup whose value depends on ||x||
    and |y| only; the AUC surrogate's constant grows with ||x - mu_y|| and
    takes its own sup over the ball.
    """
    X = dist.x_bound
    probe = np.zeros(dist.dim)
    probe[0] = X
    if loss.kind in ("q_hinge", "auc_square"):
        ys = (1.0, -1.0)
    else:
        ys = (dist.y_bound if dist.y_bound is not None else 1.0,)
    if loss.kind == "auc_square":
        L = max(loss.holder_constant_on_ball(X))
    else:
        L = max(loss.holder_constant(probe, y) for y in ys)
    g0 = max(loss.grad_norm_at_zero(probe, y) for y in ys)
    return X, L, g0


def _check_thm2(cfg: ExperimentConfig, em: _Emitter, loss, dist, domain) -> None:
    _, L, _ = _sup_holder(loss, dist)
    for n, T, sched, theta in _grid(cfg):
        etas = sched.etas(T)
        rep = _stability(cfg, loss, dist, n, T, sched, None, record_risks=True)
        risk_path = expand_risk_path(rep.risk_steps, _upper(rep.risk), T)
        sqrt_risk_path = expand_risk_path(
            rep.risk_steps, _upper(np.sqrt(np.maximum(rep.risk, 0.0))), T)
        em.gate_row("l1_stability", thm2_l1_bound(n, etas, L, sqrt_risk_path),
                    *_mean_se(rep.l1), n=n, T=T, theta=theta)
        em.gate_row("l2_sq_stability", thm2_l2_bound(n, etas, L, risk_path),
                    *_mean_se(rep.l2_sq), n=n, T=T, theta=theta)
        # generalization gap against the smooth-case bound, same runs
        gap = gap_from_stability(loss, dist, rep)
        emp_hat = _upper(rep.emp_risk)
        l2_hat = _upper(rep.l2_sq)
        gamma = default_gamma_smooth(L, emp_hat, l2_hat)
        rhs = thm1b_generalization_bound(L, gamma, l2_hat, emp_hat)
        em.gate_row("generalization_gap", rhs, *_mean_se(gap.gap), n=n, T=T,
                    theta=theta)


def _check_thmD1(cfg: ExperimentConfig, em: _Emitter, loss, dist, domain) -> None:
    _, L, g0 = _sup_holder(loss, dist)
    consts = regularity_constants(loss.alpha, L, g0)
    frac_expo = 2.0 * loss.alpha / (1.0 + loss.alpha)
    for n, T, sched, theta in _grid(cfg):
        # the rhs weights step j by E[F_S(w_j)^frac_expo]; at alpha = 0 the
        # exponent is 0, every F^0 is 1 (0 and NaN included), and the mean
        # plus stderr of ones is exactly 1, so the runs record no risk path
        rep = _stability(cfg, loss, dist, n, T, sched, None,
                         record_risks=frac_expo > 0.0)
        if frac_expo > 0.0:
            frac_risk = np.power(np.maximum(rep.risk, 0.0), frac_expo)
            frac_risk_path = expand_risk_path(rep.risk_steps, _upper(frac_risk), T)
        else:
            frac_risk_path = np.ones(T)
        rhs = thmD1_nonsmooth_l2_bound(n, sched.etas(T), loss.alpha, consts.c1,
                                       consts.c3, frac_risk_path)
        em.gate_row("l2_sq_stability", rhs, *_mean_se(rep.l2_sq),
                    n=n, T=T, theta=theta)
        gap = gap_from_stability(loss, dist, rep)
        # E[F^frac] <= (E F)^frac by concavity, so (E F + stderr)^frac is
        # conservative for the rhs; at alpha = 0 the exponent is 0 and it is 1.
        # Without a closed form gap.pop is the held-out loss, whose mean is
        # E F(A(S)) because A(S^(i)) has the law of A(S) and is independent of z_i
        pop_frac = max(_upper(gap.pop), 0.0) ** frac_expo
        l2_hat = _upper(rep.l2_sq)
        gamma = default_gamma_holder(consts.c1, pop_frac, l2_hat)
        rhs = thm1c_generalization_bound(consts.c1, gamma, l2_hat, pop_frac)
        em.gate_row("generalization_gap", rhs, *_mean_se(gap.gap),
                    n=n, T=T, theta=theta)


def _check_thm6(cfg: ExperimentConfig, em: _Emitter, loss, dist, domain) -> None:
    X, L, _ = _sup_holder(loss, dist)
    G = gradient_bound_on_ball(loss, domain.radius, X, dist.y_bound)
    for n, T, sched, theta in _grid(cfg):
        rep = _stability(cfg, loss, dist, n, T, sched, domain, record_risks=False)
        em.gate_row("l1_stability", thm6_convex_stability_bound(n, sched.etas(T), L, G),
                    *_mean_se(rep.l1), n=n, T=T, theta=theta)
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
    X, L, _ = _sup_holder(loss, dist)
    G = gradient_bound_on_ball(loss, domain.radius, X, dist.y_bound)
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
                t0 = t0_for_strong_convexity(L, sigma)
                out[k] = StronglyConvexDecay(sigma=sigma, t0=t0).etas(T)
                rhss[lo + k] = thm8_strongly_convex_stability_bound(n, G, sigma, T, t0)
            return out

        dists = coupled_distances(loss, data, n, T, etas, domain, cfg.replicates,
                                  cfg.master_seed)
        em.gate_row("zero_example_stability", float(rhss.mean()), *_mean_se(dists),
                    n=n, T=T)


def _check_propD2(cfg: ExperimentConfig, em: _Emitter, loss, dist, domain) -> None:
    lam = cfg.sigma
    X, L, _ = _sup_holder(loss, dist)
    # per-example objective f + (lam/2)||w||^2 is smooth with constant L + lam
    c1 = math.sqrt(2.0 * (L + lam))
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


def _check_propG2(cfg: ExperimentConfig, em: _Emitter, loss, dist, domain) -> None:
    X, L, g0 = _sup_holder(loss, dist)
    G = X  # hinge subgradient is -y x or 0
    c3 = regularity_constants(loss.alpha, L, g0).c3
    K = cfg.epochs
    for n, T, sched, theta in _grid(cfg, steps=lambda cfg, n: K * n):
        rep = _stability(cfg, loss, dist, n, T, sched, None, record_risks=False,
                         without_replacement=True)
        etas = sched.etas(T)
        per_epoch = [etas[k * n:(k + 1) * n] for k in range(K)]
        rhs = propG2_without_replacement_bound(per_epoch, loss.alpha, c3, G, n)
        em.gate_row("epoch_l1_stability", rhs, *_mean_se(rep.l1),
                    n=n, T=T, theta=theta)


def _check_propG1(cfg: ExperimentConfig, em: _Emitter, loss, dist, domain) -> None:
    X, L, g0 = _sup_holder(loss, dist)
    G = X
    c3 = regularity_constants(loss.alpha, L, g0).c3
    for n, T, sched, theta in _grid(cfg):
        rhs = propG1_high_prob_bound(cfg.c, theta, loss.alpha, c3, G, T, n,
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


def _steps_within_2_over_L(cfg, loss, dist) -> None:
    # Theorem 2's step-size condition at every n of the grid; beyond it the
    # runs can diverge with a stderr as large as the mean, and the gates
    # would pass
    _, L, _ = _sup_holder(loss, dist)
    for n, T, sched, _ in _grid(cfg):
        top = float(sched.etas(T).max())
        if top > 2.0 / L:
            raise PreconditionViolation(
                f"thm2 needs eta_t <= 2/L = {2.0 / L:.6g}, but the schedule "
                f"reaches {top:.6g} at n = {n}")


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
    "thm2": _Target(_check_thm2, False,
                    (_SMOOTH, _CONVEX_NONNEGATIVE, _schedule, _steps_within_2_over_L,
                     _TWO_REPLICATES)),
    "thmD1": _Target(_check_thmD1, False, (_HOLDER, _schedule, _TWO_REPLICATES)),
    "thm6": _Target(_check_thm6, True, (_schedule, _risk_closed_form)),
    "thm8": _Target(_check_thm8, True, (_LEAST_SQUARES,)),
    "propD2": _Target(_check_propD2, False, (_LEAST_SQUARES, _RIDGE, _risk_closed_form)),
    "propG2": _Target(_check_propG2, False, (_PLAIN_HINGE, _schedule)),
    "propG1": _Target(_check_propG1, False, (_PLAIN_HINGE, _schedule, _HORIZON_POLY)),
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _prepare(cfg: ExperimentConfig) -> Tuple[Callable[..., None], tuple]:
    """The configured runner and its arguments after (cfg, emitter).

    Builds the loss, distribution and domain once and checks every need of
    the run's ``_TARGETS`` entry; none of them runs the engine, and none but
    rate-fit's closed-form F* evaluates a population risk.
    """
    if cfg.experiment == "properties":
        return _run_properties, ()
    target = _TARGETS[cfg.target if cfg.experiment == "bound-check" else cfg.experiment]
    if target.ball is not None and target.ball != (cfg.domain_kind == "ball"):
        if target.ball:
            raise ConfigError(f"target {cfg.target} needs a ball domain")
        balls = tuple(name for name, t in _TARGETS.items() if t.ball)
        raise ConfigError(f"target {cfg.target} runs without projection; "
                          f"a ball domain is used only by {balls}")
    loss, dist, domain = (build(s, cfg) for s in ("loss", "distribution", "domain"))
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
