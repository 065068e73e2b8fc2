import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import minimize_scalar
from scipy.special import erf, ndtr, owens_t
from scipy.stats import norm

from sgdlab import _engine
from sgdlab.data import (
    Dataset,
    GaussLinReg,
    ImbalancedGauss,
    MarginClassif,
    RealizableLinReg,
    min_positive_eigenvalue,
    neighbor,
    population_risk,
    population_risk_minimum,
    sample_dataset,
    sample_neighbor_family,
)
from sgdlab.data import _elementwise, _ndtr, _owens_t
from sgdlab.errors import ConfigError, DegenerateDataError, InvalidArgument
from sgdlab.harness.config import ExperimentConfig, build, validate_config
from sgdlab.losses import AucSquare, LeastSquares, QNormHinge


def _lin_reg(d=3, noise_sd=0.5, cov=1.0):
    w = np.zeros(d)
    w[0] = 1.0
    return GaussLinReg(w_star=w, cov=cov, noise_sd=noise_sd)


# ---------------------------------------------------------------------------
# distribution construction and sampling
# ---------------------------------------------------------------------------

def test_gauss_lin_reg_default_bounds():
    dist = GaussLinReg(w_star=np.array([1.0, 0.0]), cov=np.array([2.0, 2.0]),
                       noise_sd=0.5)
    assert dist.x_bound == pytest.approx(4.0 * np.sqrt(4.0))
    assert dist.y_bound == pytest.approx(dist.x_bound * 1.0 + 4 * 0.5)


def test_gauss_lin_reg_truncation_and_noise_cap():
    dist = _lin_reg(d=4, noise_sd=0.3)
    ds = sample_dataset(dist, 4000, seed=3)
    assert ds.features.shape == (4000, 4)
    norms = np.linalg.norm(ds.features, axis=1)
    assert np.all(norms <= dist.x_bound + 1e-12)
    # observed noise = y - <w*, x> never exceeds the 4-sd truncation
    noise = ds.labels - ds.features @ dist.w_star
    assert np.max(np.abs(noise)) <= 4 * 0.3 + 1e-12
    assert np.all(np.abs(ds.labels) <= dist.y_bound + 1e-12)


def test_sampling_determinism_and_seed_sensitivity():
    dist = _lin_reg()
    a = sample_dataset(dist, 50, seed=9)
    b = sample_dataset(dist, 50, seed=9)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = sample_dataset(dist, 50, seed=10)
    assert not np.array_equal(a.features, c.features)


def test_realizable_exact_fit():
    dist = RealizableLinReg(w_star=np.array([2.0, -1.0]), cov=0.5)
    ds = sample_dataset(dist, 200, seed=1)
    np.testing.assert_allclose(ds.labels, ds.features @ dist.w_star, atol=1e-12)
    for risk in _empirical_risks(LeastSquares(), ds, dist.w_star):
        assert 0.0 <= risk <= 1e-24


def test_zero_noise_gauss_matches_realizable():
    w = np.array([1.0, 3.0])
    a = sample_dataset(GaussLinReg(w_star=w, cov=0.7, noise_sd=0.0), 64, seed=5)
    b = sample_dataset(RealizableLinReg(w_star=w, cov=0.7), 64, seed=5)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_allclose(a.labels, b.labels, atol=1e-12)


def test_margin_classif_labels_and_flips():
    w = np.array([1.0, 0.0])
    clean = MarginClassif(w_star=w, cov=1.0, flip_prob=0.0)
    ds = sample_dataset(clean, 500, seed=2)
    assert set(np.unique(ds.labels)) <= {-1.0, 1.0}
    signs = np.where(ds.features @ w >= 0.0, 1.0, -1.0)
    np.testing.assert_array_equal(ds.labels, signs)
    noisy = MarginClassif(w_star=w, cov=1.0, flip_prob=0.25)
    ds2 = sample_dataset(noisy, 20000, seed=11)
    clean_signs = np.where(ds2.features @ w >= 0.0, 1.0, -1.0)
    flip_rate = np.mean(ds2.labels != clean_signs)
    # 3.5-sigma binomial check around 0.25
    assert abs(flip_rate - 0.25) <= 3.5 * np.sqrt(0.25 * 0.75 / 20000)


def test_imbalanced_gauss_class_fractions():
    dist = ImbalancedGauss(p=0.2, mu_plus=np.array([1.0, 0.0]),
                           mu_minus=np.array([-1.0, 0.0]), cov_plus=0.5,
                           cov_minus=0.5)
    ds = sample_dataset(dist, 5000, seed=4)
    frac = np.mean(ds.labels == 1.0)
    assert abs(frac - 0.2) <= 3 * np.sqrt(0.2 * 0.8 / 5000)
    assert set(np.unique(ds.labels)) == {-1.0, 1.0}


def test_distribution_validation():
    with pytest.raises(InvalidArgument):
        MarginClassif(w_star=np.zeros(2), cov=1.0, flip_prob=0.1)
    with pytest.raises(InvalidArgument):
        MarginClassif(w_star=np.array([1.0]), cov=1.0, flip_prob=0.5)
    with pytest.raises(InvalidArgument):
        ImbalancedGauss(p=0.0, mu_plus=np.array([1.0]),
                        mu_minus=np.array([-1.0]), cov_plus=1.0, cov_minus=1.0)
    with pytest.raises(InvalidArgument):
        GaussLinReg(w_star=np.array([1.0]), cov=-1.0, noise_sd=0.1)
    # the closed-form risk adds noise_sd^2, which must be a finite float
    for noise_sd in (-0.1, math.nan, math.inf, 1e300):
        with pytest.raises(InvalidArgument):
            GaussLinReg(w_star=np.array([1.0]), cov=1.0, noise_sd=noise_sd)
    assert GaussLinReg(w_star=np.array([1.0]), cov=1.0, noise_sd=1e150).noise_sd == 1e150
    with pytest.raises(InvalidArgument):
        sample_dataset(_lin_reg(), 0, seed=0)


@pytest.mark.parametrize("x_bound", [0.0, -1.0, math.nan, math.inf])
def test_x_bound_must_be_positive_and_finite(x_bound):
    # a bound that no feature vector can meet fails at construction, not
    # after 64 rounds of resampling
    w = np.array([1.0, 0.0])
    for make in (lambda: GaussLinReg(w_star=w, cov=1.0, noise_sd=0.1, x_bound=x_bound),
                 lambda: RealizableLinReg(w_star=w, cov=1.0, x_bound=x_bound),
                 lambda: MarginClassif(w_star=w, cov=1.0, flip_prob=0.1, x_bound=x_bound),
                 lambda: ImbalancedGauss(p=0.5, mu_plus=w, mu_minus=-w, cov_plus=1.0,
                                         cov_minus=1.0, x_bound=x_bound)):
        with pytest.raises(InvalidArgument, match="x_bound"):
            make()


# ---------------------------------------------------------------------------
# batched sampling against a per-generator reference
# ---------------------------------------------------------------------------

class _Reference:
    """Per-generator sampling, one generator and one dataset at a time.

    ``rounds`` counts the resample rounds of features and of noise, so a
    test can tell that its case resampled.
    """

    def __init__(self):
        self.rounds = {"features": 0, "noise": 0}

    def gauss_rows(self, rng, n, mean, chol, bound):
        d = mean.shape[0]
        out = mean + rng.standard_normal((n, d)) @ chol.T
        for _ in range(64):
            bad = np.linalg.norm(out, axis=1) > bound
            k = int(bad.sum())
            if k == 0:
                return out
            self.rounds["features"] += 1
            out[bad] = mean + rng.standard_normal((k, d)) @ chol.T
        raise DegenerateDataError("feature truncation keeps rejecting samples")

    def noise(self, rng, n, sd):
        if sd == 0.0:
            return np.zeros(n)
        out = sd * rng.standard_normal(n)
        for _ in range(64):
            bad = np.abs(out) > 4.0 * sd
            k = int(bad.sum())
            if k == 0:
                return out
            self.rounds["noise"] += 1
            out[bad] = sd * rng.standard_normal(k)
        raise DegenerateDataError("noise truncation keeps rejecting samples")

    def sample(self, dist, n, rng):
        if isinstance(dist, GaussLinReg):
            X = self.gauss_rows(rng, n, np.zeros(dist.dim), dist._chol, dist.x_bound)
            return X, X @ dist.w_star + self.noise(rng, n, dist.noise_sd)
        if isinstance(dist, MarginClassif):
            X = self.gauss_rows(rng, n, np.zeros(dist.dim), dist._chol, dist.x_bound)
            y = np.where(X @ dist.w_star >= 0.0, 1.0, -1.0)
            y[rng.random(n) < dist.flip_prob] *= -1.0
            return X, y
        y = np.where(rng.random(n) < dist.p, 1.0, -1.0)
        X = np.empty((n, dist.dim))
        pos = y > 0.0
        npos = int(pos.sum())
        X[pos] = self.gauss_rows(rng, npos, dist.mu_plus, dist._chol_plus, dist.x_bound)
        X[~pos] = self.gauss_rows(rng, n - npos, dist.mu_minus, dist._chol_minus,
                                  dist.x_bound)
        return X, y


def _sampler_dists(x_bound=None):
    w4 = np.array([1.0, 0.0, -0.5, 0.0])
    return {
        "gauss_lin_reg": GaussLinReg(w_star=w4, cov=0.25, noise_sd=0.5, x_bound=x_bound),
        # d > 8: the norm sums its squares pairwise
        "gauss_lin_reg_12": GaussLinReg(w_star=np.linspace(-1.0, 1.0, 12),
                                        cov=np.linspace(0.1, 0.3, 12), noise_sd=0.2,
                                        x_bound=None if x_bound is None else 1.7 * x_bound),
        "realizable_lin_reg": RealizableLinReg(w_star=w4, cov=[0.5, 0.25, 0.25, 0.1],
                                               x_bound=x_bound),
        "margin_classif": MarginClassif(w_star=w4, cov=0.25, flip_prob=0.1, x_bound=x_bound),
        "imbalanced_gauss": ImbalancedGauss(p=0.3, mu_plus=[0.5, 0.0, 0.0, 0.0],
                                            mu_minus=[-0.5, 0.0, 0.0, 0.0], cov_plus=0.2,
                                            cov_minus=0.1, x_bound=x_bound),
    }


def _generators(B, seed):
    return [_engine.path_generator(seed, b) for b in range(B)]


@pytest.mark.parametrize("kind", sorted(_sampler_dists()))
@pytest.mark.parametrize("B, n, x_bound", [
    (1, 1, None), (1, 64, None), (7, 64, None), (3, 5, None),
    # a tight ball: most draws resample their features, some several times
    (4, 300, 1.2),
    # enough noise draws that some fall beyond 4 sd and resample
    (3, 20000, None),
], ids=["one-generator-one-row", "one-generator", "batch", "small-n", "tight-ball",
        "large-n"])
def test_batched_sampler_matches_per_generator_reference(kind, B, n, x_bound):
    dist = _sampler_dists(x_bound)[kind]
    X, y = dist.sample_batch(_generators(B, 17), n)
    assert X.shape == (B, n, dist.dim) and y.shape == (B, n)
    ref = _Reference()
    for b, rng in enumerate(_generators(B, 17)):
        want_X, want_y = ref.sample(dist, n, rng)
        assert X[b].tobytes() == want_X.tobytes()
        assert y[b].tobytes() == want_y.tobytes()
    if x_bound is not None:
        assert ref.rounds["features"] > 0
    if n == 20000 and getattr(dist, "noise_sd", 0.0) > 0.0:
        assert ref.rounds["noise"] > 0
    # one-generator sampling is the batched sampler's first slice
    one = dist.sample(n, _generators(B, 17)[0])
    assert one.features.tobytes() == X[0].tobytes()
    assert one.labels.tobytes() == y[0].tobytes()


@pytest.mark.parametrize("kind", sorted(_sampler_dists()))
def test_batched_sampler_gives_up_after_the_resample_rounds(kind):
    # a ball that almost no draw meets: every generator gives up after its
    # rounds, batched or alone
    dist = _sampler_dists(0.05)[kind]
    with pytest.raises(DegenerateDataError):
        _Reference().sample(dist, 64, _generators(1, 3)[0])
    with pytest.raises(DegenerateDataError):
        dist.sample_batch(_generators(3, 3), 64)


def test_make_distribution_factory():
    # a [distribution] kind is built by its config.BUILDERS entry
    cfg = ExperimentConfig(experiment="oracle", dist_kind="gauss_lin_reg", w_star=(1.0,),
                           noise_sd=0.1)
    assert isinstance(build("distribution", cfg), GaussLinReg)
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(experiment="oracle", dist_kind="unknown"))


# ---------------------------------------------------------------------------
# neighbor families
# ---------------------------------------------------------------------------

def test_neighbor_family_semantics():
    dist = _lin_reg()
    fam = sample_neighbor_family(dist, 6, seed=11)
    base = fam.base
    for i in range(6):
        nb = neighbor(fam, i)
        # position i is replaced by the i-th ghost example ...
        np.testing.assert_array_equal(nb.features[i], fam.ghost.features[i])
        assert nb.labels[i] == fam.ghost.labels[i]
        # ... and everything else is untouched
        mask = np.arange(6) != i
        np.testing.assert_array_equal(nb.features[mask], base.features[mask])
        np.testing.assert_array_equal(nb.labels[mask], base.labels[mask])
    with pytest.raises(InvalidArgument):
        neighbor(fam, 6)
    with pytest.raises(InvalidArgument):
        neighbor(fam, -1)


def test_neighbor_family_base_matches_sample_dataset():
    dist = _lin_reg()
    fam = sample_neighbor_family(dist, 8, seed=21)
    ds = sample_dataset(dist, 8, seed=21)
    np.testing.assert_array_equal(fam.base.features, ds.features)
    np.testing.assert_array_equal(fam.base.labels, ds.labels)


def test_ghost_differs_from_base():
    fam = sample_neighbor_family(_lin_reg(), 5, seed=2)
    assert not np.array_equal(fam.base.features, fam.ghost.features)


# ---------------------------------------------------------------------------
# risks
# ---------------------------------------------------------------------------

def _empirical_risks(loss, ds, w):
    """F_S(w) as the engine takes it: the mean over the examples (the output
    iterate's risk), and the loss's ``risk_evaluator`` (the checkpoints)."""
    X, y, W = ds.features[None], ds.labels[None], np.asarray(w)[None]
    return (float(_engine._batch_empirical_risk(loss, W, X, y)[0]),
            float(loss.risk_evaluator(X, y)(W[:, None])[0, 0]))


def test_empirical_risk_hand_value():
    ds = Dataset(features=np.array([[1.0, 0.0], [0.0, 1.0]]),
                 labels=np.array([0.0, 1.0]))
    w = np.array([1.0, 1.0])
    # losses are 0.5 and 0 -> mean 0.25
    for risk in _empirical_risks(LeastSquares(), ds, w):
        assert risk == pytest.approx(0.25)


def _mc_risk(loss, dist, w, n, seed):
    ds = sample_dataset(dist, n, seed=seed)
    W = np.broadcast_to(w, (n, w.shape[0]))
    vals = loss.batch_value(W, ds.features, ds.labels)
    return vals.mean(), vals.std(ddof=1) / np.sqrt(n)


def test_population_risk_least_squares_closed_form():
    dist = _lin_reg(noise_sd=0.4)
    # at w* the residual is pure noise: risk = sd^2 / 2
    r = population_risk(LeastSquares(), dist, dist.w_star)
    assert r == pytest.approx(0.4 ** 2 / 2, rel=1e-12)
    # against Monte Carlo at an arbitrary point (truncation bias is tiny)
    w = np.array([0.3, -0.2, 1.0])
    r_closed = population_risk(LeastSquares(), dist, w)
    mc, mc_se = _mc_risk(LeastSquares(), dist, w, 300000, 123)
    assert abs(r_closed - mc) <= 3.5 * mc_se


def test_population_risk_realizable_zero_at_w_star():
    dist = RealizableLinReg(w_star=np.array([1.0, -2.0]), cov=0.3)
    val = population_risk(LeastSquares(), dist, dist.w_star)
    assert val == pytest.approx(0.0, abs=1e-18)


def test_population_risk_auc_closed_form():
    mu_p, mu_m = np.array([0.5, 0.0]), np.array([-0.5, 0.0])
    dist = ImbalancedGauss(p=0.3, mu_plus=mu_p, mu_minus=mu_m,
                           cov_plus=0.2, cov_minus=0.2)
    loss = AucSquare(p=0.3, mu_plus=mu_p, mu_minus=mu_m)
    w = np.array([0.4, -0.1])
    closed = population_risk(loss, dist, w)
    # direct formula: p(1-p) * [(1 - <w, mu_p - mu_m>)^2 + w' (S+ + S-) w]
    delta = mu_p - mu_m
    direct = 0.3 * 0.7 * ((1 - w @ delta) ** 2 + w @ (0.4 * np.eye(2)) @ w)
    assert closed == pytest.approx(direct, rel=1e-12)
    # and against Monte Carlo through the per-example loss itself
    mc, mc_se = _mc_risk(loss, dist, w, 200000, 31)
    assert abs(closed - mc) <= 3.5 * mc_se
    # mismatched moments are refused rather than silently wrong
    bad = AucSquare(p=0.4, mu_plus=mu_p, mu_minus=mu_m)
    with pytest.raises(InvalidArgument):
        population_risk(bad, dist, w)


def test_population_risk_hinge_quadrature_vs_mc():
    w_star = np.array([1.0, 0.0])
    dist = MarginClassif(w_star=w_star, cov=0.5, flip_prob=0.1)
    loss = QNormHinge(q=1.0)
    w = np.array([0.5, 0.2])
    closed = population_risk(loss, dist, w)
    mc, mc_se = _mc_risk(loss, dist, w, 400000, 7)
    assert abs(closed - mc) <= 3.5 * mc_se


def test_population_risk_has_no_fallback():
    # a pair without a closed form has no population risk to take here
    with pytest.raises(InvalidArgument, match="no closed-form population risk"):
        population_risk(QNormHinge(q=1.5), _lin_reg(), np.array([0.1, 0.0, 0.0]))


def test_population_risk_minimum_least_squares():
    dist = _lin_reg(noise_sd=0.25)
    val, w_min = population_risk_minimum(LeastSquares(), dist)
    np.testing.assert_allclose(w_min, dist.w_star, atol=1e-12)
    assert val == pytest.approx(0.25 ** 2 / 2, rel=1e-12)


def test_population_risk_minimum_auc():
    mu_p, mu_m = np.array([0.3, 0.1]), np.array([-0.3, -0.1])
    dist = ImbalancedGauss(p=0.4, mu_plus=mu_p, mu_minus=mu_m,
                           cov_plus=0.15, cov_minus=0.25)
    loss = AucSquare(p=0.4, mu_plus=mu_p, mu_minus=mu_m)
    val, w_min = population_risk_minimum(loss, dist)
    # the closed-form risk is stationary at the reported minimizer
    base = population_risk(loss, dist, w_min)
    assert val == pytest.approx(base, rel=1e-12)
    for k in range(2):
        e = np.zeros(2)
        e[k] = 1e-4
        assert population_risk(loss, dist, w_min + e) >= base - 1e-12
        assert population_risk(loss, dist, w_min - e) >= base - 1e-12


def test_population_risk_minimum_hinge_isotropic_only():
    dist = MarginClassif(w_star=np.array([1.0, 0.0]), cov=1.0, flip_prob=0.1)
    loss = QNormHinge(q=1.0)
    val, w_min = population_risk_minimum(loss, dist)
    assert np.isfinite(val) and val >= 0.0
    base = population_risk(loss, dist, w_min)
    assert val == pytest.approx(base, rel=1e-9)
    # nearby rescalings of the minimizer do not beat it
    for scale in (0.99, 1.01):
        assert population_risk(loss, dist, scale * w_min) >= val - 1e-10
    aniso = MarginClassif(w_star=np.array([1.0, 0.0]),
                          cov=np.array([1.0, 2.0]), flip_prob=0.1)
    with pytest.raises(InvalidArgument):
        population_risk_minimum(loss, aniso)


def test_closed_form_conditions_do_not_depend_on_units():
    # isotropy and the AUC moment match are compared exactly: at the 1e-9
    # scale an absolute tolerance of 1e-8 would call any two values equal
    loss = QNormHinge(q=1.0)
    tiny = MarginClassif(w_star=np.array([1.0, 0.0]), cov=1e-9, flip_prob=0.1)
    val, w_min = population_risk_minimum(loss, tiny)
    assert np.isfinite(val) and w_min[1] == 0.0
    aniso = MarginClassif(w_star=np.array([1.0, 0.0]), cov=np.array([1e-9, 4e-9]),
                          flip_prob=0.1)
    with pytest.raises(InvalidArgument, match="isotropic covariance"):
        population_risk_minimum(loss, aniso)
    mu = np.array([1e-9, 0.0])
    dist = ImbalancedGauss(p=0.3, mu_plus=mu, mu_minus=-mu, cov_plus=1e-18, cov_minus=1e-18)
    auc = AucSquare(p=0.3, mu_plus=2.0 * mu, mu_minus=-mu)
    with pytest.raises(InvalidArgument, match="moment parameters must match"):
        population_risk(auc, dist, np.zeros(2))
    assert np.isfinite(population_risk(AucSquare(p=0.3, mu_plus=mu, mu_minus=-mu), dist,
                                       np.zeros(2)))


# ---------------------------------------------------------------------------
# Phi, erf and Owen's T against scipy.special
# ---------------------------------------------------------------------------

# h runs past 38.6, where T underflows to 0; a straddles the reflection at
# |a| = 1 and reaches the |lam| of rows within 1e-12 of parallel to w_star
_OWEN_H = np.unique(np.concatenate([
    [0.0, 1e-8, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 8.0, 12.0, 20.0, 30.0,
     37.0, 38.5, 39.0, 40.0],
    np.linspace(0.0, 40.0, 81)]))
_OWEN_A = np.unique(np.concatenate([
    [0.0, 1e-8, 1e-4, 0.1, 0.5, 0.9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.1, 2.0,
     10.0, 1e3, 1e7],
    np.logspace(-8.0, 7.0, 61)]))
_NORMAL_X = np.unique(np.concatenate([
    [0.0, 1e-12, -1e-12, -37.0, -37.5, -38.0, -38.5, 37.0, 40.0, -40.0],
    np.linspace(-40.0, 40.0, 8001), np.logspace(-12.0, 1.6, 401),
    -np.logspace(-12.0, 1.6, 401)]))


def test_owens_t_matches_scipy():
    H, A = np.meshgrid(_OWEN_H, np.concatenate([_OWEN_A, -_OWEN_A]))
    H, A = H.ravel(), A.ravel()
    got = _owens_t(H, A)
    err = np.abs(got - owens_t(H, A))
    worst = int(np.argmax(err))
    assert err[worst] <= 4.5e-16, (H[worst], A[worst], err[worst])
    # even in h, odd in a, bit for bit
    np.testing.assert_array_equal(_owens_t(-H, A), got)
    np.testing.assert_array_equal(_owens_t(H, -A), -got)
    # an entry of a batch keeps the bits of a one-entry call
    for i in range(0, H.size, 97):
        assert _owens_t(H[i:i + 1], A[i:i + 1])[0] == got[i]


def test_normal_distribution_function_and_erf_match_scipy():
    x = _NORMAL_X
    ref = ndtr(x)
    got = _ndtr(x)
    assert np.max(np.abs(got - ref)) <= 2.3e-16
    tail = ref >= 1e-300
    assert np.max(np.abs(got[tail] - ref[tail]) / ref[tail]) <= 1e-12
    assert np.max(np.abs(_elementwise(math.erf, x) - erf(x))) <= 2.3e-16


# ---------------------------------------------------------------------------
# hinge population risk: closed form against the quadrature oracle
# ---------------------------------------------------------------------------

def _quad_hinge_risk(w, dist):
    """E[(1 - y <w, x>)_+] by 1-d quadrature over u = <w, x>.

    F = 2 (1 - pf) H(+1) + 2 pf H(-1), H(s) = E[1{v > 0} (1 - s u)_+] with
    v = <w_star, x> and P(v > 0 | u) = Phi(lam u / s_u); at |rho| = 1 that
    probability is the indicator of rho u > 0.  Tolerances are set near
    machine precision, so the oracle is accurate to about 1e-15 relative.
    """
    pf, cov = dist.flip_prob, dist.cov
    su2 = float(w @ cov @ w)
    if su2 <= 1e-300:
        return 1.0
    su = math.sqrt(su2)
    sv = math.sqrt(float(dist.w_star @ cov @ dist.w_star))
    rho = min(1.0, max(-1.0, float(w @ cov @ dist.w_star) / (su * sv)))
    # P(v > 0 | u) steps from 0 to 1 over a width of about s_u / |lam|
    # around u = 0; quadrature needs break points there to see the step
    if abs(rho) < 1.0:
        lam = rho / math.sqrt(1.0 - rho * rho)
        width = su / max(abs(lam), 1e-300)

        def p_clean(u):
            return norm.cdf(lam * u / su)
    else:
        width = 0.0

        def p_clean(u):
            return float(rho * u > 0.0)
    steps = [0.0] + [k * width for k in (-8.0, -1.0, 1.0, 8.0)]

    def half_expect(sign_u):
        def integrand(u):
            return (1.0 - sign_u * u) * norm.pdf(u / su) / su * p_clean(u)

        if sign_u > 0.0:
            lo, hi = -40.0 * su, min(1.0, 40.0 * su)
        else:
            lo, hi = max(-1.0, -40.0 * su), 40.0 * su
        points = sorted({p for p in steps if lo < p < hi})
        val, _ = integrate.quad(integrand, lo, hi, points=points, limit=400,
                                epsabs=0.0, epsrel=1e-13)
        return val

    return 2.0 * (1.0 - pf) * half_expect(1.0) + 2.0 * pf * half_expect(-1.0)


_HINGE_DISTS = [
    MarginClassif(w_star=np.array([1.0, 0.0, 0.0, 0.0]), cov=0.25, flip_prob=0.1),
    MarginClassif(w_star=np.array([0.6, -0.8, 0.3]), cov=np.array([0.5, 2.0, 0.1]),
                  flip_prob=0.3),
    MarginClassif(w_star=np.array([1.0, 2.0]),
                  cov=np.array([[1.0, 0.6], [0.6, 0.5]]), flip_prob=0.0),
]


@pytest.mark.parametrize("dist", _HINGE_DISTS)
def test_hinge_risk_closed_form_matches_quadrature(dist):
    rng = np.random.default_rng(17)
    # scales from s_u ~ 1e-3 (risk near 1) to s_u ~ 30 (risk linear in |u|)
    W = rng.standard_normal((12, dist.dim)) * np.logspace(-3, 1.5, 12)[:, None]
    closed = population_risk(QNormHinge(q=1.0), dist, W)
    assert closed.shape == (12,)
    oracle = [_quad_hinge_risk(w, dist) for w in W]
    np.testing.assert_allclose(closed, oracle, rtol=1e-12, atol=0)


def _w_at(dist, su, rho):
    """A w with <w, x> of sd su and correlation rho with <w_star, x>."""
    L = np.linalg.cholesky(dist.cov)
    a = L.T @ dist.w_star
    a /= np.linalg.norm(a)
    b = np.zeros_like(a)
    b[np.argmin(np.abs(a))] = 1.0
    b -= (b @ a) * a
    b /= np.linalg.norm(b)
    return np.linalg.solve(L.T, su * (rho * a + math.sqrt(1.0 - rho * rho) * b))


@pytest.mark.parametrize("dist", _HINGE_DISTS[:2])
def test_hinge_risk_edge_cases(dist):
    loss = QNormHinge(q=1.0)

    def risk(w):
        return population_risk(loss, dist, w)

    for su in (0.05, 1.0, 20.0):
        for sign in (1.0, -1.0):
            # |rho| = 1: w proportional to +-w_star
            w_par = sign * su * dist.w_star / math.sqrt(dist.w_star @ dist.cov @ dist.w_star)
            exact = risk(w_par)
            assert exact == pytest.approx(_quad_hinge_risk(w_par, dist), rel=1e-12)
            # rho -> +-1 from inside, on both sides of the |rho| = 1 branch
            for gap in (1e-2, 1e-6, 1e-10):
                w = _w_at(dist, su, sign * (1.0 - gap))
                assert risk(w) == pytest.approx(_quad_hinge_risk(w, dist), rel=1e-12)
            for gap in (1e-11, 1e-13):
                w = _w_at(dist, su, sign * (1.0 - gap))
                assert risk(w) == pytest.approx(exact, rel=1e-9)
    # s_u -> 0: u = 0 a.s. in the limit, where the risk is 1
    w = np.linspace(0.5, -0.5, dist.dim)
    for scale in (1e-6, 1e-12, 1e-100):
        assert risk(scale * w) == pytest.approx(1.0, abs=10.0 * scale)
    assert risk(1e-160 * w) == 1.0
    assert risk(np.zeros(dist.dim)) == 1.0


def test_population_risk_batch_equals_single_rows():
    rng = np.random.default_rng(23)
    dist = _HINGE_DISTS[1]
    W = rng.standard_normal((9, dist.dim))
    W[2] = 0.0
    W[4] = -3.0 * dist.w_star
    lin = _lin_reg(d=3, noise_sd=0.3, cov=np.array([1.0, 0.5, 0.25]))
    mu_p, mu_m = np.array([0.5, 0.0, 0.1]), np.array([-0.5, 0.0, 0.0])
    imb = ImbalancedGauss(p=0.3, mu_plus=mu_p, mu_minus=mu_m, cov_plus=0.2, cov_minus=0.3)
    # at d = 8 a batched matmul rounds some rows unlike a single-row call
    lin8 = _lin_reg(d=8, noise_sd=0.3, cov=np.diag(np.linspace(1.0, 0.1, 8)) + 0.05)
    for loss, d, W in ((QNormHinge(q=1.0), dist, W), (LeastSquares(), lin, W),
                       (AucSquare(p=0.3, mu_plus=mu_p, mu_minus=mu_m), imb, W),
                       (LeastSquares(), lin8, rng.standard_normal((64, 8)))):
        vals = population_risk(loss, d, W)
        single = [population_risk(loss, d, w) for w in W]
        assert all(isinstance(v, float) for v in single)
        np.testing.assert_array_equal(vals, single)
        # the memory order of the rows does not move a bit: a Fortran-ordered
        # batch, and every other row of a larger array
        wide = np.zeros((2 * len(W), W.shape[1]))
        wide[::2] = W
        for view in (np.asfortranarray(W), wide[::2]):
            np.testing.assert_array_equal(population_risk(loss, d, view), vals)


@pytest.mark.parametrize("pf", [0.01, 0.1, 0.25, 0.49])
def test_hinge_risk_minimizer_matches_numeric_search(pf):
    s2 = 0.25
    dist = MarginClassif(w_star=np.array([0.0, 2.0, 0.0]), cov=s2, flip_prob=pf)
    loss = QNormHinge(q=1.0)
    unit = dist.w_star / np.linalg.norm(dist.w_star)

    def profile(g):
        return population_risk(loss, dist, (g / math.sqrt(s2)) * unit)

    val, w_min = population_risk_minimum(loss, dist)
    g_star = float(np.linalg.norm(w_min)) * math.sqrt(s2)
    res = minimize_scalar(profile, bounds=(0.0, 1e3), method="bounded",
                          options={"xatol": 1e-10})
    assert g_star == pytest.approx(res.x, rel=1e-5)
    assert val == pytest.approx(profile(g_star), rel=1e-15)
    assert val <= res.fun + 1e-15


def _hinge_profile_mpmath(g, pf):
    """h(g) of _hinge_margin_argmin's docstring, with enough digits for any g."""
    # phi(0) - phi(1/g) ~ phi(0) pf: resolving it takes -log10(pf) digits more
    with mpmath.workdps(40 + 2 * int(-math.log10(pf))):
        g, pf = mpmath.mpf(g), mpmath.mpf(pf)
        a = 1 / g
        return float((1 - pf) * (2 * mpmath.ncdf(a) - 1
                                 - 2 * g * (mpmath.npdf(0) - mpmath.npdf(a)))
                     + pf * (1 + 2 * g * mpmath.npdf(0)))


@pytest.mark.parametrize("pf", [10.0 ** -k for k in range(3, 13)]
                         + [1e-100, 1e-300, sys.float_info.min])
def test_hinge_risk_minimum_is_accurate_at_small_flip_probabilities(pf):
    # g* grows like 1/sqrt(2 pf); the minimum is no longer capped at g = 1e3
    s2 = 0.25
    dist = MarginClassif(w_star=np.array([1.0, 0.0, 0.0]), cov=s2, flip_prob=pf)
    loss = QNormHinge(q=1.0)
    val, w_min = population_risk_minimum(loss, dist)
    g_star = float(w_min[0]) * math.sqrt(s2)
    assert g_star == pytest.approx(1.0 / math.sqrt(2.0 * math.log1p(pf / (1.0 - 2.0 * pf))),
                                   rel=1e-15)
    exact = _hinge_profile_mpmath(g_star, pf)
    assert abs(val - exact) <= 1e-12 * exact
    for scale in (0.99, 1.01):
        assert val <= population_risk(loss, dist, scale * w_min)


def test_hinge_risk_minimum_rejects_subnormal_flip_probabilities():
    # g*^2 ~ 1/(2 pf) overflows below the smallest normal double
    dist = MarginClassif(w_star=np.array([1.0, 0.0]), cov=0.25, flip_prob=5e-324)
    with pytest.raises(InvalidArgument, match="flip_prob"):
        population_risk_minimum(QNormHinge(q=1.0), dist)


def test_hinge_risk_without_flips_has_infimum_zero_and_no_minimizer():
    # no flips: the risk falls to its infimum 0 and has no minimiser
    dist = MarginClassif(w_star=np.array([1.0, 0.0]), cov=4.0, flip_prob=0.0)
    assert population_risk_minimum(QNormHinge(q=1.0), dist) == (0.0, None)


@pytest.mark.parametrize("w_star", [np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.6, -0.8, 0.3]),
                                    np.array([3.0, 1.0, -2.0])])
def test_margin_model_reads_only_the_direction_of_w_star(w_star):
    # the labels are sign(<w_star, x>): scaling w_star changes no risk, and a
    # huge or tiny w_star neither overflows nor underflows
    loss = QNormHinge(q=1.0)
    W = np.random.default_rng(5).standard_normal((8, w_star.size))

    def risks(w):
        dist = MarginClassif(w_star=w, cov=0.25, flip_prob=0.1)
        val, w_min = population_risk_minimum(loss, dist)
        return np.append(population_risk(loss, dist, W), val), w_min

    risk, w_min = risks(w_star)
    for scale in (1e200, 1e-200):
        got, got_min = risks(scale * w_star)
        np.testing.assert_allclose(got, risk, rtol=1e-15, atol=0)
        np.testing.assert_allclose(got_min, w_min, rtol=1e-15, atol=0)
    if w_star @ w_star == 1.0:
        # a unit w_star is its own direction, so runs on it keep their bytes
        assert MarginClassif(w_star=w_star, cov=0.25, flip_prob=0.1).direction.tobytes() \
            == w_star.tobytes()


def test_package_import_leaves_heavy_scipy_modules_unloaded():
    import sgdlab
    src = os.path.dirname(os.path.dirname(sgdlab.__file__))
    # importing the harness loads no part of scipy; runs do not either
    # (tests/test_harness.py runs them in fresh processes)
    code = ("import sys, sgdlab.harness.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# spectrum helper
# ---------------------------------------------------------------------------

def test_min_positive_eigenvalue_basis_vectors():
    n = 4
    ds = Dataset(features=np.eye(n), labels=np.zeros(n))
    # second-moment matrix is I/n
    assert min_positive_eigenvalue(ds) == pytest.approx(1.0 / n, rel=1e-12)


def test_min_positive_eigenvalue_single_unit_vector():
    ds = Dataset(features=np.array([[1.0, 0.0]]), labels=np.zeros(1))
    assert min_positive_eigenvalue(ds) == pytest.approx(1.0, rel=1e-12)


def test_min_positive_eigenvalue_row_order_invariant():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((10, 3))
    ds = Dataset(features=X, labels=np.zeros(10))
    perm = rng.permutation(10)
    ds2 = Dataset(features=X[perm], labels=np.zeros(10))
    assert min_positive_eigenvalue(ds) == pytest.approx(
        min_positive_eigenvalue(ds2), rel=1e-12)


def test_min_positive_eigenvalue_concentrates():
    dist = _lin_reg(d=3, cov=0.5)
    ds = sample_dataset(dist, 20000, seed=6)
    # for isotropic cov the smallest eigenvalue of E[x x'] is ~0.5
    assert min_positive_eigenvalue(ds) == pytest.approx(0.5, rel=0.2)


def test_min_positive_eigenvalue_degenerate():
    ds = Dataset(features=np.zeros((3, 2)), labels=np.zeros(3))
    with pytest.raises(DegenerateDataError):
        min_positive_eigenvalue(ds)


def test_dataset_validation():
    with pytest.raises(InvalidArgument):
        Dataset(features=np.zeros((3, 2)), labels=np.zeros(4))
    with pytest.raises(InvalidArgument):
        Dataset(features=np.zeros(3), labels=np.zeros(3))
