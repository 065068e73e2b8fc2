"""Synthetic data distributions, neighbor datasets, and risk functionals.

Feature vectors are always resampled into a centered ball ||x|| <= x_bound
(default 4 * sqrt(trace(cov)), a >4-sigma event, so moments are essentially
unchanged but every gradient bound that needs bounded features holds
surely).  Gaussian label noise is likewise resampled into +-4 sd so labels
are bounded.  That lowers the noise's second moment by 2c phi(c) /
(2 Phi(c) - 1) = 1.07e-3 relative at c = 4, which the analytic risk formulas
ignore: at noise_sd 0.5 the least-squares closed form overstates the risk
by 1.34e-4.

Each distribution samples in one batched pass, ``sample_batch``: given B
generators it returns B samples stacked as (B, n, d) features and (B, n)
labels.  Each generator draws what it would draw alone, in the same order
(its normals, then its own resample rounds for rows outside the ball, then
its label noise or flips), and the arithmetic (the covariance transform,
the norm test, the labels) runs once on the stack, so each sample keeps the
bits of a lone draw.  ``sample_datasets``, the one path from seeds to
samples, draws those of many seeds in one batch, ``sample_dataset`` one.

A ``NeighborFamily`` carries a base sample S and an independent ghost sample
S~ of the same size; the i-th neighbor dataset replaces the i-th example of S
with the i-th example of S~.  This is the object the stability estimators
couple trajectories over.

Population risks here are exact, for the pairs that ``_closed_form``
declares (each once, with its risk and minimiser).  Every row product of a
risk is a ``_rowdot``, so a row keeps its bits in any batch and memory
order.  Nothing here samples a risk: for the other pairs the stability
estimates take E F(A(S)) from their neighbour runs, each run's loss at the
example its dataset left out.

The exact hinge risk on the margin model (``_hinge_margin_risk``) needs the
normal distribution function and Owen's T function.  Both are package code
(``_ndtr``, ``_owens_t``) on the stdlib's ``math.erf`` and ``math.erfc``, so
the package does not use scipy.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import _engine
from .errors import DegenerateDataError, InvalidArgument
from .losses import AucSquare, LeastSquares, Loss, QNormHinge, _rowdot

_MAX_RESAMPLE_ROUNDS = 64
# Gauss-Legendre nodes of Owen's T on [0, min(|a|, 1)] (see _owens_t)
_OWENS_T_NODES = 20
# eigenvalues of C_S below this share of the largest count as zero
_EIGEN_ZERO_RATIO = 1e-10


class Dataset(NamedTuple("Dataset", [("features", np.ndarray), ("labels", np.ndarray)])):
    """An in-memory sample: features (n, d) and labels (n,)."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace runs the checks too

    def __new__(cls, features: np.ndarray, labels: np.ndarray):
        if features.ndim != 2 or labels.ndim != 1 or features.shape[0] != labels.shape[0]:
            raise InvalidArgument("features must be (n, d) and labels (n,)")
        return super().__new__(cls, features, labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _as_cov(cov, d: int) -> np.ndarray:
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim == 0:
        cov = float(cov) * np.eye(d)
    elif cov.ndim == 1:
        cov = np.diag(cov)
    if cov.shape != (d, d):
        raise InvalidArgument(
            f"covariance must be a scalar, ({d}, {d}) or a length-{d} diagonal")
    if not np.all(np.isfinite(cov)):
        raise InvalidArgument("covariance entries must be finite")
    return cov


def _chol_of(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise InvalidArgument("covariance must be symmetric positive definite") from None


def _normals(rngs, shape) -> np.ndarray:
    """(B,) + shape standard normals: slice b is ``rngs[b].standard_normal(shape)``."""
    out = np.empty((len(rngs),) + shape)
    for rng, z in zip(rngs, out):
        rng.standard_normal(out=z)
    return out


def _uniforms(rngs, n: int) -> np.ndarray:
    """(B, n) uniforms on [0, 1): row b is ``rngs[b].random(n)``."""
    out = np.empty((len(rngs), n))
    for rng, u in zip(rngs, out):
        rng.random(out=u)
    return out


def _resampled(rngs, out: np.ndarray, redraw, rejected, what: str) -> np.ndarray:
    """``out`` with each generator's rejected entries drawn again until none is.

    ``out[b]`` is generator b's first draw.  Each generator then runs its own
    resample rounds, ``redraw(rng, k)`` for its k rejected entries, so it
    makes the draws of a lone generator; ``rejected`` tests a slice or the
    whole stack.
    """
    bad = rejected(out)
    for b in np.flatnonzero(bad.any(axis=1)).tolist():
        entries, redo = out[b], bad[b]
        for _ in range(_MAX_RESAMPLE_ROUNDS):
            k = int(redo.sum())
            if k == 0:
                break
            entries[redo] = redraw(rngs[b], k)
            redo = rejected(entries)
        else:
            raise DegenerateDataError(what)
    return out


def _truncated_gauss_rows(rngs, n: int, mean: np.ndarray, chol: np.ndarray,
                          bound: float) -> np.ndarray:
    """(B, n, d): for each generator, n rows of N(mean, chol chol^T), each
    resampled until ||row|| <= bound; the transform and the norm test run
    once on the stack."""
    d = mean.shape[0]
    return _resampled(rngs, mean + _normals(rngs, (n, d)) @ chol.T,
                      lambda rng, k: mean + rng.standard_normal((k, d)) @ chol.T,
                      lambda rows: np.linalg.norm(rows, axis=-1) > bound,
                      f"feature truncation at {bound} keeps rejecting samples; "
                      "bound too tight")


def _truncated_noise(rngs, n: int, sd: float) -> np.ndarray:
    """(B, n): for each generator, n N(0, sd^2) draws resampled into +-4 sd."""
    if sd == 0.0:
        return np.zeros((len(rngs), n))
    return _resampled(rngs, sd * _normals(rngs, (n,)),
                      lambda rng, k: sd * rng.standard_normal(k),
                      lambda e: np.abs(e) > 4.0 * sd,
                      "noise truncation keeps rejecting samples")


def _checked_x_bound(x_bound: Optional[float], default: float) -> float:
    if x_bound is None:
        return default
    x_bound = float(x_bound)
    if not 0.0 < x_bound < math.inf:
        raise InvalidArgument(f"x_bound must be positive and finite, got {x_bound}")
    return x_bound


class Distribution:
    """Base class: a joint law of (x, y) with bounded features.

    Attributes
    ----------
    kind : str
    dim : int
    x_bound : float
        Almost-sure bound on ||x|| (enforced by resampling).
    y_bound : float or None
        Almost-sure bound on |y| where meaningful.
    """

    kind = "abstract"

    def sample_batch(self, rngs: Sequence[np.random.Generator],
                     n: int) -> Tuple[np.ndarray, np.ndarray]:
        """One sample of n examples per generator: features (B, n, d), labels (B, n).

        Generator b makes the draws it would make in a batch of one, in the
        same order, and sample b keeps its bits whatever else is in the batch.
        """
        raise NotImplementedError


class GaussLinReg(Distribution):
    """x ~ N(0, cov) (norm-truncated), y = <w_star, x> + noise.

    Noise is N(0, noise_sd^2) resampled into +-4 sd.
    """

    kind = "gauss_lin_reg"

    def __init__(self, w_star, cov, noise_sd: float, x_bound: Optional[float] = None):
        self.w_star = np.asarray(w_star, dtype=np.float64)
        if self.w_star.ndim != 1:
            raise InvalidArgument("w_star must be a vector")
        self.dim = self.w_star.shape[0]
        self.cov = _as_cov(cov, self.dim)
        self.noise_sd = float(noise_sd)
        if not (self.noise_sd >= 0.0 and math.isfinite(self.noise_sd * self.noise_sd)):
            raise InvalidArgument(f"noise_sd must be >= 0 with a finite square, got {noise_sd}")
        self._chol = _chol_of(self.cov)
        self.x_bound = _checked_x_bound(x_bound, 4.0 * math.sqrt(float(np.trace(self.cov))))
        self.y_bound = self.x_bound * float(np.linalg.norm(self.w_star)) + 4.0 * self.noise_sd

    def sample_batch(self, rngs, n):
        X = _truncated_gauss_rows(rngs, n, np.zeros(self.dim), self._chol, self.x_bound)
        return X, X @ self.w_star + _truncated_noise(rngs, n, self.noise_sd)


class RealizableLinReg(GaussLinReg):
    """Noise-free linear regression: the population risk vanishes at w_star."""

    kind = "realizable_lin_reg"

    def __init__(self, w_star, cov, x_bound: Optional[float] = None):
        super().__init__(w_star, cov, noise_sd=0.0, x_bound=x_bound)


class MarginClassif(Distribution):
    """x ~ N(0, cov) (norm-truncated), y = sign(<w_star, x>) flipped w.p. flip_prob.

    The law depends only on the direction of w_star: sampling and the
    closed forms read ``direction`` = w_star / ||w_star||, stored at
    construction.  The norm is taken after scaling by the largest
    |component|, so neither a huge nor a tiny w_star overflows or
    underflows; a unit w_star along an axis is its own direction, bit for bit.
    """

    kind = "margin_classif"

    def __init__(self, w_star, cov, flip_prob: float, x_bound: Optional[float] = None):
        self.w_star = np.asarray(w_star, dtype=np.float64)
        if self.w_star.ndim != 1 or not np.any(self.w_star):
            raise InvalidArgument("w_star must be a nonzero vector")
        scaled = self.w_star / np.max(np.abs(self.w_star))
        self.direction = scaled / np.linalg.norm(scaled)
        self.dim = self.w_star.shape[0]
        self.cov = _as_cov(cov, self.dim)
        if not 0.0 <= flip_prob < 0.5:
            raise InvalidArgument(f"flip_prob must be in [0, 0.5), got {flip_prob}")
        self.flip_prob = float(flip_prob)
        self._chol = _chol_of(self.cov)
        self.x_bound = _checked_x_bound(x_bound, 4.0 * math.sqrt(float(np.trace(self.cov))))
        self.y_bound = 1.0

    def sample_batch(self, rngs, n):
        X = _truncated_gauss_rows(rngs, n, np.zeros(self.dim), self._chol, self.x_bound)
        y = np.where(X @ self.direction >= 0.0, 1.0, -1.0)
        y[_uniforms(rngs, n) < self.flip_prob] *= -1.0
        return X, y


class ImbalancedGauss(Distribution):
    """Two Gaussian classes: y = +1 w.p. p with x ~ N(mu_plus, cov_plus), else class -1."""

    kind = "imbalanced_gauss"

    def __init__(self, p: float, mu_plus, mu_minus, cov_plus, cov_minus,
                 x_bound: Optional[float] = None):
        if not 0.0 < p < 1.0:
            raise InvalidArgument(f"class probability must be in (0, 1), got {p}")
        self.p = float(p)
        self.mu_plus = np.asarray(mu_plus, dtype=np.float64)
        self.mu_minus = np.asarray(mu_minus, dtype=np.float64)
        if self.mu_plus.shape != self.mu_minus.shape or self.mu_plus.ndim != 1:
            raise InvalidArgument("class means must be 1-d arrays of equal length")
        self.dim = self.mu_plus.shape[0]
        self.cov_plus = _as_cov(cov_plus, self.dim)
        self.cov_minus = _as_cov(cov_minus, self.dim)
        self._chol_plus = _chol_of(self.cov_plus)
        self._chol_minus = _chol_of(self.cov_minus)
        self.x_bound = _checked_x_bound(x_bound, max(
            float(np.linalg.norm(self.mu_plus)) + 4.0 * math.sqrt(float(np.trace(self.cov_plus))),
            float(np.linalg.norm(self.mu_minus)) + 4.0 * math.sqrt(float(np.trace(self.cov_minus))),
        ))
        self.y_bound = 1.0

    def sample_batch(self, rngs, n):
        # the class sizes differ between generators, so each draws alone
        X = np.empty((len(rngs), n, self.dim))
        y = np.empty((len(rngs), n))
        for rng, Xb, yb in zip(rngs, X, y):
            yb[...] = np.where(rng.random(n) < self.p, 1.0, -1.0)
            pos = yb > 0.0
            npos = int(pos.sum())
            # sample the two classes in a fixed order so the draw is reproducible
            Xb[pos] = _truncated_gauss_rows([rng], npos, self.mu_plus, self._chol_plus,
                                            self.x_bound)[0]
            Xb[~pos] = _truncated_gauss_rows([rng], n - npos, self.mu_minus,
                                             self._chol_minus, self.x_bound)[0]
        return X, y


# ---------------------------------------------------------------------------
# sampling ops
# ---------------------------------------------------------------------------

def sample_dataset(dist: Distribution, n: int, seed: int) -> Dataset:
    """The n examples keyed by (seed, data tag): a batch of one of ``sample_datasets``."""
    X, y = sample_datasets(dist, n, [seed])
    return Dataset(features=X[0], labels=y[0])


def sample_datasets(dist: Distribution, n: int, seeds: Sequence[int],
                    ghosts: bool = False) -> tuple:
    """The samples of many seeds, drawn in one batched pass of ``dist``.

    Returns the features (B, n, d) and labels (B, n) of
    ``sample_dataset(dist, n, seeds[b])`` for each b and, with ``ghosts``,
    then the features and labels of the ghost samples of
    ``sample_neighbor_family(dist, n, seeds[b])``.
    """
    if not n >= 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    rngs = [_engine.path_generator(s, _engine.TAG_DATA) for s in seeds]
    if ghosts:
        rngs += [_engine.path_generator(s, _engine.TAG_GHOST) for s in seeds]
    X, y = dist.sample_batch(rngs, n)
    B = len(seeds)
    return (X[:B], y[:B], X[B:], y[B:]) if ghosts else (X, y)


class NeighborFamily(NamedTuple("NeighborFamily", [("base", Dataset), ("ghost", Dataset)])):
    """Base sample plus an independent ghost sample of the same size."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace runs the checks too

    def __new__(cls, base: Dataset, ghost: Dataset):
        if base.features.shape != ghost.features.shape:
            raise InvalidArgument("base and ghost samples must have identical shapes")
        return super().__new__(cls, base, ghost)


def sample_neighbor_family(dist: Distribution, n: int, seed: int) -> NeighborFamily:
    """Draw S and an independent ghost S~ from per-purpose derived seeds."""
    X, y, gX, gy = sample_datasets(dist, n, [seed], ghosts=True)
    return NeighborFamily(base=Dataset(features=X[0], labels=y[0]),
                          ghost=Dataset(features=gX[0], labels=gy[0]))


def neighbor(family: NeighborFamily, i: int) -> Dataset:
    """The i-th neighbor dataset: S with its i-th example replaced by the ghost's."""
    n = family.base.n
    if not 0 <= i < n:
        raise InvalidArgument(f"neighbor position must be in [0, {n}), got {i}")
    X = family.base.features.copy()
    y = family.base.labels.copy()
    X[i] = family.ghost.features[i]
    y[i] = family.ghost.labels[i]
    return Dataset(features=X, labels=y)


# ---------------------------------------------------------------------------
# risks
# ---------------------------------------------------------------------------

_PHI0 = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)


def _phi(x: np.ndarray) -> np.ndarray:
    """Standard normal density."""
    return np.exp(-0.5 * x * x) * _PHI0


def _elementwise(f, x: np.ndarray) -> np.ndarray:
    """The scalar function f of every entry of a 1-d array x."""
    return np.fromiter(map(f, x.tolist()), np.float64, len(x))


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal distribution function, Phi(x) = erfc(-x / sqrt(2)) / 2.

    Through erfc, Phi keeps its relative accuracy deep into the lower tail,
    and so does the upper tail 1 - Phi(x) = _ndtr(-x).
    """
    return 0.5 * _elementwise(math.erfc, -_SQRT1_2 * x)


@functools.cache
def _unit_gauss_legendre() -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], made on first use.

    Golub-Welsch: the nodes on [-1, 1] are the eigenvalues of the Jacobi
    matrix of the Legendre recurrence, and the weights are twice the squared
    first components of its eigenvectors.
    """
    k = np.arange(1.0, _OWENS_T_NODES)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    t, w = 0.5 * (x + 1.0), v[0] ** 2
    # every caller shares these arrays
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _owens_t(h: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Owen's T(h, a) = int_0^a exp(-h^2 (1 + x^2) / 2) / (1 + x^2) dx / (2 pi).

    Elementwise over 1-d arrays h and a of one length.  T is even in h and
    odd in a.  For |a| <= 1 the integral is a Gauss-Legendre sum on [0, |a|].
    Its integrand is analytic in the strip |Im x| < 1 and bounded there by
    1 / (1 - (Im x)^2) at every h, so the _OWENS_T_NODES nodes converge
    uniformly in h.  For |a| > 1 the reflection of Owen (1956),

        T(h, a) = Q(h) / 2 + Q(a h) / 2 - Q(h) Q(a h) - T(a h, 1 / a),  h >= 0,

    with Q = 1 - Phi from erfc, brings the sum back to [0, 1], and nothing
    cancels.  Each sum is a ``_rowdot``, so an entry keeps its bits whatever
    else is in the batch.
    """
    h = np.abs(h)
    sign = np.sign(a)
    a = np.abs(a)
    big = a > 1.0
    t, wt = _unit_gauss_legendre()
    # a h or h^2 may overflow to inf, where Q(a h) or the sum is 0 anyway
    with np.errstate(over="ignore"):
        ah = a * h
        hq = np.where(big, ah, h)
        aq = np.where(big, 1.0 / np.maximum(a, 1.0), a)
        x2 = 1.0 + np.square(aq[:, None] * t)
        quad = aq * _rowdot(np.exp(-0.5 * np.square(hq)[:, None] * x2) / x2, wt) \
            / (2.0 * math.pi)
    qh, qah = _ndtr(-h), _ndtr(-ah)
    return sign * np.where(big, 0.5 * qh + 0.5 * qah - qh * qah - quad, quad)


def _hinge_margin_risk(W: np.ndarray, dist: MarginClassif) -> np.ndarray:
    """Population hinge risk E[(1 - y <w, x>)_+] under the margin-flip model.

    One value per row w of W (R, d).  (u, v) = (<w, x>, <w_star, x>) is
    bivariate normal with correlation rho, and the sign of v carries the
    clean label; the symmetry (u, v) -> (-u, -v) folds the risk onto v > 0:

        F = 2 (1 - pf) H(+1) + 2 pf H(-1),   H(s) = E[1{v > 0} (1 - s u)_+].

    With z = s u / s_u ~ N(0, 1), s_u^2 = w' cov w, a = 1 / s_u, r = s rho and
    lam = r / sqrt(1 - r^2), P(v > 0 | z) = Phi(lam z), so

        H(s) = int_{z < a} phi(z) Phi(lam z) (1 - s_u z) dz
             = Phi(a) / 2 - T(a, lam)
               - s_u (-phi(a) Phi(lam a) + r phi(0) Phi(a / sqrt(1 - r^2))),

    where T is Owen's T function (Owen 1956: the first integral is half the
    skew-normal distribution function) and the second integral follows by
    parts.  Rows with |rho| = 1 (w parallel to w_star) and rows with
    s_u = 0 (u = 0 a.s.) take their limits.  Feature truncation is ignored
    (it is a >4-sigma event).

    Phi comes from ``math.erfc``, and T from ``_owens_t``: 20-node
    Gauss-Legendre on [0, min(|lam|, 1)], with Owen's reflection for
    |lam| > 1.  Against ``scipy.special``, T is within 1.4e-16 absolute for
    h in [0, 40] and |lam| in [0, 1e7], and Phi within 2.2e-16 absolute and
    6e-14 relative down to Phi = 1e-300 (the grids are in tests/test_data.py).
    """
    pf = dist.flip_prob
    cov = dist.cov
    unit = dist.direction
    sv2 = float(unit @ cov @ unit)
    if sv2 <= 0.0:
        raise DegenerateDataError("w_star direction carries no variance")
    Wc = _rowdot(W[:, None, :], cov)   # the rows w' cov
    su2 = _rowdot(Wc, W)
    # u == 0 a.s.: both hinge branches evaluate at margin 0
    zero = su2 <= 1e-300
    su = np.sqrt(np.where(zero, 1.0, su2))
    rho = np.clip(_rowdot(Wc, unit) / (su * math.sqrt(sv2)), -1.0, 1.0)
    parallel = np.abs(rho) >= 1.0 - 1e-12
    a = 1.0 / su
    # Phi(a) - 1/2 and phi(0) - phi(a) through erf and expm1: at small a the
    # direct differences cancel to a few digits
    half_mass = 0.5 * _elementwise(math.erf, a * _SQRT1_2)
    density_drop = _PHI0 * np.expm1(-0.5 * a * a)
    # the terms both signs of u share: for sign_u = -1, r, lam and T flip
    # sign exactly and k stays as it is
    pa, phia = _ndtr(a), _phi(a)
    r = np.where(parallel, 0.0, rho)
    k = np.sqrt((1.0 - r) * (1.0 + r))
    lam = r / k
    owen = _owens_t(a, lam)
    slope = r * _PHI0 * _ndtr(a / k)

    def half_expect(sign_u: float) -> np.ndarray:
        # |rho| = 1: sign_u * u = g zeta with v > 0 <=> zeta > 0
        g = np.copysign(su, sign_u * rho)
        edge = np.where(g > 0.0, half_mass + g * density_drop,
                        0.5 - g * _PHI0)  # integrand (1 + |g| zeta), all zeta > 0
        inner = 0.5 * pa - sign_u * owen \
            - su * (-phia * _ndtr(sign_u * lam * a) + sign_u * slope)
        return np.where(parallel, edge, inner)

    risk = 2.0 * (1.0 - pf) * half_expect(1.0) + 2.0 * pf * half_expect(-1.0)
    return np.where(zero, 1.0, risk)


def _hinge_margin_argmin(dist: MarginClassif) -> Optional[np.ndarray]:
    """The minimiser of the plain hinge risk on the margin model; None at pf = 0.

    Isotropic case only: the minimiser lies along w_star, and the risk
    profile in the projection scale g = ||w|| * sqrt(var) is
    h(g) = (1 - pf) (2 Phi(1/g) - 1 - 2 g (phi(0) - phi(1/g))) + pf (1 + 2 g phi(0)),
    with h'(g) = 2 (1 - pf) (phi(1/g) - phi(0)) + 2 pf phi(0) = 0 at
    1 / (2 g^2) = ln((1 - pf) / (1 - 2 pf)).  For pf = 0, h(g) ~ phi(0) / g
    falls for ever towards its infimum 0.  The closed form stays accurate at
    g* for every normal pf (checked against mpmath).
    """
    s2 = dist.cov[0, 0]
    # exact: a tolerance would tie the decision to the units of the features
    if not np.array_equal(dist.cov, s2 * np.eye(dist.dim)):
        raise InvalidArgument("hinge risk minimum needs an isotropic covariance")
    pf = dist.flip_prob
    if pf == 0.0:
        return None
    if pf < sys.float_info.min:
        # g* ~ 1 / sqrt(2 pf): for a subnormal pf, g*^2 overflows
        raise InvalidArgument(
            f"hinge risk minimum needs flip_prob = 0 or >= {sys.float_info.min:.6g}, "
            f"got {pf:.6g}")
    g_opt = 1.0 / math.sqrt(2.0 * math.log1p(pf / (1.0 - 2.0 * pf)))
    return (g_opt / math.sqrt(s2)) * dist.direction


def _closed_form(loss: Loss, dist: Distribution, need: Optional[str] = None):
    """``(risk, argmin)`` of a pair with closed forms.  Any other pair gives
    None, or with ``need`` raises ``InvalidArgument`` saying what is missing.

    The one place that names these pairs: least squares / Gaussian linear
    regression, the AUC surrogate / two-class Gaussian (its moment parameters
    must match, else it raises) and plain hinge (q = 1) / margin model.
    ``risk`` maps rows W (R, d) to their R exact risks, and ``argmin()`` is
    the minimiser, or None where the risk only falls towards its infimum 0.
    Nothing is evaluated here, and a new pair is one more entry.
    """
    if isinstance(loss, LeastSquares) and isinstance(dist, GaussLinReg):
        def risk(W):
            D = W - dist.w_star
            return 0.5 * (_rowdot(_rowdot(D[:, None, :], dist.cov), D) + dist.noise_sd ** 2)
        return risk, dist.w_star.copy
    if isinstance(loss, AucSquare) and isinstance(dist, ImbalancedGauss):
        if not (loss.p == dist.p and np.array_equal(loss.mu_plus, dist.mu_plus)
                and np.array_equal(loss.mu_minus, dist.mu_minus)):
            raise InvalidArgument(
                "the AUC surrogate's moment parameters must match the distribution")
        dmu = dist.mu_plus - dist.mu_minus
        M = dist.cov_plus + dist.cov_minus
        return (lambda W: dist.p * (1.0 - dist.p) * ((1.0 - _rowdot(W, dmu)) ** 2
                                                     + _rowdot(_rowdot(W[:, None, :], M), W)),
                lambda: np.linalg.solve(M + np.outer(dmu, dmu), dmu))
    if isinstance(loss, QNormHinge) and loss.q == 1.0 and isinstance(dist, MarginClassif):
        return lambda W: _hinge_margin_risk(W, dist), lambda: _hinge_margin_argmin(dist)
    if need is not None:
        raise InvalidArgument(f"no closed-form {need} for ({loss.kind}, {dist.kind})")
    return None


def closed_form_risk(loss: Loss, dist: Distribution):
    """The risk that ``_closed_form`` declares for the pair, a function of rows
    W (R, d), or None; no risk is evaluated here."""
    closed = _closed_form(loss, dist)
    return None if closed is None else closed[0]


def population_risk(loss: Loss, dist: Distribution, w: np.ndarray):
    """F(w) = E[f(w; z)], exact, for the pairs that ``_closed_form`` declares.

    ``w`` is one parameter vector (d,), which gives a float, or a batch of
    rows (R, d), which gives R values.  A pair without a closed form raises
    ``InvalidArgument``; the stability estimates measure its E F(A(S)) from
    their neighbour runs instead (``StabilityReport.held_out``).
    """
    risk, _ = _closed_form(loss, dist, "population risk")
    w = np.asarray(w, dtype=np.float64)
    val = risk(np.atleast_2d(w))
    return float(val[0]) if w.ndim == 1 else val


def population_risk_minimum(loss: Loss, dist: Distribution) -> Tuple[float, Optional[np.ndarray]]:
    """(min_w F(w), argmin): the declared risk at the declared argmin of the
    pair's ``_closed_form``.  For the plain hinge on the margin model without
    label flips the risk has no minimiser (it falls towards 0 as the scale
    grows), so the result is the infimum with no argmin, ``(0.0, None)``.
    """
    risk, argmin = _closed_form(loss, dist, "risk minimum")
    w_opt = argmin()
    return (0.0, None) if w_opt is None else (float(risk(w_opt[None])[0]), w_opt)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def min_positive_eigenvalue(X: np.ndarray) -> float:
    """Smallest positive eigenvalue of C_S = (1/n) sum_i x_i x_i^T of the (n, d) features X.

    Eigenvalues below ``_EIGEN_ZERO_RATIO`` times the largest count as zero.
    If all are zero (e.g. all-zero features) the data is degenerate.
    """
    C = X.T @ X / X.shape[0]
    evals = np.linalg.eigvalsh(C)
    lmax = float(evals[-1])
    if lmax <= 0.0:
        raise DegenerateDataError("all features are zero; no positive eigenvalue")
    pos = evals[evals > _EIGEN_ZERO_RATIO * lmax]
    if pos.size == 0:
        raise DegenerateDataError("no eigenvalue above the positivity threshold")
    return float(pos[0])
