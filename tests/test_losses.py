import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sgdlab.bounds import _pairwise_sum_depth
from sgdlab.errors import ConfigError, InvalidArgument, PreconditionViolation
from sgdlab.losses import (
    AucSquare,
    LeastSquares,
    QNormHinge,
    QPowerAbsolute,
    _rowdot,
    check_cocoercivity,
    check_expansiveness_slack,
    check_gradient_monotonicity,
    check_nonexpansive,
    check_self_bounding,
    check_smoothness_upper_bound,
    project_rows,
    regularity_constants,
    support_constants,
)
from sgdlab.data import GaussLinReg, ImbalancedGauss, MarginClassif
from sgdlab.optim import Ball
from sgdlab.harness.config import ExperimentConfig, build, validate_config
from sgdlab.harness.experiments import (
    applicable_checks,
    battery_draws,
    property_battery,
)

RNG = np.random.default_rng(20240901)


def _fd_gradient(loss, w, x, y, h=1e-6):
    """Central finite differences of w -> f(w; (x, y))."""
    g = np.zeros_like(w)
    for j in range(w.shape[0]):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (loss.value(w + e, x, y) - loss.value(w - e, x, y)) / (2 * h)
    return g


def _auc_loss(d=3):
    mu = np.zeros(d)
    mu[0] = 0.2
    return AucSquare(p=0.3, mu_plus=mu, mu_minus=-mu)


# ---------------------------------------------------------------------------
# values and subgradients
# ---------------------------------------------------------------------------

def test_least_squares_value():
    loss = LeastSquares()
    assert loss.value(np.array([1.0, 0.0]), np.array([2.0, 0.0]), 1.0) == 0.5


def test_hinge_value_at_zero():
    loss = QNormHinge(q=1.0)
    assert loss.value(np.zeros(2), np.array([3.0, 4.0]), 1.0) == 1.0


def test_qpower_exact_fit():
    loss = QPowerAbsolute(q=2.0)
    assert loss.value(np.array([1.0]), np.array([1.0]), 1.0) == 0.0


def test_least_squares_subgradient():
    loss = LeastSquares()
    g = loss.subgradient(np.zeros(2), np.array([1.0, 0.0]), 1.0)
    np.testing.assert_array_equal(g, [-1.0, 0.0])


def test_hinge_subgradient_active():
    loss = QNormHinge(q=1.0)
    g = loss.subgradient(np.zeros(2), np.array([1.0, 1.0]), 1.0)
    np.testing.assert_array_equal(g, [-1.0, -1.0])


def test_hinge_subgradient_at_kink_is_zero():
    # margin exactly 1 -> slack 0; we take the zero element of the
    # subdifferential so the update is deterministic
    loss = QNormHinge(q=1.0)
    g = loss.subgradient(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0)
    np.testing.assert_array_equal(g, [0.0, 0.0])


def test_qpower_subgradient_at_zero_residual():
    loss = QPowerAbsolute(q=1.5)
    g = loss.subgradient(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0)
    np.testing.assert_array_equal(g, [0.0, 0.0])


def test_auc_value_at_origin():
    # at w = 0 every term but the constant p(1-p) vanishes
    loss = _auc_loss()
    for y in (1.0, -1.0):
        x = RNG.standard_normal(3)
        assert loss.value(np.zeros(3), x, y) == pytest.approx(0.3 * 0.7, abs=1e-15)


def test_auc_gradient_at_origin():
    loss = _auc_loss()
    x = np.array([0.5, -1.0, 2.0])
    g_pos = loss.subgradient(np.zeros(3), x, 1.0)
    np.testing.assert_allclose(g_pos, 2.0 * (-(1.0 - 0.3)) * x, atol=1e-14)
    g_neg = loss.subgradient(np.zeros(3), x, -1.0)
    np.testing.assert_allclose(g_neg, 2.0 * 0.3 * x, atol=1e-14)


def test_auc_may_be_negative():
    # individual per-example values are indefinite quadratics
    loss = _auc_loss()
    vals = []
    for _ in range(200):
        w = 2.0 * RNG.standard_normal(3)
        x = RNG.standard_normal(3)
        y = 1.0 if RNG.random() < 0.5 else -1.0
        vals.append(loss.value(w, x, y))
    assert min(vals) < 0.0


@pytest.mark.parametrize("loss,ys", [
    (LeastSquares(), None),
    (QNormHinge(q=1.5), (1.0, -1.0)),
    (QNormHinge(q=2.0), (1.0, -1.0)),
    (QPowerAbsolute(q=1.5), None),
    (QPowerAbsolute(q=2.0), None),
    (_auc_loss(), (1.0, -1.0)),
])
def test_finite_difference_gradients(loss, ys):
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(40):
        d = 3
        w = 2.0 * rng.standard_normal(d)
        x = rng.standard_normal(d)
        y = float(rng.choice(ys)) if ys is not None else float(rng.standard_normal())
        # stay away from the kink set where the loss is not differentiable
        if isinstance(loss, QNormHinge) and abs(1.0 - y * float(w @ x)) < 1e-3:
            continue
        if isinstance(loss, QPowerAbsolute) and abs(y - float(w @ x)) < 1e-3:
            continue
        g = loss.subgradient(w, x, y)
        fd = _fd_gradient(loss, w, x, y)
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-5)
        checked += 1
    assert checked >= 30


def test_q_hinge_q1_fd_gradient_away_from_kink():
    # q = 1 has a piecewise-linear loss; the gradient is exact off the kink
    loss = QNormHinge(q=1.0)
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = rng.standard_normal(3)
        x = rng.standard_normal(3)
        y = 1.0 if rng.random() < 0.5 else -1.0
        if abs(1.0 - y * float(w @ x)) < 1e-2:
            continue
        np.testing.assert_allclose(loss.subgradient(w, x, y),
                                   _fd_gradient(loss, w, x, y), atol=1e-6)


def test_batch_matches_scalar_paths():
    loss = QPowerAbsolute(q=1.5)
    W = RNG.standard_normal((6, 3))
    X = RNG.standard_normal((6, 3))
    y = RNG.standard_normal(6)
    vals = loss.batch_value(W, X, y)
    grads = loss.batch_grad(W, X, y)
    for k in range(6):
        assert vals[k] == pytest.approx(loss.value(W[k], X[k], float(y[k])), rel=1e-14)
        np.testing.assert_allclose(grads[k], loss.subgradient(W[k], X[k], float(y[k])),
                                   rtol=1e-14, atol=0)


def _all_losses(d, rng):
    return [LeastSquares(), QNormHinge(q=1.0), QNormHinge(q=1.5), QNormHinge(q=2.0),
            QPowerAbsolute(q=1.0), QPowerAbsolute(q=1.5),
            AucSquare(p=0.3, mu_plus=rng.normal(0.0, 0.5, d),
                      mu_minus=rng.normal(0.0, 0.5, d))]


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 16])
def test_batch_value_broadcasts_with_the_bits_of_flat_rows(d):
    # the engine's empirical risk evaluates iterates (R, c, 1, d) against
    # datasets (R, 1, n, d); every entry must keep the bits of the flat
    # (rows, d) call that repeats each iterate once per example
    rng = np.random.default_rng(100 + d)
    for loss in _all_losses(d, rng):
        for R, c, n in ((1, 1, 1), (3, 1, 5), (2, 4, 9), (5, 3, 33)):
            W = rng.normal(size=(R, c, d))
            X = rng.normal(size=(R, n, d))
            y = rng.choice([-1.0, 1.0], size=(R, n)) * rng.uniform(0.5, 1.5, size=(R, n))
            flat = loss.batch_value(
                np.repeat(W.reshape(R * c, d), n, axis=0),
                np.repeat(X[:, None], c, axis=1).reshape(R * c * n, d),
                np.repeat(y[:, None], c, axis=1).reshape(R * c * n),
            ).reshape(R, c, n)
            got = loss.batch_value(W[:, :, None], X[:, None], y[:, None])
            assert got.tobytes() == flat.tobytes(), (loss.kind, R, c, n, d)
            one = loss.batch_value(W[:, 0][:, None], X, y)
            assert one.tobytes() == flat[:, 0].tobytes(), (loss.kind, R, n, d)


_LAYOUTS = {
    "C": np.ascontiguousarray,
    "Fortran": np.asfortranarray,
    # the engine's (c, R, d) buffers reach the losses swapped to (R, c, d)
    "transposed copy": lambda A: A.swapaxes(0, 1).copy().swapaxes(0, 1),
    "every other column": lambda A: np.repeat(A, 2, axis=-1)[..., ::2],
}


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 16])
def test_row_dots_do_not_depend_on_memory_order(d):
    rng = np.random.default_rng(300 + d)
    R, c, n = 3, 4, 5
    W = rng.normal(size=(R * c, d))
    X = rng.normal(size=(R * c, d))
    y = rng.choice([-1.0, 1.0], size=R * c) * rng.uniform(0.5, 1.5, size=R * c)
    W4 = rng.normal(size=(R, c, 1, d))
    X4 = rng.normal(size=(R, 1, n, d))
    y4 = rng.choice([-1.0, 1.0], size=(R, 1, n))
    for loss in _all_losses(d, rng):
        value = loss.batch_value(W, X, y).tobytes()
        grad = loss.batch_grad(W, X, y).tobytes()
        value4 = loss.batch_value(W4, X4, y4).tobytes()
        for wl, wf in _LAYOUTS.items():
            for xl, xf in _LAYOUTS.items():
                case = (loss.kind, d, wl, xl)
                assert loss.batch_value(wf(W), xf(X), y).tobytes() == value, case
                assert loss.batch_grad(wf(W), xf(X), y).tobytes() == grad, case
                assert loss.batch_value(wf(W4), xf(X4), y4).tobytes() == value4, case


def test_row_dots_use_broadcast_views_as_they_are():
    # a fixed family reaches the losses as (R, 1, n, d) views of one (n, d)
    # dataset; copying one would hold R copies of it (12.8 MB here, against
    # 1.6 MB for the result)
    R, n, d = 2000, 100, 8
    X = np.broadcast_to(np.ones((n, d)), (R, n, d))[:, None]
    W = np.ones((R, 1, 1, d))
    tracemalloc.start()
    try:
        out = _rowdot(W, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (R, 1, n)
    assert peak < 4 * out.nbytes


# ---------------------------------------------------------------------------
# the step kernel
# ---------------------------------------------------------------------------

_KERNEL_LOSSES = [LeastSquares(), QNormHinge(1.0), QNormHinge(1.5), QNormHinge(2.0),
                  QPowerAbsolute(1.0), QPowerAbsolute(1.5), QPowerAbsolute(2.0),
                  _auc_loss(5)]


def _stepwise(loss, w, X, y, etas, radius):
    # w - eta * batch_grad, then the projection: one step at a time
    path = [w.copy()]
    for eta, x, yj in zip(etas, X, y):
        w = w - eta * loss.batch_grad(w, x, yj)
        if radius is not None:
            project_rows(w, radius)
        path.append(w.copy())
    return path


@pytest.mark.parametrize("radius", [None, 0.6], ids=["none", "ball"])
@pytest.mark.parametrize("loss", _KERNEL_LOSSES, ids=lambda l: f"{l.kind}-{l.alpha}")
def test_descend_steps_with_the_bits_of_batch_grad(loss, radius):
    # into a buffer, each slot holds its step's iterate; in place, the one
    # array ends at the last; per-row steps and strided views included
    rng = np.random.default_rng(7)
    steps, rows, d = 6, 4, 5
    wide = rng.normal(size=(steps, rows, 2 * d))
    y = rng.choice([-1.0, 1.0], size=(steps, rows)) * rng.uniform(0.5, 1.5, (steps, rows))
    w0 = 0.3 * rng.normal(size=(rows, d))
    for X in (wide[..., :d].copy(), wide[..., ::2]):
        for etas in (rng.uniform(0.05, 0.4, steps).tolist(),
                     rng.uniform(0.05, 0.4, (rows, steps, 1)).swapaxes(0, 1)):
            want = _stepwise(loss, w0, X, y, etas, radius)
            buf = np.empty((steps + 1, rows, d))
            buf[0] = w0
            loss.descend(list(buf), X, y, etas, radius)
            for j, w in enumerate(want):
                assert buf[j].tobytes() == w.tobytes(), (X.strides, j)
            w = w0.copy()
            loss.descend([w] * (steps + 1), X, y, etas, radius)
            assert w.tobytes() == want[-1].tobytes(), X.strides


def test_hinge_q1_keeps_the_signed_zeros_of_the_general_formula():
    # inactive examples (margin >= 1) give a zero gradient whose sign is
    # that of -0.0 * y; a step then leaves +0 or -0 entries of w as the
    # general q formula's step does
    loss = QNormHinge(1.0)
    w = np.array([[0.0, -0.0, 2.0], [-0.0, 0.0, -2.0], [0.0, -0.0, 0.5],
                  [-0.0, -0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, 0.0, 0.0]])
    X = np.array([[1.0, -1.0, 1.0], [-2.0, 0.5, 1.0], [1.0, 1.0, 1.0],
                  [-0.0, 0.0, 1.0], [0.0, -3.0, 1.0], [1.0, -1.0, 0.0]])
    y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    slack = 1.0 - y * _rowdot(w, X)
    # two rows past the margin, two at the kink, two active
    assert slack.tolist() == [-1.0, -1.0, 0.5, 0.0, 0.0, 1.0]
    active = slack > 0.0
    coef = np.where(active, 1.0 * np.maximum(slack, 0.0) ** 0.0, 0.0)
    general = (-coef * y)[:, None] * X
    assert np.signbit(general).any() and np.signbit(-general).any()
    assert loss.batch_grad(w, X, y).tobytes() == general.tobytes()
    for eta in (0.25, 0.0):
        nxt = np.empty_like(w)
        loss.descend([w, nxt], X[None], y[None], [eta], None)
        assert nxt.tobytes() == (w - eta * general).tobytes()


# ---------------------------------------------------------------------------
# empirical risk at checkpoints: the least-squares QR form
# ---------------------------------------------------------------------------

def _per_example_mean(loss, W, X, y):
    return loss.batch_value(W[:, :, None], X[:, None], y[:, None]).mean(axis=2)


def _qr_risk_allowance(W, X, y):
    """Round-off allowance for |QR form - per-example mean| of F_S(w), per entry.

    With A = [X | y] (n rows, p = d + 1 columns) and u = [w; -1], let
    s = sum_j |u_j| ||a_j||.  It bounds ||A u|| and, by Minkowski, the
    2-norm of the row magnitudes t_i = sum_j |A_ij u_j|; so s^2 / (2n)
    bounds both F_S(w) and the mean of the terms t_i^2 / 2.
    - Householder QR returns the R of some A + dA with ||da_j|| <=
      gamma_{c n p} ||a_j|| (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., Thm 19.4), so ||R u|| is within gamma_{c n p} s
      of ||A u||; forming R u and its squared norm adds 2p roundings.
    - The mean computes each residual within gamma_p t_i and squares it,
      and its pairwise sum adds ``_pairwise_sum_depth(n)`` roundings.
    With gamma = h * eps (eps = 2u, so c = 2) and h = n p + 2 p +
    ``_pairwise_sum_depth(n)``, each side is within (2 gamma + gamma^2) s^2
    / (2n) of the exact F_S(w), and their difference within twice that.
    """
    R, n, d = X.shape
    p = d + 1
    A = np.concatenate([X, y[..., None]], axis=2)                    # (R, n, p)
    U = np.concatenate([W, -np.ones(W.shape[:2] + (1,))], axis=2)    # (R, c, p)
    s = np.abs(U) @ np.linalg.norm(A, axis=1)[..., None]             # (R, c, 1)
    gamma = (n * p + 2 * p + _pairwise_sum_depth(n)) * np.finfo(np.float64).eps
    return 2.0 * (2.0 * gamma + gamma * gamma) * s[..., 0] ** 2 / (2 * n)


@pytest.mark.parametrize("n,d", [(40, 8), (3, 6), (1, 4), (1, 1), (9, 1), (64, 16)])
def test_least_squares_qr_risk_matches_per_example_mean(n, d):
    # n < d (a wide [X | y] with a (n, d + 1) factor), n = 1 and d = 1
    rng = np.random.default_rng(1000 * n + d)
    loss = LeastSquares()
    R, c = 3, 5
    X = rng.normal(size=(R, n, d))
    y = rng.normal(size=(R, n))
    W = rng.normal(scale=2.0, size=(R, c, d))
    got = loss.risk_evaluator(X, y)(W)
    want = _per_example_mean(loss, W, X, y)
    assert got.shape == (R, c)
    assert np.all(np.abs(got - want) <= _qr_risk_allowance(W, X, y))


def test_least_squares_qr_risk_on_broadcast_fixed_family():
    # a NeighborFamily held fixed reaches the engine as (R, n, d) views of
    # one dataset, with stride 0 along the replicates
    rng = np.random.default_rng(7)
    loss = LeastSquares()
    R, n, d = 4, 12, 3
    X0, y0 = rng.normal(size=(n, d)), rng.normal(size=n)
    X, y = np.broadcast_to(X0, (R, n, d)), np.broadcast_to(y0, (R, n))
    W = rng.normal(size=(R, 6, d))
    got = loss.risk_evaluator(X, y)(W)
    assert got.tobytes() == loss.risk_evaluator(X.copy(), y.copy())(W).tobytes()
    want = _per_example_mean(loss, W, X, y)
    assert np.all(np.abs(got - want) <= _qr_risk_allowance(W, X, y))


@pytest.mark.parametrize("n,d", [(50, 8), (5, 8), (1, 3), (30, 1)])
def test_least_squares_qr_risk_is_nonnegative_on_realizable_data(n, d):
    # y = X w* exactly (up to the rounding of X w*): F_S(w*) is a tiny
    # number, and a sum of squares cannot round below zero
    rng = np.random.default_rng(n + 100 * d)
    loss = LeastSquares()
    R = 6
    X = rng.normal(size=(R, n, d))
    w_star = rng.normal(size=(R, 1, d))
    y = np.einsum("rnd,rd->rn", X, w_star[:, 0])
    got = loss.risk_evaluator(X, y)(w_star)
    assert np.all(got >= 0.0)
    assert np.all(got <= _qr_risk_allowance(w_star, X, y))


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 16])
def test_risk_evaluator_bits_do_not_depend_on_the_batch(monkeypatch, d):
    # a replicate's risks are the same alone or among others, and for one
    # checkpoint or many; the engine hands over (c, R, d) buffers swapped to
    # (R, c, d)
    rng = np.random.default_rng(200 + d)
    R, c, n = 4, 7, 11
    X = rng.normal(size=(R, n, d))
    y = rng.choice([-1.0, 1.0], size=(R, n)) * rng.uniform(0.5, 1.5, size=(R, n))
    W = rng.normal(size=(c, R, d)).swapaxes(0, 1)

    def evaluator(X, y, budget):
        monkeypatch.setattr("sgdlab.losses.RISK_EXAMPLES", budget)
        return loss.risk_evaluator(X, y)

    for loss in _all_losses(d, rng):
        # a budget of 2 n examples: the averaging losses take two iterates at a time
        full = evaluator(X, y, 2 * n)(W)
        assert full.tobytes() == evaluator(X, y, 2 ** 14)(W).tobytes()
        for layout in (np.ascontiguousarray(W), np.asfortranarray(W)):
            assert full.tobytes() == evaluator(X, y, 1)(layout).tobytes()
        for r in range(R):
            alone = evaluator(X[r:r + 1], y[r:r + 1], 2 ** 14)
            assert alone(W[r:r + 1]).tobytes() == full[r:r + 1].tobytes(), (loss.kind, r)
            for j in range(c):
                one = alone(W[r:r + 1, j:j + 1])
                assert one.tobytes() == full[r:r + 1, j:j + 1].tobytes(), (loss.kind, r, j)


def test_loss_parameter_validation():
    with pytest.raises(InvalidArgument):
        QNormHinge(q=0.5)
    with pytest.raises(InvalidArgument):
        QNormHinge(q=2.5)
    with pytest.raises(InvalidArgument):
        QPowerAbsolute(q=3.0)
    with pytest.raises(InvalidArgument):
        AucSquare(p=0.0, mu_plus=np.zeros(2), mu_minus=np.zeros(2))
    with pytest.raises(InvalidArgument):
        AucSquare(p=0.3, mu_plus=np.zeros(2), mu_minus=np.zeros(3))


def test_make_loss_factory():
    # a [loss] kind is built by its config.BUILDERS entry
    def loss(kind, **fields):
        return build("loss", ExperimentConfig(experiment="oracle", loss_kind=kind, **fields))
    assert loss("least_squares").kind == "least_squares"
    assert loss("q_hinge", loss_q=1.5).alpha == 0.5
    assert loss("q_power_abs", loss_q=2.0).alpha == 1.0
    auc = loss("auc_square", p_plus=0.2, mu_plus=(0.0, 0.0), mu_minus=(0.0, 0.0))
    assert auc.kind == "auc_square"
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(experiment="oracle", loss_kind="logistic"))


# ---------------------------------------------------------------------------
# regularity constants
# ---------------------------------------------------------------------------

def test_regularity_constants_smooth():
    c = regularity_constants(1.0, 2.0)
    assert c.c1 == pytest.approx(2.0, rel=1e-12)
    assert c.c2 is None and c.c3 is None


def test_regularity_constants_lipschitz():
    c = regularity_constants(0.0, 1.0, g0=1.0)
    assert (c.c1, c.c2, c.c3) == (2.0, 4.0, 1.0)


def test_regularity_constants_midrange():
    c = regularity_constants(0.5, 1.0)
    # c1 = 3^(1/3); c3 = sqrt(1/3) * (2^-0.5)^2
    assert c.c1 == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-14)
    assert c.c3 == pytest.approx(0.2886751345948129, rel=1e-13)
    assert c.c2 == pytest.approx((1.0 / 3.0) * (2.0 / 3.0) ** 2 * 9.0, rel=1e-12)


def test_regularity_constants_validation():
    with pytest.raises(InvalidArgument):
        regularity_constants(1.5, 1.0)
    with pytest.raises(InvalidArgument):
        regularity_constants(0.5, 0.0)
    with pytest.raises(InvalidArgument):
        regularity_constants(0.0, 1.0)  # g0 missing
    with pytest.raises(InvalidArgument):
        regularity_constants(0.0, 1.0, g0=-0.1)


def test_holder_constant_is_valid_empirically():
    # ||g(w) - g(w2)|| <= L(z) ||w - w2||^alpha on random pairs
    losses = [LeastSquares(), QNormHinge(q=1.0), QNormHinge(q=1.5),
              QPowerAbsolute(q=1.5), QPowerAbsolute(q=2.0), _auc_loss()]
    rng = np.random.default_rng(99)
    for loss in losses:
        d = 3
        for _ in range(300):
            w = 3.0 * rng.standard_normal(d)
            w2 = 3.0 * rng.standard_normal(d)
            x = rng.standard_normal(d)
            if loss.binary_labels:
                y = 1.0 if rng.random() < 0.5 else -1.0
            else:
                y = float(rng.standard_normal())
            L = loss.holder_constant(x, y)
            lhs = float(np.linalg.norm(loss.subgradient(w, x, y) - loss.subgradient(w2, x, y)))
            rhs = L * float(np.linalg.norm(w - w2)) ** loss.alpha
            assert lhs <= rhs * (1 + 1e-9) + 1e-12, (loss.kind, lhs, rhs)


# ---------------------------------------------------------------------------
# inequality checkers
# ---------------------------------------------------------------------------

def test_self_bounding_equality_case():
    loss = LeastSquares()
    # ||grad|| = 1 and sqrt(2L) f^0.5 = sqrt(2) sqrt(0.5) = 1: equality holds
    assert check_self_bounding(loss, np.zeros(1), (np.array([1.0]), 1.0))


def test_self_bounding_at_minimizer():
    loss = QPowerAbsolute(q=2.0)
    assert check_self_bounding(loss, np.array([1.0]), (np.array([1.0]), 1.0))


def test_checkers_trivial_cases():
    loss = LeastSquares()
    w = np.array([1.0, -2.0])
    z = (np.array([0.5, 0.5]), 1.0)
    assert check_gradient_monotonicity(loss, w, w, z)
    assert check_cocoercivity(loss, w, w, z)
    assert check_nonexpansive(loss, w, w + 1.0, z, eta=0.0)
    assert check_smoothness_upper_bound(loss, w, w, z)
    hinge = QNormHinge(q=1.5)
    assert check_expansiveness_slack(hinge, w, w + 1.0, (np.array([1.0, 0.0]), 1.0), eta=0.0)


def test_checker_preconditions():
    ls = LeastSquares()
    hinge15 = QNormHinge(q=1.5)
    auc = _auc_loss()
    w = np.zeros(3)
    z3 = (np.array([1.0, 0.0, 0.0]), 1.0)
    z2 = (np.array([1.0, 0.0]), 1.0)
    with pytest.raises(PreconditionViolation):
        check_self_bounding(auc, w, z3)  # not nonnegative
    with pytest.raises(PreconditionViolation):
        check_gradient_monotonicity(auc, w, w, z3)
    with pytest.raises(PreconditionViolation):
        check_nonexpansive(hinge15, np.zeros(2), np.zeros(2), z2, eta=0.1)
    with pytest.raises(PreconditionViolation):
        # eta beyond 2/L for this example
        check_nonexpansive(ls, np.zeros(2), np.ones(2), z2, eta=2.1)
    with pytest.raises(PreconditionViolation):
        check_expansiveness_slack(ls, np.zeros(2), np.ones(2), z2, eta=0.1)
    with pytest.raises(PreconditionViolation):
        check_smoothness_upper_bound(hinge15, np.zeros(2), np.ones(2), z2)
    with pytest.raises(InvalidArgument):
        check_expansiveness_slack(hinge15, np.zeros(2), np.ones(2), z2, eta=-0.5)


def test_nonexpansive_at_exact_boundary_step():
    # eta = 2/L is the largest admissible step and must still pass
    loss = LeastSquares()
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.standard_normal(2)
        if float(x @ x) < 1e-6:
            continue
        z = (x, float(rng.standard_normal()))
        eta = 2.0 / loss.holder_constant(x, z[1])
        w = 2.0 * rng.standard_normal(2)
        w2 = 2.0 * rng.standard_normal(2)
        assert check_nonexpansive(loss, w, w2, z, eta)


def test_checkers_random_sweep():
    # a scaled-down version of the acceptance battery: every applicable
    # checker passes on random draws for every loss kind
    losses = [LeastSquares(), QNormHinge(q=1.0), QNormHinge(q=1.5),
              QPowerAbsolute(q=1.5), QPowerAbsolute(q=2.0), _auc_loss()]
    rng = np.random.default_rng(31337)
    for loss in losses:
        d = 3
        for _ in range(250):
            w = 2.0 * rng.standard_normal(d)
            w2 = 2.0 * rng.standard_normal(d)
            x = rng.standard_normal(d)
            if loss.binary_labels:
                y = 1.0 if rng.random() < 0.5 else -1.0
            else:
                y = float(rng.standard_normal())
            z = (x, y)
            eta = float(rng.random())
            if loss.nonnegative:
                assert check_self_bounding(loss, w, z)
            if loss.convex_per_example:
                assert check_gradient_monotonicity(loss, w, w2, z)
                assert check_cocoercivity(loss, w, w2, z)
                if loss.alpha == 1.0:
                    eta_n = eta * 2.0 / loss.holder_constant(x, y)
                    assert check_nonexpansive(loss, w, w2, z, eta_n)
                else:
                    assert check_expansiveness_slack(loss, w, w2, z, eta)
            if loss.alpha == 1.0:
                assert check_smoothness_upper_bound(loss, w, w2, z)


def _ref_holder(loss, x, y):
    """Hölder constant of one example, from the scalar formula of each kind."""
    nx = math.sqrt(sum(v * v for v in x))
    if loss.kind == "least_squares":
        return nx * nx
    if loss.kind == "q_hinge":
        return loss.q * nx ** loss.q
    if loss.kind == "q_power_abs":
        return 2.0 ** (2.0 - loss.q) * loss.q * nx ** loss.q
    assert loss.kind == "auc_square"
    p = loss.p
    nD = math.sqrt(sum(v * v for v in loss.diff))
    kap = p if y < 0.0 else 1.0 - p
    if y > 0.0:
        quad = 2.0 * (1.0 - p) * sum((a - b) ** 2 for a, b in zip(x, loss.mu_plus))
    else:
        quad = 2.0 * p * sum((a - b) ** 2 for a, b in zip(x, loss.mu_minus))
    return quad + 4.0 * kap * nx * nD + 2.0 * p * (1.0 - p) * nD * nD


def _ref_check(name, loss, w, w2, x, y, eta, tol):
    """One checker's inequality for one example, from single-example
    values and subgradients and scalar arithmetic."""
    def leq(lhs, rhs):
        return lhs <= rhs + tol * (1.0 + max(abs(lhs), abs(rhs)))

    a = loss.alpha
    L = _ref_holder(loss, x, y)
    g0 = float(np.linalg.norm(loss.subgradient(np.zeros_like(x), x, y)))
    c = regularity_constants(a, L, g0 if a == 0.0 else None)
    g, g2 = loss.subgradient(w, x, y), loss.subgradient(w2, x, y)
    dw, dg = w - w2, g - g2
    after = dw - eta * dg
    if name == "self_bounding":
        f = max(loss.value(w, x, y), 0.0)
        return leq(float(np.linalg.norm(g)), c.c1 * f ** (a / (1.0 + a)))
    if name == "gradient_monotonicity" or (name == "cocoercivity" and a == 0.0):
        return leq(0.0, float(dw @ dg))
    if name == "cocoercivity":
        rhs = 2.0 * L ** (-1.0 / a) * a / (1.0 + a) \
            * float(np.linalg.norm(dg)) ** ((1.0 + a) / a)
        return leq(rhs, float(dw @ dg))
    if name == "nonexpansive":
        return leq(float(np.linalg.norm(after)), float(np.linalg.norm(dw)))
    if name == "expansiveness_slack":
        return leq(float(after @ after),
                   float(dw @ dw) + c.c3 ** 2 * eta ** (2.0 / (1.0 - a)))
    assert name == "smoothness_upper_bound"
    d = w2 - w
    return leq(loss.value(w2, x, y),
               loss.value(w, x, y) + float(g @ d) + 0.5 * L * float(d @ d))


def _check(name, loss, w, w2, z, eta, tol):
    if name == "self_bounding":
        return check_self_bounding(loss, w, z, tol)
    if name == "gradient_monotonicity":
        return check_gradient_monotonicity(loss, w, w2, z, tol)
    if name == "cocoercivity":
        return check_cocoercivity(loss, w, w2, z, tol)
    if name == "nonexpansive":
        return check_nonexpansive(loss, w, w2, z, eta, tol)
    if name == "expansiveness_slack":
        return check_expansiveness_slack(loss, w, w2, z, eta, tol)
    assert name == "smoothness_upper_bound"
    return check_smoothness_upper_bound(loss, w, w2, z, tol)


# a negative tolerance demands slack, so some rows fail and the comparison
# covers both outcomes
@pytest.mark.parametrize("tol", [1e-9, -0.05])
def test_batched_checkers_match_per_row_formulas(tol):
    draws = 400
    outcomes = set()
    for bi, (label, loss) in enumerate(property_battery()):
        W, W2, X, Y, U = battery_draws(bi, label, loss, draws, master_seed=0)
        for name, _ in applicable_checks(loss):
            eta = U * 2.0 / loss.holder_constant(X, Y) if name == "nonexpansive" else U
            batch = _check(name, loss, W, W2, (X, Y), eta, tol)
            assert batch.shape == (draws,) and batch.dtype == bool
            ref = [_ref_check(name, loss, W[k], W2[k], X[k], float(Y[k]), float(eta[k]), tol)
                   for k in range(draws)]
            assert batch.tolist() == ref, (name, label)
            # a single example is a batch of one and gives a bool
            rows = [_check(name, loss, W[k], W2[k], (X[k], float(Y[k])), float(eta[k]), tol)
                    for k in range(draws)]
            assert all(type(r) is bool for r in rows)
            assert rows == ref, (name, label)
            outcomes.update(ref)
    assert outcomes == ({True} if tol > 0 else {True, False})


def test_batched_holder_constants_match_per_row_formulas():
    for bi, (label, loss) in enumerate(property_battery()):
        _, _, X, Y, _ = battery_draws(bi, label, loss, 50, master_seed=3)
        ref_L = [_ref_holder(loss, X[k], float(Y[k])) for k in range(len(Y))]
        ref_g0 = [float(np.linalg.norm(loss.subgradient(np.zeros_like(X[k]), X[k], float(Y[k]))))
                  for k in range(len(Y))]
        for fn, ref in ((loss.holder_constant, ref_L), (loss.grad_norm_at_zero, ref_g0)):
            rows = [fn(X[k], float(Y[k])) for k in range(len(Y))]
            assert all(type(r) is float for r in rows)
            # vectorised norms and powers may round the last bits differently
            # from scalar ones, so equal up to a few ulp
            np.testing.assert_allclose(fn(X, Y), ref, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(rows, ref, rtol=1e-15, atol=0.0)


def test_batched_nonexpansive_rejects_any_step_over_two_over_L():
    loss = LeastSquares()
    X = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    Y = np.array([0.5, -1.0, 2.0])
    W, W2 = np.zeros((3, 2)), np.ones((3, 2))
    eta = 2.0 / loss.holder_constant(X, Y)  # every row at its boundary
    assert check_nonexpansive(loss, W, W2, (X, Y), eta).all()
    for k in range(3):
        over = eta.copy()
        over[k] = np.nextafter(over[k], np.inf)
        with pytest.raises(PreconditionViolation):
            check_nonexpansive(loss, W, W2, (X, Y), over)
    with pytest.raises(PreconditionViolation):
        check_nonexpansive(loss, W, W2, (X, Y), 0.6)  # scalar eta, over on row 1


def test_batched_checker_preconditions():
    ls = LeastSquares()
    hinge15 = QNormHinge(q=1.5)
    auc = _auc_loss()
    W3 = np.zeros((4, 3))
    z3 = (np.tile([1.0, 0.0, 0.0], (4, 1)), np.ones(4))
    W2 = np.zeros((4, 2))
    z2 = (np.tile([1.0, 0.0], (4, 1)), np.ones(4))
    with pytest.raises(PreconditionViolation):
        check_self_bounding(auc, W3, z3)
    with pytest.raises(PreconditionViolation):
        check_gradient_monotonicity(auc, W3, W3, z3)
    with pytest.raises(PreconditionViolation):
        check_cocoercivity(auc, W3, W3, z3)
    with pytest.raises(PreconditionViolation):
        check_nonexpansive(hinge15, W2, W2, z2, eta=0.1)
    with pytest.raises(PreconditionViolation):
        check_expansiveness_slack(ls, W2, W2 + 1.0, z2, eta=0.1)
    with pytest.raises(PreconditionViolation):
        check_smoothness_upper_bound(hinge15, W2, W2 + 1.0, z2)
    with pytest.raises(InvalidArgument):
        # one negative step among valid ones
        check_expansiveness_slack(hinge15, W2, W2 + 1.0, z2,
                                  eta=np.array([0.1, 0.2, -0.5, 0.3]))
    # a zero feature row has no positive Hölder constant
    z0 = (np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2))
    with pytest.raises(InvalidArgument):
        check_self_bounding(hinge15, W2[:2], z0)
    with pytest.raises(InvalidArgument):
        check_cocoercivity(hinge15, W2[:2], W2[:2] + 1.0, z0)
    with pytest.raises(InvalidArgument):
        check_cocoercivity(ls, W2[:2], W2[:2] + 1.0, z0)


# ---------------------------------------------------------------------------
# gradient bound on a ball
# ---------------------------------------------------------------------------

def _G(loss, radius, x_bound, y_bound=1.0, dim=1):
    """G on a support given by the three fields of a distribution that
    ``support_constants`` reads, in the ball of ``radius`` (None: no ball)."""
    dist = SimpleNamespace(dim=dim, x_bound=x_bound, y_bound=y_bound)
    return support_constants(loss, dist, None if radius is None else Ball(radius)).G


def test_gradient_bound_frozen_values():
    assert _G(LeastSquares(), 1.0, 2.0, 3.0) == 10.0
    assert _G(QNormHinge(q=1.0), 5.0, 2.0) == 2.0
    assert _G(QNormHinge(q=2.0), 1.0, 2.0) == pytest.approx(12.0)
    assert _G(QPowerAbsolute(q=2.0), 1.0, 1.0, 1.0) == pytest.approx(4.0)
    # without a ball only the q = 1 losses have bounded gradients, of norm ||x|| at most
    assert _G(QNormHinge(q=1.0), None, 2.0) == 2.0
    assert _G(QPowerAbsolute(q=1.0), None, 2.0) == 2.0
    for loss in (LeastSquares(), QNormHinge(q=1.5), QPowerAbsolute(q=2.0), _auc_loss(d=1)):
        assert _G(loss, None, 2.0) is None, loss.kind


def test_gradient_bound_requires_y_bound_for_regression():
    with pytest.raises(InvalidArgument):
        _G(LeastSquares(), 1.0, 1.0, None)
    with pytest.raises(InvalidArgument):
        _G(QPowerAbsolute(q=1.5), 1.0, 1.0, None)


def _battery_distribution(loss, x_bound):
    """A distribution on the feature ball of radius x_bound for a battery loss."""
    w_star = (1.0, 0.0, 0.0, 0.0)
    if loss.kind == "auc_square":
        return ImbalancedGauss(loss.p, loss.mu_plus, loss.mu_minus, 0.09, 0.09, x_bound)
    if loss.kind == "q_hinge":
        return MarginClassif(w_star, 0.25, flip_prob=0.1, x_bound=x_bound)
    return GaussLinReg(w_star, 0.25, noise_sd=0.5, x_bound=x_bound)


@pytest.mark.parametrize("label", [label for label, _ in property_battery()])
def test_sup_holder_dominates_the_feature_ball(label):
    # the L that the bound checks use must hold at every example the
    # distribution can draw: no point of the ball has a larger constant
    loss = dict(property_battery())[label]
    x_bound, draws = 3.0, 100_000
    dist = _battery_distribution(loss, x_bound)
    L = support_constants(loss, dist).L
    rng = np.random.default_rng(606)
    X = rng.standard_normal((draws, dist.dim))
    X *= (x_bound * rng.random(draws) ** (1.0 / dist.dim)
          / np.linalg.norm(X, axis=1))[:, None]
    if loss.binary_labels:
        Y = np.where(rng.random(draws) < 0.5, 1.0, -1.0)
    else:
        Y = dist.y_bound * (2.0 * rng.random(draws) - 1.0)
    e1 = np.zeros(dist.dim)
    e1[0] = x_bound
    extremes = [(e1, y) for y in (1.0, -1.0, dist.y_bound)]
    if loss.kind == "auc_square":
        # its sup: ||x|| = x_bound, with x against the class mean
        extremes += [(-x_bound * mu / np.linalg.norm(mu), y)
                     for mu, y in ((loss.mu_plus, 1.0), (loss.mu_minus, -1.0))]
    # the closed-form sup and the per-example constant round apart by an
    # ulp or two (AUC at its extreme point: 15.150800000000004 vs 15.1508)
    top = L * (1.0 + 4.0 * np.finfo(np.float64).eps)
    assert np.max(loss.holder_constant(X, Y)) <= top
    for x, y in extremes:
        assert loss.holder_constant(x, y) <= top, (x, y)


def test_gradient_bound_dominates_samples():
    rng = np.random.default_rng(404)
    x_bound, y_bound, d = 2.0, 1.0, 3
    # (loss, ball radius); the plain hinge without a ball gets G = x_bound,
    # checked on w of any norm up to 1e6
    cases = [(LeastSquares(), 1.5), (QNormHinge(q=1.0), 1.5), (QNormHinge(q=1.7), 1.5),
             (QPowerAbsolute(q=1.3), 1.5), (_auc_loss(), 1.5), (QNormHinge(q=1.0), None)]
    for loss, radius in cases:
        G = _G(loss, radius, x_bound, y_bound, d)
        if radius is None:
            assert G == x_bound
        for _ in range(500):
            scale = radius if radius is not None else 10.0 ** rng.uniform(0.0, 6.0)
            w = rng.standard_normal(d)
            w *= scale * rng.random() / max(np.linalg.norm(w), 1e-12)
            x = rng.standard_normal(d)
            x *= x_bound * rng.random() / max(np.linalg.norm(x), 1e-12)
            if loss.binary_labels:
                y = 1.0 if rng.random() < 0.5 else -1.0
            else:
                y = float(y_bound * (2.0 * rng.random() - 1.0))
            g = float(np.linalg.norm(loss.subgradient(w, x, y)))
            assert g <= G * (1 + 1e-12), (loss.kind, g, G)
