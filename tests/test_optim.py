import math

import numpy as np
import pytest

from sgdlab import _engine
from sgdlab.data import Dataset, NeighborFamily
from sgdlab.errors import ConfigError, InvalidArgument
from sgdlab.harness.config import ExperimentConfig, build, validate_config
from sgdlab.losses import LeastSquares, QNormHinge, project_rows
from sgdlab.optim import (
    Ball,
    FixedConstant,
    HorizonConstant,
    HorizonPoly,
    PolyDecay,
    Regularizer,
    StronglyConvexDecay,
    sgd_run,
    sgd_without_replacement_run,
    spgd_run,
    t0_for_strong_convexity,
)


def _single_example_dataset(x, y):
    return Dataset(features=np.asarray([x], dtype=np.float64),
                   labels=np.asarray([y], dtype=np.float64))


_DS = Dataset(features=np.zeros((3, 2)), labels=np.zeros(3))


@pytest.mark.parametrize("record, field, bad", [
    pytest.param(record, field, bad, id=type(record).__name__)
    for record, field, bad in [
        (Ball(1.0), "radius", -1.0),
        (Regularizer("l2", 0.1), "strength", -1.0),
        (FixedConstant(0.1), "eta1", -5.0),
        (HorizonConstant(1.0), "c", 0.0),
        (HorizonPoly(1.0, 0.5), "theta", 2.0),
        (PolyDecay(0.1, 0.5), "eta1", -0.1),
        (StronglyConvexDecay(1.0, 2), "t0", -1),
        (_DS, "labels", np.zeros(4)),
        (NeighborFamily(_DS, _DS), "ghost",
         Dataset(features=np.zeros((4, 2)), labels=np.zeros(4))),
    ]])
def test_replace_runs_the_record_checks(record, field, bad):
    # _replace builds its copy through _make, which each record routes
    # through its constructor
    with pytest.raises(InvalidArgument):
        record._replace(**{field: bad})


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_on_boundary_unchanged():
    w = np.array([[3.0, 4.0]])
    project_rows(w, Ball(5.0).radius)
    np.testing.assert_array_equal(w, [[3.0, 4.0]])


def test_project_radial_scaling():
    w = np.array([[3.0, 4.0], [0.3, 0.4]])
    project_rows(w, Ball(1.0).radius)
    np.testing.assert_allclose(w, [[0.6, 0.8], [0.3, 0.4]], rtol=0, atol=1e-15)


def test_ball_validation():
    with pytest.raises(InvalidArgument):
        Ball(0.0)
    with pytest.raises(InvalidArgument):
        Ball(-1.0)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_fixed_constant_schedule():
    np.testing.assert_array_equal(FixedConstant(0.25).etas(3), [0.25, 0.25, 0.25])


def test_horizon_constant_schedule():
    s = HorizonConstant(c=1.0)
    np.testing.assert_array_equal(s.etas(4), np.full(4, 0.5))
    # one object is the rule c / sqrt(T) for every T
    np.testing.assert_array_equal(s.etas(16), np.full(16, 0.25))


def test_horizon_poly_schedule():
    s = HorizonPoly(c=2.0, theta=0.5)
    np.testing.assert_array_equal(s.etas(16), np.full(16, 0.5))
    np.testing.assert_array_equal(s.etas(4), np.full(4, 1.0))


@pytest.mark.parametrize("T", [128, 512])
def test_horizon_schedules_compute_their_step_from_T(T):
    # bit for bit the formulas the configs name: c / sqrt(T) is not
    # c * T^(-1/2) in the last bit at these T, so the two kinds stay apart
    c = 0.5
    np.testing.assert_array_equal(HorizonConstant(c).etas(T), np.full(T, c / math.sqrt(T)))
    for theta in (0.5, 0.75):
        np.testing.assert_array_equal(HorizonPoly(c, theta).etas(T), np.full(T, c * T ** -theta))


def test_horizon_schedules_of_an_empty_run_are_empty():
    for s in (HorizonConstant(0.5), HorizonPoly(0.5, 0.75)):
        assert s.etas(0).shape == (0,)


def test_poly_decay_schedule():
    s = PolyDecay(eta1=1.0, theta=0.5)
    np.testing.assert_allclose(s.etas(4), [1.0, 2 ** -0.5, 3 ** -0.5, 0.5], rtol=1e-15)


def test_strongly_convex_schedule():
    s = StronglyConvexDecay(sigma=2.0, t0=3)
    np.testing.assert_allclose(s.etas(2), [2.0 / (4 * 2), 2.0 / (5 * 2)], rtol=1e-15)
    assert s.t0 == 3


def test_schedules_nonincreasing():
    for s in (FixedConstant(0.1), HorizonConstant(1.0), HorizonPoly(1.0, 0.3),
              PolyDecay(0.5, 0.9), StronglyConvexDecay(0.5, 0)):
        etas = s.etas(50)
        assert np.all(etas > 0.0)
        assert np.all(np.diff(etas) <= 0.0)


def test_schedule_validation():
    with pytest.raises(InvalidArgument):
        FixedConstant(0.0)
    with pytest.raises(InvalidArgument):
        HorizonConstant(c=-1.0)
    with pytest.raises(InvalidArgument):
        HorizonPoly(c=1.0, theta=1.5)
    with pytest.raises(InvalidArgument, match="c must be positive"):
        HorizonPoly(c=0.0, theta=0.5)
    with pytest.raises(InvalidArgument):
        PolyDecay(eta1=1.0, theta=-0.1)
    with pytest.raises(InvalidArgument):
        StronglyConvexDecay(sigma=0.0, t0=1)
    with pytest.raises(InvalidArgument):
        StronglyConvexDecay(sigma=1.0, t0=-1)
    with pytest.raises(InvalidArgument):
        FixedConstant(0.1).etas(-1)


def test_make_schedule_factory():
    # a [schedule] kind is built by its config.BUILDERS entry
    def schedule(kind, **fields):
        return build("schedule", ExperimentConfig(experiment="oracle", sched_kind=kind,
                                                  **fields))
    assert schedule("fixed_constant", eta1=0.1).kind == "fixed_constant"
    assert schedule("horizon_constant", c=1.0).kind == "horizon_constant"
    assert schedule("horizon_poly", c=1.0, theta=0.5).kind == "horizon_poly"
    assert schedule("poly_decay", eta1=0.1, theta=0.5).kind == "poly_decay"
    assert schedule("strongly_convex", sigma=1.0, t0=2).kind == "strongly_convex"
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(experiment="oracle", sched_kind="cosine"))


def test_t0_for_strong_convexity():
    assert t0_for_strong_convexity(1.0, 1.0) == 4
    assert t0_for_strong_convexity(2.0, 1.0) == 16
    assert t0_for_strong_convexity(1.0, 2.0) == 1
    with pytest.raises(InvalidArgument):
        t0_for_strong_convexity(1.0, 0.0)
    # 4 L^2 / sigma^2 must be a finite float: sigma^2 underflows to 0, or
    # both squares overflow and the ratio is inf / inf
    for L, sigma in ((1.0, 1e-170), (1e300, 1e300), (1e200, 1.0)):
        with pytest.raises(InvalidArgument):
            t0_for_strong_convexity(L, sigma)


# ---------------------------------------------------------------------------
# sgd_run
# ---------------------------------------------------------------------------

def test_sgd_single_hand_computed_step():
    ds = _single_example_dataset([1.0, 0.0], 1.0)
    traj = sgd_run(LeastSquares(), ds, FixedConstant(0.5), None, T=1, rng_seed=0)
    np.testing.assert_array_equal(traj.final, [0.5, 0.0])


def test_sgd_two_steps_scalar_recursion():
    # w1=0 -> w2 = 0.5 -> w3 = 0.5 + 0.5*0.5 = 0.75 on the single example
    ds = _single_example_dataset([1.0], 1.0)
    traj = sgd_run(LeastSquares(), ds, FixedConstant(0.5), None, T=2, rng_seed=3)
    np.testing.assert_array_equal(traj.final, [0.75])


def test_sgd_zero_steps_leave_zero():
    # schedules produce strictly positive steps, so the eta = 0 degenerate
    # case is exercised at the engine level
    ds = _single_example_dataset([1.0, 2.0], 1.0)
    out = _engine.run_core(LeastSquares(), ds.features[None], ds.labels[None],
                           None, None, None, np.zeros(3), None,
                           _engine.given_stream(np.zeros((1, 3), dtype=np.int64)))
    np.testing.assert_array_equal(out.finals[0, 0], [0.0, 0.0])


def test_sgd_input_validation():
    ds = _single_example_dataset([1.0], 1.0)
    with pytest.raises(InvalidArgument):
        sgd_run(LeastSquares(), ds, FixedConstant(0.5), None, T=0, rng_seed=0)
    empty = Dataset(features=np.empty((0, 2)), labels=np.empty(0))
    with pytest.raises(InvalidArgument):
        sgd_run(LeastSquares(), empty, FixedConstant(0.5), None, T=1, rng_seed=0)
    with pytest.raises(InvalidArgument):
        sgd_run(LeastSquares(), ds, FixedConstant(0.5), None, T=1, rng_seed=0,
                record_every=0)


def test_sgd_determinism():
    rng = np.random.default_rng(11)
    ds = Dataset(features=rng.standard_normal((6, 3)), labels=rng.standard_normal(6))
    a = sgd_run(LeastSquares(), ds, PolyDecay(0.2, 0.5), Ball(2.0), T=40, rng_seed=77)
    b = sgd_run(LeastSquares(), ds, PolyDecay(0.2, 0.5), Ball(2.0), T=40, rng_seed=77)
    np.testing.assert_array_equal(a.final, b.final)
    np.testing.assert_array_equal(a.iterates, b.iterates)
    np.testing.assert_array_equal(a.per_step_risk, b.per_step_risk)
    c = sgd_run(LeastSquares(), ds, PolyDecay(0.2, 0.5), Ball(2.0), T=40, rng_seed=78)
    assert not np.array_equal(a.final, c.final)


def test_sgd_ball_invariance():
    rng = np.random.default_rng(12)
    ds = Dataset(features=rng.standard_normal((5, 2)), labels=rng.standard_normal(5) + 3.0)
    traj = sgd_run(LeastSquares(), ds, FixedConstant(0.5), Ball(0.2), T=60, rng_seed=5)
    norms = np.linalg.norm(traj.iterates, axis=1)
    assert np.all(norms <= 0.2 + 1e-12)


def test_recorded_steps_structure():
    ds = _single_example_dataset([1.0], 1.0)
    traj = sgd_run(LeastSquares(), ds, FixedConstant(0.1), None, T=5, rng_seed=0,
                   record_every=2)
    np.testing.assert_array_equal(traj.iterate_steps, [1, 3, 5, 6])
    np.testing.assert_array_equal(traj.iterates[0], [0.0])  # w_1 = 0
    np.testing.assert_array_equal(traj.iterates[-1], traj.final)


def test_averaging_identities():
    rng = np.random.default_rng(13)
    ds = Dataset(features=rng.standard_normal((4, 2)), labels=rng.standard_normal(4))
    sched = PolyDecay(0.3, 0.4)
    traj = sgd_run(LeastSquares(), ds, sched, None, T=12, rng_seed=21, record_every=1)
    etas = sched.etas(12)
    W = traj.iterates[:-1]  # w_1..w_T (the last recorded iterate is w_{T+1})
    np.testing.assert_allclose(traj.avg_eta, (etas[:, None] * W).sum(0) / etas.sum(),
                               rtol=1e-12)
    wts = np.arange(1, 13, dtype=float) + sched.t0 - 1.0
    np.testing.assert_allclose(traj.avg_linear, (wts[:, None] * W).sum(0) / wts.sum(),
                               rtol=1e-12)


def test_averaging_identity_with_t0_offset():
    rng = np.random.default_rng(14)
    ds = Dataset(features=rng.standard_normal((4, 2)), labels=rng.standard_normal(4))
    sched = StronglyConvexDecay(sigma=1.0, t0=7)
    traj = sgd_run(LeastSquares(), ds, sched, None, T=9, rng_seed=2, record_every=1)
    W = traj.iterates[:-1]
    wts = np.arange(1, 10, dtype=float) + 7 - 1.0
    np.testing.assert_allclose(traj.avg_linear, (wts[:, None] * W).sum(0) / wts.sum(),
                               rtol=1e-12)


def test_per_step_risk_semantics():
    # per_step_risk[t-1] is f(w_t; z_{i_t}) before the update; with a single
    # example, step 1 sees w_1 = 0, so the value is f(0; z)
    ds = _single_example_dataset([1.0], 1.0)
    traj = sgd_run(LeastSquares(), ds, FixedConstant(0.5), None, T=2, rng_seed=0)
    assert traj.per_step_risk[0] == 0.5
    assert traj.per_step_risk[1] == pytest.approx(0.5 * 0.25)  # at w_2 = 0.5


def test_least_squares_iterates_stay_in_feature_span():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((2, 5))  # two examples spanning a 2-dim subspace
    ds = Dataset(features=X, labels=rng.standard_normal(2))
    traj = sgd_run(LeastSquares(), ds, FixedConstant(0.1), None, T=30, rng_seed=9,
                   record_every=1)
    q, _ = np.linalg.qr(X.T)
    for w in traj.iterates:
        residual = w - q @ (q.T @ w)
        assert np.linalg.norm(residual) < 1e-12


# ---------------------------------------------------------------------------
# proximal variant
# ---------------------------------------------------------------------------

def test_spgd_none_is_bitwise_sgd():
    rng = np.random.default_rng(16)
    ds = Dataset(features=rng.standard_normal((8, 3)), labels=rng.standard_normal(8))
    sched = PolyDecay(0.2, 0.5)
    a = sgd_run(QNormHinge(q=1.0), ds, sched, None, T=50, rng_seed=123)
    b = spgd_run(QNormHinge(q=1.0), None, ds, sched, T=50, rng_seed=123)
    np.testing.assert_array_equal(a.final, b.final)
    np.testing.assert_array_equal(a.avg_eta, b.avg_eta)
    np.testing.assert_array_equal(a.per_step_risk, b.per_step_risk)
    assert a.index_sequence_seed == b.index_sequence_seed


def test_spgd_l1_soft_threshold_dead_zone():
    # gradient step lands at [0.5, 0]; threshold eta*lam = 0.3 leaves [0.2, 0]
    ds = _single_example_dataset([1.0, 0.0], 1.0)
    traj = spgd_run(LeastSquares(), Regularizer("l1", 0.6), ds,
                    FixedConstant(0.5), T=1, rng_seed=0)
    np.testing.assert_allclose(traj.final, [0.2, 0.0], atol=1e-15)


def test_spgd_l1_kills_small_coordinates():
    # |v| <= eta*lam -> exactly zero
    ds = _single_example_dataset([1.0, 0.0], 1.0)
    traj = spgd_run(LeastSquares(), Regularizer("l1", 2.5), ds,
                    FixedConstant(0.5), T=1, rng_seed=0)
    np.testing.assert_array_equal(traj.final, [0.0, 0.0])


def test_spgd_l2_shrink():
    # gradient step lands at [2]; lam=1, eta=1 shrinks to [1]
    ds = _single_example_dataset([1.0], 2.0)
    traj = spgd_run(LeastSquares(), Regularizer("l2", 1.0), ds,
                    FixedConstant(1.0), T=1, rng_seed=0)
    np.testing.assert_allclose(traj.final, [1.0], atol=1e-15)


def test_regularizer_validation():
    with pytest.raises(InvalidArgument):
        Regularizer("linf", 1.0)
    with pytest.raises(InvalidArgument):
        Regularizer("l1", -0.5)


# ---------------------------------------------------------------------------
# without-replacement epochs
# ---------------------------------------------------------------------------

def test_without_replacement_n1_matches_sgd():
    ds = _single_example_dataset([1.0], 1.0)
    a = sgd_without_replacement_run(LeastSquares(), ds, FixedConstant(0.5),
                                    epochs=1, rng_seed=42)
    b = sgd_run(LeastSquares(), ds, FixedConstant(0.5), None, T=1, rng_seed=42)
    np.testing.assert_array_equal(a.final, b.final)


def test_without_replacement_hand_rolled_oracle():
    # replay the drawn permutation with a plain-python scalar recursion
    loss = LeastSquares()
    ds = Dataset(features=np.array([[1.0], [2.0]]), labels=np.array([1.0, -1.0]))
    seed = 7
    traj = sgd_without_replacement_run(loss, ds, FixedConstant(0.25), epochs=3,
                                       rng_seed=seed)
    key = _engine.derive_seed(seed, _engine.TAG_INDEX)
    gen = np.random.Generator(np.random.Philox(key=key))
    perm = np.concatenate([gen.permutation(2) for _ in range(3)])
    w = 0.0
    for t, i in enumerate(perm):
        x, y = float(ds.features[i, 0]), float(ds.labels[i])
        w = w - 0.25 * (w * x - y) * x
    assert traj.final[0] == pytest.approx(w, rel=1e-15)


def test_epoch_stream_is_per_epoch_shuffle():
    gens = [np.random.Generator(np.random.Philox(key=123 + r)) for r in range(6)]
    perms = np.concatenate([ids for _, ids in _engine.epoch_stream(gens, 5, 20).chunks(3)],
                           axis=1)
    assert perms.shape == (6, 20)
    for r in range(6):
        for k in range(4):
            block = np.sort(perms[r, k * 5:(k + 1) * 5])
            np.testing.assert_array_equal(block, np.arange(5))


def test_without_replacement_zero_etas_engine_path():
    ds = Dataset(features=np.array([[1.0], [2.0]]), labels=np.array([1.0, -1.0]))
    indices = _engine.epoch_stream([np.random.Generator(np.random.Philox(key=5))], 2, 4)
    out = _engine.run_core(LeastSquares(), ds.features[None], ds.labels[None],
                           None, None, None, np.zeros(4), None, indices)
    np.testing.assert_array_equal(out.finals[0, 0], [0.0])


def test_without_replacement_validation():
    ds = _single_example_dataset([1.0], 1.0)
    with pytest.raises(InvalidArgument):
        sgd_without_replacement_run(LeastSquares(), ds, FixedConstant(0.5),
                                    epochs=0, rng_seed=0)
    empty = Dataset(features=np.empty((0, 1)), labels=np.empty(0))
    with pytest.raises(InvalidArgument):
        sgd_without_replacement_run(LeastSquares(), empty, FixedConstant(0.5),
                                    epochs=1, rng_seed=0)
