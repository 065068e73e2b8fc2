import numpy as np
import pytest

from sgdlab import _engine
from sgdlab.data import (
    Dataset,
    GaussLinReg,
    NeighborFamily,
    sample_neighbor_family,
)
from sgdlab.errors import InvalidArgument, ResourceLimitExceeded
from sgdlab.losses import LeastSquares, QNormHinge
from sgdlab.optim import Ball, FixedConstant, PolyDecay, StronglyConvexDecay
from sgdlab.stability import (
    CouplingConfig,
    brute_force_stability,
    coupled_pair_run,
    estimate_epoch_stability_without_replacement,
    estimate_generalization_gap,
    estimate_on_average_stability,
    gap_from_stability,
    uniform_stability_proxy,
    _replicate_dataset_seed,
)


def _dist(d=2, noise_sd=0.3, cov=0.5):
    w = np.zeros(d)
    w[0] = 1.0
    return GaussLinReg(w_star=w, cov=cov, noise_sd=noise_sd)


def _ls_grad(w, x, y):
    return (float(w @ x) - y) * x


def _run_seq(ds, seq, etas):
    """Plain-python SGD replay used as the enumeration oracle."""
    w = np.zeros(ds.features.shape[1])
    for t, i in enumerate(seq):
        w = w - etas[t] * _ls_grad(w, ds.features[i], ds.labels[i])
    return w


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_coupling_config_validation():
    with pytest.raises(InvalidArgument):
        CouplingConfig(replicates=0)
    with pytest.raises(InvalidArgument):
        CouplingConfig(replicates=2, neighbor_subsample=0)
    with pytest.raises(InvalidArgument):
        CouplingConfig(replicates=2, threads=0)
    cfg = CouplingConfig(replicates=3)
    assert cfg.neighbor_subsample is None and cfg.record_risks


# ---------------------------------------------------------------------------
# coupled pair
# ---------------------------------------------------------------------------

def test_coupled_pair_identical_ghost_gives_zero():
    ds = Dataset(features=np.array([[1.0, 0.0], [0.0, 2.0]]),
                 labels=np.array([1.0, -1.0]))
    fam = NeighborFamily(base=ds, ghost=ds)
    w, w_i, risks = coupled_pair_run(LeastSquares(), fam, 1, FixedConstant(0.3),
                                     None, T=7, master_seed=5)
    np.testing.assert_array_equal(w, w_i)
    assert risks.shape == (7,)


def test_coupled_pair_one_step_distance():
    # n = 1: the only index is the replaced one, so after one step the
    # distance is eta * ||grad gap at w_1 = 0||
    base = Dataset(features=np.array([[2.0, 0.0]]), labels=np.array([1.0]))
    ghost = Dataset(features=np.array([[0.0, 1.0]]), labels=np.array([3.0]))
    fam = NeighborFamily(base=base, ghost=ghost)
    w, w_i, _ = coupled_pair_run(LeastSquares(), fam, 0, FixedConstant(0.25),
                                 None, T=1, master_seed=0)
    g_base = _ls_grad(np.zeros(2), base.features[0], base.labels[0])
    g_ghost = _ls_grad(np.zeros(2), ghost.features[0], ghost.labels[0])
    np.testing.assert_allclose(w, -0.25 * g_base, atol=1e-15)
    np.testing.assert_allclose(w_i, -0.25 * g_ghost, atol=1e-15)
    expected = 0.25 * np.linalg.norm(g_base - g_ghost)
    assert np.linalg.norm(w - w_i) == pytest.approx(expected, rel=1e-14)


def test_coupled_pair_t0_zero_steps():
    fam = sample_neighbor_family(_dist(), 3, seed=1)
    w, w_i, risks = coupled_pair_run(LeastSquares(), fam, 0, FixedConstant(0.1),
                                     None, T=0, master_seed=0)
    np.testing.assert_array_equal(w, np.zeros(2))
    np.testing.assert_array_equal(w_i, np.zeros(2))
    assert risks.shape == (0,)


def test_coupled_pair_position_validation():
    fam = sample_neighbor_family(_dist(), 3, seed=1)
    with pytest.raises(InvalidArgument):
        coupled_pair_run(LeastSquares(), fam, 3, FixedConstant(0.1), None, 2, 0)


# ---------------------------------------------------------------------------
# brute force enumeration
# ---------------------------------------------------------------------------

def test_brute_force_identical_family_is_zero():
    ds = Dataset(features=np.array([[1.0], [2.0]]), labels=np.array([1.0, 0.0]))
    fam = NeighborFamily(base=ds, ghost=ds)
    l1, l2 = brute_force_stability(LeastSquares(), fam, FixedConstant(0.5), None, 3)
    assert l1 == 0.0 and l2 == 0.0


def test_brute_force_hand_rolled_n2_t2():
    base = Dataset(features=np.array([[1.0, 0.0], [0.0, 1.0]]),
                   labels=np.array([1.0, -1.0]))
    ghost = Dataset(features=np.array([[0.5, 0.5], [1.0, 1.0]]),
                    labels=np.array([0.0, 2.0]))
    fam = NeighborFamily(base=base, ghost=ghost)
    sched = PolyDecay(0.4, 0.5)
    etas = sched.etas(2)

    # enumerate all 4 sequences x 2 neighbor positions in plain python
    seq_l1, seq_l2 = [], []
    for seq in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        dists = []
        for i in range(2):
            nb_X = base.features.copy()
            nb_y = base.labels.copy()
            nb_X[i], nb_y[i] = ghost.features[i], ghost.labels[i]
            nb = Dataset(features=nb_X, labels=nb_y)
            d = np.linalg.norm(_run_seq(base, seq, etas) - _run_seq(nb, seq, etas))
            dists.append(d)
        seq_l1.append(np.mean(dists))
        seq_l2.append(np.mean(np.array(dists) ** 2))
    l1, l2 = brute_force_stability(LeastSquares(), fam, sched, None, 2)
    assert l1 == pytest.approx(np.mean(seq_l1), abs=1e-12)
    assert l2 == pytest.approx(np.mean(seq_l2), abs=1e-12)


def test_brute_force_single_point_deterministic():
    base = Dataset(features=np.array([[1.0]]), labels=np.array([1.0]))
    ghost = Dataset(features=np.array([[1.0]]), labels=np.array([0.0]))
    fam = NeighborFamily(base=base, ghost=ghost)
    # one step, eta=0.5: w = 0.5 on S, 0.0 on the neighbor -> distance 0.5
    l1, l2 = brute_force_stability(LeastSquares(), fam, FixedConstant(0.5), None, 1)
    assert l1 == pytest.approx(0.5, abs=1e-15)
    assert l2 == pytest.approx(0.25, abs=1e-15)


def test_brute_force_budget():
    fam = sample_neighbor_family(_dist(), 10, seed=0)
    with pytest.raises(ResourceLimitExceeded):
        brute_force_stability(LeastSquares(), fam, FixedConstant(0.1), None, 7)


def test_brute_force_respects_ball():
    base = Dataset(features=np.array([[2.0], [1.0]]), labels=np.array([5.0, -5.0]))
    ghost = Dataset(features=np.array([[1.0], [2.0]]), labels=np.array([-5.0, 5.0]))
    fam = NeighborFamily(base=base, ghost=ghost)
    # tiny ball: all finals pinned to radius, distances bounded by diameter
    l1, _ = brute_force_stability(LeastSquares(), fam, FixedConstant(1.0),
                                  Ball(0.01), 4)
    assert l1 <= 0.02 + 1e-12


# ---------------------------------------------------------------------------
# Monte-Carlo estimator
# ---------------------------------------------------------------------------

def test_mc_agrees_with_enumeration():
    fam = sample_neighbor_family(_dist(), 2, seed=3)
    sched = FixedConstant(0.2)
    exact_l1, exact_l2 = brute_force_stability(LeastSquares(), fam, sched, None, 2)
    cfg = CouplingConfig(replicates=3000, record_risks=False)
    rep = estimate_on_average_stability(LeastSquares(), None, 2, 2, sched, None,
                                        cfg, master_seed=17, fixed_family=fam)
    assert abs(rep.l1_mean - exact_l1) <= 3 * rep.l1_stderr
    assert abs(rep.l2_sq_mean - exact_l2) <= 3 * rep.l2_sq_stderr
    assert rep.l1_stderr > 0.0


def test_estimator_determinism_and_seed_sensitivity():
    cfg = CouplingConfig(replicates=12)
    args = (LeastSquares(), _dist(), 6, 10, FixedConstant(0.1), None, cfg)
    a = estimate_on_average_stability(*args, master_seed=9)
    b = estimate_on_average_stability(*args, master_seed=9)
    assert (a.l1_mean, a.l2_sq_mean, a.l1_stderr) == (b.l1_mean, b.l2_sq_mean, b.l1_stderr)
    np.testing.assert_array_equal(a.risk_path.mean, b.risk_path.mean)
    c = estimate_on_average_stability(*args, master_seed=10)
    assert a.l1_mean != c.l1_mean


def test_estimator_thread_invariance():
    # threads is accepted and has no effect; the results must not depend on it
    base_cfg = dict(replicates=20, record_risks=True)
    a = estimate_on_average_stability(
        LeastSquares(), _dist(), 5, 8, FixedConstant(0.1), Ball(1.0),
        CouplingConfig(threads=1, **base_cfg), master_seed=4)
    b = estimate_on_average_stability(
        LeastSquares(), _dist(), 5, 8, FixedConstant(0.1), Ball(1.0),
        CouplingConfig(threads=4, **base_cfg), master_seed=4)
    assert a.l1_mean == b.l1_mean
    assert a.l2_sq_mean == b.l2_sq_mean
    np.testing.assert_array_equal(a.risk_path.mean, b.risk_path.mean)
    np.testing.assert_array_equal(a.risk_path.frac_mean, b.risk_path.frac_mean)


def test_estimator_zero_steps():
    cfg = CouplingConfig(replicates=3)
    rep = estimate_on_average_stability(LeastSquares(), _dist(), 4, 0,
                                        FixedConstant(0.1), None, cfg, master_seed=0)
    assert rep.l1_mean == 0.0 and rep.l2_sq_mean == 0.0
    assert rep.risk_path is None


def test_estimator_jensen_consistency():
    cfg = CouplingConfig(replicates=16, record_risks=False)
    rep = estimate_on_average_stability(LeastSquares(), _dist(), 6, 12,
                                        FixedConstant(0.15), None, cfg, master_seed=2)
    assert rep.l1_mean ** 2 <= rep.l2_sq_mean * (1 + 1e-12)
    assert rep.l1_mean > 0.0


def test_estimator_subsample_paths():
    cfg_all = CouplingConfig(replicates=10, record_risks=False)
    cfg_sub = CouplingConfig(replicates=10, neighbor_subsample=2, record_risks=False)
    full = estimate_on_average_stability(LeastSquares(), _dist(), 5, 6,
                                         FixedConstant(0.1), None, cfg_all, master_seed=1)
    sub = estimate_on_average_stability(LeastSquares(), _dist(), 5, 6,
                                        FixedConstant(0.1), None, cfg_sub, master_seed=1)
    # subsampling changes the variance, not the scale
    assert sub.l1_mean == pytest.approx(full.l1_mean, rel=1.0)
    with pytest.raises(InvalidArgument):
        estimate_on_average_stability(
            LeastSquares(), _dist(), 5, 6, FixedConstant(0.1), None,
            CouplingConfig(replicates=2, neighbor_subsample=6), master_seed=0)


def test_estimator_risk_path_structure():
    cfg = CouplingConfig(replicates=5)
    rep = estimate_on_average_stability(LeastSquares(), _dist(), 4, 9,
                                        FixedConstant(0.1), None, cfg, master_seed=8)
    rp = rep.risk_path
    np.testing.assert_array_equal(rp.steps, _engine.checkpoint_steps(9))
    assert rp.steps[0] == 1 and rp.steps[-1] == 9
    assert rp.mean.shape == rp.steps.shape == rp.sqrt_mean.shape == rp.frac_mean.shape
    assert np.all(rp.mean >= 0.0)
    # least squares is smooth (alpha = 1): the fractional exponent is 1
    assert rp.frac_exponent == pytest.approx(1.0)
    np.testing.assert_allclose(rp.frac_mean, rp.mean, rtol=1e-12)
    np.testing.assert_allclose(rp.sqrt_mean ** 2 <= rp.mean * (1 + 1e-12), True)
    assert rp.final_mean >= 0.0 and rp.final_stderr >= 0.0


def test_estimator_requires_source_of_data():
    cfg = CouplingConfig(replicates=2)
    with pytest.raises(InvalidArgument):
        estimate_on_average_stability(LeastSquares(), None, 4, 2,
                                      FixedConstant(0.1), None, cfg, master_seed=0)


# ---------------------------------------------------------------------------
# uniform-stability proxy
# ---------------------------------------------------------------------------

def test_proxy_hand_value_n1():
    ds_a = Dataset(features=np.array([[1.0]]), labels=np.array([1.0]))
    ds_b = Dataset(features=np.array([[1.0]]), labels=np.array([0.0]))
    pts = [(np.array([1.0]), 1.0), (np.array([2.0]), -1.0)]
    got = uniform_stability_proxy(LeastSquares(), ds_a, ds_b, FixedConstant(0.5),
                                  None, T=1, eval_points=pts, replicates=4,
                                  master_seed=0)
    # n = 1: every stream picks example 0, so w_a = 0.5 and w_b = 0.0 always
    loss = LeastSquares()
    expected = max(
        abs(loss.value(np.array([0.5]), np.array([1.0]), 1.0)
            - loss.value(np.array([0.0]), np.array([1.0]), 1.0)),
        abs(loss.value(np.array([0.5]), np.array([2.0]), -1.0)
            - loss.value(np.array([0.0]), np.array([2.0]), -1.0)),
    )
    assert got == pytest.approx(expected, rel=1e-14)


def test_proxy_validation_and_warning():
    ds = Dataset(features=np.array([[1.0], [2.0]]), labels=np.array([1.0, 0.0]))
    same = Dataset(features=ds.features.copy(), labels=ds.labels.copy())
    with pytest.raises(InvalidArgument):
        uniform_stability_proxy(LeastSquares(), ds, same, FixedConstant(0.1),
                                None, 1, [(np.array([1.0]), 1.0)], 2, 0)
    both = Dataset(features=ds.features + 1.0, labels=ds.labels)
    with pytest.raises(InvalidArgument):
        uniform_stability_proxy(LeastSquares(), ds, both, FixedConstant(0.1),
                                None, 1, [(np.array([1.0]), 1.0)], 2, 0)
    one = Dataset(features=np.array([[1.0], [3.0]]), labels=np.array([1.0, 0.0]))
    with pytest.warns(UserWarning):
        out = uniform_stability_proxy(LeastSquares(), ds, one, FixedConstant(0.1),
                                      None, 1, [], 2, 0)
    assert out == 0.0


# ---------------------------------------------------------------------------
# generalization gap
# ---------------------------------------------------------------------------

def test_gap_determinism_and_fields():
    rep = estimate_generalization_gap(LeastSquares(), _dist(), 8, 8,
                                      FixedConstant(0.1), None, replicates=16,
                                      mc_pop=0, master_seed=3)
    rep2 = estimate_generalization_gap(LeastSquares(), _dist(), 8, 8,
                                       FixedConstant(0.1), None, replicates=16,
                                       mc_pop=0, master_seed=3)
    assert rep.gap_mean == rep2.gap_mean and rep.gap_stderr == rep2.gap_stderr
    assert rep.output == "final"
    assert rep.n == 8 and rep.T == 8 and rep.replicates == 16
    assert np.isfinite(rep.excess_mean) and rep.excess_mean > 0.0


def test_gap_output_selection():
    sc = StronglyConvexDecay(sigma=1.0, t0=4)
    rep = estimate_generalization_gap(LeastSquares(), _dist(), 6, 6, sc, None,
                                      replicates=4, mc_pop=0, master_seed=1)
    assert rep.output == "avg_linear"
    rep2 = estimate_generalization_gap(LeastSquares(), _dist(), 6, 6, sc, None,
                                       replicates=4, mc_pop=0, master_seed=1,
                                       output="avg_eta")
    assert rep2.output == "avg_eta"
    assert rep.gap_mean != rep2.gap_mean
    with pytest.raises(InvalidArgument):
        estimate_generalization_gap(LeastSquares(), _dist(), 6, 6, sc, None,
                                    replicates=4, mc_pop=0, master_seed=1,
                                    output="median")
    with pytest.raises(InvalidArgument):
        estimate_generalization_gap(LeastSquares(), _dist(), 6, 6, sc, None,
                                    replicates=1, mc_pop=0, master_seed=1)


def test_gap_zero_steps_is_zero_gap():
    # w = 0 regardless of the data: population and empirical risks agree in
    # expectation and the gap is 0 up to sampling noise in F_S(0)
    rep = estimate_generalization_gap(LeastSquares(), _dist(), 64, 0,
                                      FixedConstant(0.1), None, replicates=64,
                                      mc_pop=0, master_seed=5)
    assert abs(rep.gap_mean) <= 4 * rep.gap_stderr + 1e-12


def test_gap_excess_nan_without_minimum():
    rep = estimate_generalization_gap(QNormHinge(q=1.5), _dist(), 6, 6,
                                      FixedConstant(0.05), None, replicates=4,
                                      mc_pop=500, master_seed=2)
    assert np.isnan(rep.excess_mean) and np.isnan(rep.excess_stderr)
    assert np.isfinite(rep.gap_mean)


@pytest.mark.parametrize("loss,subsample,mc_pop", [
    (LeastSquares(), None, 0),
    (QNormHinge(q=1.5), 3, 400),   # no closed form: Monte Carlo population risk
])
def test_gap_from_stability_equals_the_gap_estimator(loss, subsample, mc_pop):
    # the base runs of the stability estimate are the gap estimator's runs
    sched = FixedConstant(0.1)
    stab = estimate_on_average_stability(
        loss, _dist(), 7, 9, sched, None,
        CouplingConfig(replicates=6, neighbor_subsample=subsample), master_seed=8)
    got = gap_from_stability(loss, _dist(), stab, mc_pop, master_seed=8)
    want = estimate_generalization_gap(loss, _dist(), 7, 9, sched, None,
                                       replicates=6, mc_pop=mc_pop, master_seed=8,
                                       output="final")
    assert repr(got) == repr(want)   # floats to the last bit; nan excess alike


def test_gap_from_stability_needs_recorded_risks_and_two_replicates():
    sched = FixedConstant(0.1)
    no_risks = estimate_on_average_stability(
        LeastSquares(), _dist(), 4, 4, sched, None,
        CouplingConfig(replicates=3, record_risks=False), master_seed=1)
    with pytest.raises(InvalidArgument):
        gap_from_stability(LeastSquares(), _dist(), no_risks, 0, master_seed=1)
    one = estimate_on_average_stability(
        LeastSquares(), _dist(), 4, 4, sched, None,
        CouplingConfig(replicates=1), master_seed=1)
    with pytest.raises(InvalidArgument):
        gap_from_stability(LeastSquares(), _dist(), one, 0, master_seed=1)


def test_gap_thread_invariance():
    a = estimate_generalization_gap(LeastSquares(), _dist(), 8, 8,
                                    FixedConstant(0.1), None, replicates=20,
                                    mc_pop=0, master_seed=7, threads=1)
    b = estimate_generalization_gap(LeastSquares(), _dist(), 8, 8,
                                    FixedConstant(0.1), None, replicates=20,
                                    mc_pop=0, master_seed=7, threads=4)
    assert a.gap_mean == b.gap_mean and a.excess_mean == b.excess_mean


# ---------------------------------------------------------------------------
# without-replacement epochs
# ---------------------------------------------------------------------------

def test_epoch_estimator_zero_epochs():
    cfg = CouplingConfig(replicates=3)
    rep = estimate_epoch_stability_without_replacement(
        LeastSquares(), _dist(), 4, 0, FixedConstant(0.1), cfg, master_seed=0)
    assert rep.l1_mean == 0.0 and rep.l2_sq_mean == 0.0


def test_epoch_estimator_hand_rolled_single_replicate():
    dist = _dist()
    master_seed = 13
    n, epochs = 2, 2
    cfg = CouplingConfig(replicates=1, record_risks=False)
    sched = FixedConstant(0.2)
    rep = estimate_epoch_stability_without_replacement(
        LeastSquares(), dist, n, epochs, sched, cfg, master_seed=master_seed)

    fam = sample_neighbor_family(dist, n, _replicate_dataset_seed(master_seed, 0))
    perm = _engine.permutation_matrix(
        _engine.derive_seed(master_seed, _engine.TAG_PERM, 0), n, epochs, 1)[0]
    etas = sched.etas(n * epochs)
    dists = []
    for i in range(n):
        nb_X, nb_y = fam.base.features.copy(), fam.base.labels.copy()
        nb_X[i], nb_y[i] = fam.ghost.features[i], fam.ghost.labels[i]
        nb = Dataset(features=nb_X, labels=nb_y)
        w = _run_seq(fam.base, perm, etas)
        w_i = _run_seq(nb, perm, etas)
        dists.append(np.linalg.norm(w - w_i))
    assert rep.l1_mean == pytest.approx(np.mean(dists), abs=1e-12)
    assert rep.l2_sq_mean == pytest.approx(np.mean(np.array(dists) ** 2), abs=1e-12)


def test_epoch_estimator_validation():
    cfg = CouplingConfig(replicates=2, neighbor_subsample=9)
    with pytest.raises(InvalidArgument):
        estimate_epoch_stability_without_replacement(
            LeastSquares(), _dist(), 4, 1, FixedConstant(0.1), cfg, master_seed=0)
