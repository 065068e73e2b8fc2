import itertools
import tracemalloc

import numpy as np
import pytest

from sgdlab import _engine, optim, stability
from sgdlab.data import (
    Dataset,
    GaussLinReg,
    MarginClassif,
    NeighborFamily,
    closed_form_risk,
    neighbor,
    population_risk,
    population_risk_minimum,
    sample_dataset,
    sample_neighbor_family,
)
from sgdlab.errors import InvalidArgument, ResourceLimitExceeded
from sgdlab.losses import LeastSquares, QNormHinge
from sgdlab.optim import Ball, FixedConstant, PolyDecay
from sgdlab.stability import (
    broadcast_family,
    brute_force_stability,
    coupled_distances,
    estimate_generalization_gap,
    estimate_on_average_stability,
    gap_from_stability,
    replicate_data,
    _replicate_dataset_seed,
)


def _dist(d=2, noise_sd=0.3, cov=0.5):
    w = np.zeros(d)
    w[0] = 1.0
    return GaussLinReg(w_star=w, cov=cov, noise_sd=noise_sd)


def _replicate_indices(master_seed, r, n, T):
    """Replicate r's (1, T) i.i.d. index stream, drawn at once from its seed path."""
    key = _engine.derive_seed(master_seed, _engine.TAG_INDEX, r)
    return np.random.Generator(np.random.Philox(key=key)).integers(
        0, n, size=(1, T), dtype=np.int64)


def _ls_grad(w, x, y):
    return (float(w @ x) - y) * x


def _run_seq(ds, seq, etas):
    """Plain-python SGD replay used as the enumeration oracle."""
    w = np.zeros(ds.features.shape[1])
    for t, i in enumerate(seq):
        w = w - etas[t] * _ls_grad(w, ds.features[i], ds.labels[i])
    return w


# ---------------------------------------------------------------------------
# coupled pairs at position 0, through the replicate-batch skeleton
# ---------------------------------------------------------------------------

def test_coupled_pair_identical_ghost_gives_zero():
    ds = Dataset(features=np.array([[1.0, 0.0], [0.0, 2.0]]),
                 labels=np.array([1.0, -1.0]))
    fam = NeighborFamily(base=ds, ghost=ds)
    dists = coupled_distances(LeastSquares(), broadcast_family(fam), 2, 7,
                              FixedConstant(0.3).etas(7), None, 3, master_seed=5)
    np.testing.assert_array_equal(dists, np.zeros(3))


def test_coupled_pair_one_step_distance():
    # n = 1: the only index is the replaced one, so after one step the
    # distance is eta * ||grad gap at w_1 = 0||, with each replicate's eta
    base = Dataset(features=np.array([[2.0, 0.0]]), labels=np.array([1.0]))
    ghost = Dataset(features=np.array([[0.0, 1.0]]), labels=np.array([3.0]))
    fam = NeighborFamily(base=base, ghost=ghost)
    g_base = _ls_grad(np.zeros(2), base.features[0], base.labels[0])
    g_ghost = _ls_grad(np.zeros(2), ghost.features[0], ghost.labels[0])
    gap = np.linalg.norm(g_base - g_ghost)
    shared = coupled_distances(LeastSquares(), broadcast_family(fam), 1, 1,
                               np.array([0.25]), None, 2, master_seed=0)
    np.testing.assert_allclose(shared, 0.25 * gap, rtol=1e-14)
    per_replicate = coupled_distances(LeastSquares(), broadcast_family(fam), 1, 1,
                                      lambda lo, hi, Xs, ys: np.array([[0.25], [0.5]])[lo:hi],
                                      None, 2, master_seed=0)
    np.testing.assert_allclose(per_replicate, [0.25 * gap, 0.5 * gap], rtol=1e-14)


def test_coupled_pair_t0_zero_steps():
    fam = sample_neighbor_family(_dist(), 3, seed=1)
    dists = coupled_distances(LeastSquares(), broadcast_family(fam), 3, 0,
                              FixedConstant(0.1).etas(0), None, 2, master_seed=0)
    np.testing.assert_array_equal(dists, np.zeros(2))


def test_coupled_pair_position_validation(monkeypatch):
    fam = sample_neighbor_family(_dist(), 3, seed=1)
    etas = FixedConstant(0.1).etas(2)
    seqs = np.zeros((1, 2), dtype=np.int64)

    def no_run(*args, **kwargs):
        raise AssertionError("the engine ran before the positions were checked")

    monkeypatch.setattr(stability._engine, "run_core", no_run)
    # a given position outside [0, n) raises before any engine call
    for positions in (np.array([3]), np.array([-1])):
        with pytest.raises(InvalidArgument):
            stability._replicate_batches(
                LeastSquares(), 1, 3, etas, None, broadcast_family(fam),
                lambda lo, hi: _engine.given_stream(seqs[lo:hi]),
                lambda out, Xs, ys: (out.finals,), positions)


def test_coupled_distances_key_each_stream_by_the_replicate_seed(monkeypatch):
    # replicate r's stream is keyed (seed_r, index tag, 0), seed_r =
    # (master seed, replicate tag, r); one run per replicate gives the same bits.
    # The step sizes per replicate come per chunk (here 3 replicates of 2
    # rows), from the chunk's datasets
    monkeypatch.setattr(stability, "ROW_BUDGET", 6)
    dist, n, T, master_seed = _dist(), 5, 9, 21
    etas = np.stack([FixedConstant(0.1 * (r + 1)).etas(T) for r in range(4)])
    fams = [sample_neighbor_family(dist, n, _replicate_dataset_seed(master_seed, r))
            for r in range(4)]
    chunks = []

    def chunk_etas(lo, hi, Xs, ys):
        chunks.append((lo, hi))
        for k, fam in enumerate(fams[lo:hi]):
            assert Xs[k].tobytes() == fam.base.features.tobytes()
            assert ys[k].tobytes() == fam.base.labels.tobytes()
        return etas[lo:hi]

    got = coupled_distances(LeastSquares(), replicate_data(dist, n, master_seed), n, T,
                            chunk_etas, Ball(0.5), 4, master_seed)
    assert chunks == [(0, 3), (3, 4)]
    for r, fam in enumerate(fams):
        key = _engine.derive_seed(_replicate_dataset_seed(master_seed, r),
                                  _engine.TAG_INDEX, 0)
        out = _engine.run_core(
            LeastSquares(), fam.base.features[None], fam.base.labels[None],
            fam.ghost.features[None], fam.ghost.labels[None], np.array([[0]]),
            etas[r], 0.5,
            _engine.given_stream(np.random.Generator(np.random.Philox(key=key)).integers(
                0, n, size=(1, T), dtype=np.int64)))
        assert got[r] == np.linalg.norm(out.finals[:, 1] - out.finals[:, 0], axis=1)[0]


def test_replicate_data_is_keyed_by_the_replicate_seed():
    # replicate r draws from seed (master seed, replicate tag, r), whatever
    # chunk it is drawn in; its family's base is its dataset
    n, master_seed = 6, 4
    for dist in (_dist(), MarginClassif(w_star=np.array([1.0, 0.0, 0.0]), cov=0.5,
                                        flip_prob=0.1)):
        families = replicate_data(dist, n, master_seed)
        datasets = replicate_data(dist, n, master_seed, ghosts=False)
        for lo, hi in ((0, 1), (0, 5), (2, 5), (4, 5)):
            X, y, gX, gy = families(lo, hi)
            Xd, yd = datasets(lo, hi)
            assert X.shape == gX.shape == Xd.shape == (hi - lo, n, dist.dim)
            for k, r in enumerate(range(lo, hi)):
                seed = _replicate_dataset_seed(master_seed, r)
                ds = sample_dataset(dist, n, seed)
                fam = sample_neighbor_family(dist, n, seed)
                assert Xd[k].tobytes() == X[k].tobytes() == ds.features.tobytes()
                assert yd[k].tobytes() == y[k].tobytes() == ds.labels.tobytes()
                assert gX[k].tobytes() == fam.ghost.features.tobytes()
                assert gy[k].tobytes() == fam.ghost.labels.tobytes()


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


def test_enumeration_count_checks_the_budget_before_the_power():
    budget = stability.BRUTE_FORCE_MAX_SEQUENCES
    assert stability.enumeration_count(10, 6) == budget == 10 ** 6
    assert stability.enumeration_count(1000, 2) == budget
    assert stability.enumeration_count(2, 0) == 1
    # n = 1 has one sequence at any T
    assert stability.enumeration_count(1, 2 ** 62) == 1
    with pytest.raises(ResourceLimitExceeded, match="needs 10000000 sequences"):
        stability.enumeration_count(10, 7)
    # 2^(2^62) is never formed: it would take 2^59 bytes
    with pytest.raises(ResourceLimitExceeded, match=r"needs 2\^4611686018427387904 sequences"):
        stability.enumeration_count(2, 2 ** 62)


@pytest.mark.parametrize("n,T", [(1, 3), (2, 0), (2, 1), (2, 5), (3, 4), (5, 2)])
def test_index_sequences_of_a_chunk_are_those_of_the_full_enumeration(n, T):
    # sequence k of the n^T is k's base-n digits, most significant first;
    # a chunk lo..hi-1 builds only its own rows
    full = np.array(list(itertools.product(range(n), repeat=T)),
                    dtype=np.int64).reshape(n ** T, T)
    M = n ** T
    for lo, hi in ((0, M), (0, 1), (M - 1, M), (M // 3, M // 2 + 1)):
        got = stability._index_sequences(n, T, lo, hi)
        assert got.dtype == np.int64
        assert got.tobytes() == full[lo:hi].tobytes() and got.shape == (hi - lo, T)


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
    rep = estimate_on_average_stability(LeastSquares(), None, 2, 2, sched, None, 3000,
                                        master_seed=17, record_risks=False,
                                        fixed_family=fam)
    for vals, exact in ((rep.l1, exact_l1), (rep.l2_sq, exact_l2)):
        se = vals.std(ddof=1) / np.sqrt(vals.shape[0])
        assert abs(vals.mean() - exact) <= 3 * se
    assert np.ptp(rep.l1) > 0.0


def test_estimator_argument_validation():
    args = (LeastSquares(), _dist(), 4, 2, FixedConstant(0.1), None)
    with pytest.raises(InvalidArgument):
        estimate_on_average_stability(*args, 0, master_seed=0)
    # the skeleton takes its stack shapes from the first chunk, so it needs one
    fam = sample_neighbor_family(_dist(), 4, seed=1)
    with pytest.raises(InvalidArgument):
        coupled_distances(LeastSquares(), broadcast_family(fam), 4, 2,
                          FixedConstant(0.1).etas(2), None, 0, master_seed=0)


def test_estimator_determinism_and_seed_sensitivity():
    args = (LeastSquares(), _dist(), 6, 10, FixedConstant(0.1), None, 12)
    a = estimate_on_average_stability(*args, master_seed=9)
    b = estimate_on_average_stability(*args, master_seed=9)
    for name in ("l1", "l2_sq", "finals", "risk_steps", "risk", "emp_risk"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    c = estimate_on_average_stability(*args, master_seed=10)
    assert np.all(a.l1 != c.l1)


def test_estimator_zero_steps():
    rep = estimate_on_average_stability(LeastSquares(), _dist(), 4, 0,
                                        FixedConstant(0.1), None, 3, master_seed=0)
    np.testing.assert_array_equal(rep.l1, np.zeros(3))
    np.testing.assert_array_equal(rep.l2_sq, np.zeros(3))
    np.testing.assert_array_equal(rep.finals, np.zeros((3, 2)))
    assert rep.risk_steps is None and rep.risk is None
    # the output w_1 = 0 still has an empirical risk
    assert rep.emp_risk.shape == (3,) and np.all(rep.emp_risk > 0.0)


def test_estimator_jensen_consistency():
    rep = estimate_on_average_stability(LeastSquares(), _dist(), 6, 12,
                                        FixedConstant(0.15), None, 16, master_seed=2,
                                        record_risks=False)
    # per replicate, the mean distance squared is at most the mean squared distance
    assert np.all(rep.l1 ** 2 <= rep.l2_sq * (1 + 1e-12))
    assert np.all(rep.l1 > 0.0)
    assert rep.risk_steps is None and rep.risk is None
    assert rep.emp_risk.shape == (16,)


def test_estimator_risk_path_structure():
    rep = estimate_on_average_stability(LeastSquares(), _dist(), 4, 9,
                                        FixedConstant(0.1), None, 5, master_seed=8)
    np.testing.assert_array_equal(rep.risk_steps, _engine.checkpoint_steps(9))
    assert rep.risk_steps[0] == 1 and rep.risk_steps[-1] == 9
    assert rep.l1.shape == rep.l2_sq.shape == rep.emp_risk.shape == (5,)
    assert rep.finals.shape == (5, 2)
    assert rep.risk.shape == (5, 9)
    assert np.all(rep.risk >= 0.0) and np.all(rep.emp_risk >= 0.0)


def _count_engine_calls(monkeypatch):
    """Replicates per ``run_core`` call, in call order, from a counting wrapper."""
    sizes = []
    run_core = _engine.run_core

    def counting(*args, **kwargs):
        sizes.append(args[8].shape[0])      # the (R, T) index streams
        return run_core(*args, **kwargs)

    monkeypatch.setattr(_engine, "run_core", counting)
    return sizes


def test_chunks_run_a_grid_point_in_as_few_engine_calls_as_the_budgets_allow(monkeypatch):
    sizes = _count_engine_calls(monkeypatch)
    # every neighbour of 16 replicates at n = 512: 16 * 513 rows fit the row
    # budget, so one call runs them all
    estimate_on_average_stability(LeastSquares(), _dist(), 512, 8, FixedConstant(0.1),
                                  None, 16, master_seed=0, record_risks=False)
    assert sizes == [16]
    # base runs alone at n = 4096: the example budget holds 2^18 / 4096 = 64
    # datasets per chunk
    sizes.clear()
    estimate_generalization_gap(LeastSquares(), _dist(), 4096, 4, FixedConstant(0.1),
                                None, replicates=100, master_seed=0)
    assert sizes == [64, 36]


def test_estimator_requires_source_of_data():
    with pytest.raises(InvalidArgument):
        estimate_on_average_stability(LeastSquares(), None, 4, 2,
                                      FixedConstant(0.1), None, 2, master_seed=0)


# ---------------------------------------------------------------------------
# generalization gap
# ---------------------------------------------------------------------------

def test_gap_determinism_and_fields():
    args = (LeastSquares(), _dist(), 8, 8, FixedConstant(0.1), None)
    rep = estimate_generalization_gap(*args, replicates=16, master_seed=3)
    rep2 = estimate_generalization_gap(*args, replicates=16, master_seed=3)
    assert rep.pop.tobytes() == rep2.pop.tobytes()
    assert rep.gap.tobytes() == rep2.gap.tobytes()
    assert rep.pop.shape == rep.gap.shape == (16,)
    # no output beats the risk minimum 0.5 noise_sd^2
    f_star, _ = population_risk_minimum(LeastSquares(), _dist())
    assert np.all(np.isfinite(rep.pop)) and np.all(rep.pop >= f_star)


def test_gap_estimator_takes_the_eta_average_of_the_base_runs():
    # replicate r's output is the step-size-weighted average of a run on
    # replicate r's dataset along replicate r's index stream, as the
    # single-trajectory runner computes it
    loss, sched, domain = LeastSquares(), PolyDecay(eta1=0.3, theta=0.6), Ball(radius=0.5)
    n, T, R = 7, 9, 4
    rep = estimate_generalization_gap(loss, _dist(), n, T, sched, domain,
                                      replicates=R, master_seed=6)
    outs = np.empty((R, 2))
    emp = np.empty(R)
    for r in range(R):
        ds = sample_dataset(_dist(), n, _replicate_dataset_seed(6, r))
        traj = optim._run(loss, ds.features, ds.labels, sched, domain, None, 0,
                          _engine.given_stream(_replicate_indices(6, r, n, T)),
                          record_every=1)
        outs[r] = traj.avg_eta
        emp[r] = _engine._batch_empirical_risk(loss, traj.avg_eta[None],
                                               ds.features[None], ds.labels[None])[0]
    pop = population_risk(loss, _dist(), outs)
    np.testing.assert_array_equal(rep.pop, pop)
    np.testing.assert_array_equal(rep.gap, pop - emp)
    with pytest.raises(InvalidArgument):
        estimate_generalization_gap(loss, _dist(), n, T, sched, domain, replicates=1,
                                    master_seed=6)


def test_gap_estimator_memory_does_not_grow_with_T():
    # 16 replicates of 65536 steps: their index streams alone are 8 MiB when
    # drawn at once; read in chunks, the whole estimate stays under 4 MiB
    tracemalloc.start()
    try:
        rep = estimate_generalization_gap(LeastSquares(), _dist(), 8, 2 ** 16,
                                          FixedConstant(0.01), None, replicates=16,
                                          master_seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(rep.gap))
    assert peak < 4 * 2 ** 20


def test_gap_zero_steps_is_zero_gap():
    # w = 0 regardless of the data: population and empirical risks agree in
    # expectation and the gap is 0 up to sampling noise in F_S(0)
    rep = estimate_generalization_gap(LeastSquares(), _dist(), 64, 0,
                                      FixedConstant(0.1), None, replicates=64,
                                      master_seed=5)
    se = rep.gap.std(ddof=1) / np.sqrt(rep.gap.shape[0])
    assert abs(rep.gap.mean()) <= 4 * se + 1e-12


def test_gap_runs_without_risk_minimum():
    # the gap needs E F(A(S)) only: a pair with no closed-form F or F* takes
    # it from the held-out loss of the neighbour runs
    loss = QNormHinge(q=1.5)
    with pytest.raises(InvalidArgument):
        population_risk_minimum(loss, _dist())
    with pytest.raises(InvalidArgument):
        population_risk(loss, _dist(), np.zeros(2))
    with pytest.raises(InvalidArgument):
        estimate_generalization_gap(loss, _dist(), 6, 6, FixedConstant(0.05), None,
                                    replicates=4, master_seed=2)
    stab = estimate_on_average_stability(loss, _dist(), 6, 6, FixedConstant(0.05), None,
                                         4, master_seed=2)
    rep = gap_from_stability(loss, _dist(), stab)
    assert rep.pop.shape == rep.gap.shape == (4,)
    assert np.all(np.isfinite(rep.pop)) and np.all(rep.pop > 0.0)
    assert np.all(np.isfinite(rep.gap))


@pytest.mark.parametrize("loss,radius", [(LeastSquares(), None), (QNormHinge(q=1.5), 3)],
                         ids=["closed_form", "held_out"])
def test_gap_from_stability_takes_the_closed_form_or_the_held_out_loss(loss, radius):
    # pop is F at each base output where the pair has a closed form, and the
    # neighbour runs' held-out loss elsewhere; gap is pop - F_S
    domain = None if radius is None else Ball(radius=float(radius))
    stab = estimate_on_average_stability(loss, _dist(), 7, 9, FixedConstant(0.1), domain,
                                         6, master_seed=8)
    got = gap_from_stability(loss, _dist(), stab)
    if closed_form_risk(loss, _dist()) is None:
        want = stab.held_out
    else:
        want = population_risk(loss, _dist(), stab.finals)
    assert got.pop.tobytes() == want.tobytes()
    assert got.gap.tobytes() == (want - stab.emp_risk).tobytes()


def test_held_out_is_each_neighbour_runs_loss_at_its_left_out_example():
    # held_out[r] is the mean over i of f(w^(i)_{T+1}; z_i), with w^(i) a
    # plain run on S^(i) along replicate r's index stream
    loss, sched = QNormHinge(q=1.5), FixedConstant(0.3)
    dist = MarginClassif(w_star=np.array([1.0, 0.0, 0.0]), cov=0.5, flip_prob=0.1)
    n = T = 5
    R = 3
    rep = estimate_on_average_stability(loss, dist, n, T, sched, None, R, master_seed=4)
    want = np.empty(R)
    for r in range(R):
        family = sample_neighbor_family(dist, n, _replicate_dataset_seed(4, r))
        stream = _replicate_indices(4, r, n, T)
        vals = np.empty(n)
        for i in range(n):
            ds = neighbor(family, i)
            final = optim._run(loss, ds.features, ds.labels, sched, None, None, 0,
                               _engine.given_stream(stream), record_every=1).final
            z = family.base
            vals[i] = loss.batch_value(final[None], z.features[i:i + 1], z.labels[i:i + 1])[0]
        want[r] = vals.mean()
    np.testing.assert_array_equal(rep.held_out, want)


def test_held_out_is_unbiased_for_the_population_risk():
    # A(S^(i)) has the law of A(S) and is independent of z_i, so the
    # held-out loss has mean E F(A(S)); c03's thm2 runs at n = 64
    dist = GaussLinReg(w_star=np.eye(8)[0], cov=0.125, noise_sd=0.5)
    rep = estimate_on_average_stability(LeastSquares(), dist, 64, 64,
                                        FixedConstant(0.015625), None, 200, master_seed=0,
                                        record_risks=False)
    diff = rep.held_out - population_risk(LeastSquares(), dist, rep.finals)
    se = diff.std(ddof=1) / np.sqrt(diff.shape[0])
    assert abs(diff.mean()) <= 3.0 * se


def test_gap_from_stability_needs_two_replicates_not_the_risk_path():
    sched = FixedConstant(0.1)
    path = estimate_on_average_stability(LeastSquares(), _dist(), 4, 4, sched, None,
                                         3, master_seed=1)
    no_path = estimate_on_average_stability(LeastSquares(), _dist(), 4, 4, sched, None,
                                            3, master_seed=1, record_risks=False)
    # the output's empirical risk is recorded either way, to the last bit
    assert no_path.emp_risk.tobytes() == path.emp_risk.tobytes()
    got = gap_from_stability(LeastSquares(), _dist(), no_path)
    want = gap_from_stability(LeastSquares(), _dist(), path)
    assert got.gap.tobytes() == want.gap.tobytes()
    one = estimate_on_average_stability(LeastSquares(), _dist(), 4, 4, sched, None,
                                        1, master_seed=1)
    with pytest.raises(InvalidArgument):
        gap_from_stability(LeastSquares(), _dist(), one)


# ---------------------------------------------------------------------------
# without-replacement epochs
# ---------------------------------------------------------------------------

def test_epoch_estimator_zero_epochs():
    rep = estimate_on_average_stability(LeastSquares(), _dist(), 4, 0,
                                        FixedConstant(0.1), None, 3, master_seed=0,
                                        without_replacement=True)
    np.testing.assert_array_equal(rep.l1, np.zeros(3))
    np.testing.assert_array_equal(rep.l2_sq, np.zeros(3))


def test_epoch_estimator_hand_rolled_single_replicate():
    dist = _dist()
    master_seed = 13
    n, epochs = 2, 2
    sched = FixedConstant(0.2)
    rep = estimate_on_average_stability(LeastSquares(), dist, n, n * epochs, sched, None,
                                        1, master_seed=master_seed, record_risks=False,
                                        without_replacement=True)

    fam = sample_neighbor_family(dist, n, _replicate_dataset_seed(master_seed, 0))
    key = _engine.derive_seed(master_seed, _engine.TAG_PERM, 0)
    gen = np.random.Generator(np.random.Philox(key=key))
    perm = np.concatenate([gen.permutation(n) for _ in range(epochs)])
    etas = sched.etas(n * epochs)
    dists = []
    for i in range(n):
        nb_X, nb_y = fam.base.features.copy(), fam.base.labels.copy()
        nb_X[i], nb_y[i] = fam.ghost.features[i], fam.ghost.labels[i]
        nb = Dataset(features=nb_X, labels=nb_y)
        w = _run_seq(fam.base, perm, etas)
        w_i = _run_seq(nb, perm, etas)
        dists.append(np.linalg.norm(w - w_i))
    assert rep.l1[0] == pytest.approx(np.mean(dists), abs=1e-12)
    assert rep.l2_sq[0] == pytest.approx(np.mean(np.array(dists) ** 2), abs=1e-12)


def test_epoch_estimator_validation():
    # T must be a whole number of epochs
    with pytest.raises(InvalidArgument):
        estimate_on_average_stability(LeastSquares(), _dist(), 4, 6, FixedConstant(0.1),
                                      None, 2, master_seed=0, without_replacement=True)
