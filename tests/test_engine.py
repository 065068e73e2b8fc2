"""Lazy forking and block stepping in the trajectory engine.

``_eager_run_core`` advances every coupled row for every step and observes
the base rows step by step: the direct reading of the coupling, kept here as
an oracle only.  The engine forks a neighbour from its base row at the first
step that draws its position, never creates one that is never drawn, and
computes what it observes on the base rows once per block of steps; every
output must equal the eager loop's bit for bit, for any block length.

The oracle tests the forking and the blocks, not the formula for F_S: at
each checkpoint it takes the risk from the loss's ``risk_evaluator`` (the QR
form for least squares, tested against the per-example mean in
``test_losses.py``), one checkpoint at a time.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgdlab import _engine, optim
from sgdlab.data import Dataset
from sgdlab.errors import InvalidArgument
from sgdlab.losses import AucSquare, LeastSquares, QNormHinge, project_rows
from sgdlab.optim import Ball, StronglyConvexDecay, sgd_run, sgd_without_replacement_run


def _eager_run_core(loss, Xs, ys, gXs, gys, sub_idx, etas, radius, indices, *,
                    risk_ckpt_steps, weightings):
    # ``weightings``: the (T,) weights of each average to take, of all rows
    R, n, d = Xs.shape
    T = indices.shape[1]
    m = 0 if sub_idx is None else sub_idx.shape[1]
    B = 1 + m
    W = np.zeros((R, B, d))
    accs = [np.zeros((R, B, d)) for _ in weightings]
    risk_path = np.empty((R, len(risk_ckpt_steps)))
    ckpt = {int(t): k for k, t in enumerate(risk_ckpt_steps)}
    risks = loss.risk_evaluator(Xs, ys)
    ar = np.arange(R)
    for t in range(1, T + 1):
        # one step for all, or each replicate's own step
        eta = etas[t - 1] if etas.ndim == 1 else etas[:, t - 1, None, None]
        idx = indices[:, t - 1]
        xa = Xs[ar, idx]
        ya = ys[ar, idx]
        Xt = np.repeat(xa[:, None, :], B, axis=1)
        yt = np.repeat(ya[:, None], B, axis=1)
        if m:
            hit_r, hit_j = np.nonzero(sub_idx == idx[:, None])
            Xt[hit_r, hit_j + 1] = gXs[hit_r, idx[hit_r]]
            yt[hit_r, hit_j + 1] = gys[hit_r, idx[hit_r]]
        Xf = Xt.reshape(R * B, d)
        yf = yt.reshape(R * B)
        Wf = W.reshape(R * B, d)
        if t in ckpt:
            risk_path[:, ckpt[t]] = risks(W[:, :1])[:, 0]
        for acc, weights in zip(accs, weightings):
            acc += weights[t - 1] * W
        grads = loss.batch_grad(Wf, Xf, yf).reshape(R, B, d)
        W = W - eta * grads
        if radius is not None:
            project_rows(W.reshape(R * B, d), radius)
    avgs = []
    for acc, weights in zip(accs, weightings):
        wsum = float(np.sum(weights))
        avgs.append(acc / wsum if wsum > 0.0 else np.zeros_like(acc))
    return dict(finals=W, avgs=avgs, risk_path=risk_path)


def _loss(kind, d, rng):
    if kind == "least_squares":
        return LeastSquares()
    if kind == "hinge1":
        return QNormHinge(q=1.0)
    if kind == "hinge1.5":
        return QNormHinge(q=1.5)
    return AucSquare(p=0.3, mu_plus=rng.normal(0.0, 0.3, d),
                     mu_minus=rng.normal(0.0, 0.3, d))


POSTS = {"none": None, "ball": 0.7}


def _assert_bitwise(got, want, name):
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), f"{name} differs from the reference"


@settings(max_examples=150, deadline=None)
@given(loss_kind=st.sampled_from(["least_squares", "hinge1", "hinge1.5", "auc"]),
       post=st.sampled_from(sorted(POSTS)),
       R=st.integers(1, 5), n=st.integers(1, 9), d=st.integers(1, 8),
       steps=st.integers(0, 3), permutation=st.booleans(),
       m_frac=st.floats(0.0, 1.0), per_replicate_etas=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
# one replicate: before the first fork the engine steps a single row, where
# the eager loop steps 1 + m
@example(loss_kind="auc", post="ball", R=1, n=6, d=3, steps=0, permutation=False,
         m_frac=1.0, per_replicate_etas=False, seed=307)
# different steps per replicate, several replicates, a projection
@example(loss_kind="least_squares", post="ball", R=4, n=5, d=3, steps=2,
         permutation=True, m_frac=0.6, per_replicate_etas=True, seed=11)
def test_lazy_forking_matches_eager_loop(loss_kind, post, R, n, d, steps,
                                         permutation, m_frac, per_replicate_etas,
                                         seed):
    rng = np.random.default_rng(seed)
    loss = _loss(loss_kind, d, rng)
    Xs = rng.normal(size=(R, n, d))
    ys = rng.choice([-1.0, 1.0], size=(R, n)) * rng.uniform(0.5, 1.5, size=(R, n))
    gXs = rng.normal(size=(R, n, d))
    gys = rng.choice([-1.0, 1.0], size=(R, n)) * rng.uniform(0.5, 1.5, size=(R, n))
    if permutation:
        # per-epoch shuffles, T a whole number of epochs
        key = int(rng.integers(2**63))
        gens = [np.random.Generator(np.random.Philox(key=key + r)) for r in range(R)]
        indices = _engine.epoch_stream(gens, n, steps * n).read(steps * n)
    else:
        # T from 0 to 3n; with T < n most positions are never drawn
        T = int(rng.integers(0, 3 * n + 1))
        indices = rng.integers(0, n, size=(R, T))
    T = indices.shape[1]
    m = int(round(m_frac * n))
    sub = (np.stack([rng.permutation(n)[:m] for _ in range(R)]) if m else None)
    # (R, T) steps differ between replicates; they take no averages
    etas = rng.uniform(0.01, 0.3, size=(R, T) if per_replicate_etas else T)
    ckpt = _engine.checkpoint_steps(T) if T else np.empty(0, dtype=np.int64)

    # the step sizes weigh an average only when every replicate shares them
    weightings = [_engine.linear_weights(T, 3)]
    if not per_replicate_etas:
        weightings.append(etas)
    want = _eager_run_core(loss, Xs, ys, gXs, gys, sub, etas, POSTS[post], indices,
                           risk_ckpt_steps=ckpt, weightings=weightings)
    for weights, avg in zip(weightings + [None], want["avgs"] + [None]):
        out = _engine.run_core(loss, Xs, ys, gXs if m else None, gys if m else None,
                               sub, etas, POSTS[post], _engine.given_stream(indices),
                               risk_ckpt_steps=ckpt, average_weights=weights)
        for name in ("finals", "risk_path"):
            _assert_bitwise(getattr(out, name), want[name], name)
        if weights is None:
            assert out.avg is None
        else:
            # the engine keeps the average of the base rows only
            _assert_bitwise(out.avg, avg[:, 0], "avg")
    # nothing observed: the rows step in place
    out = _engine.run_core(loss, Xs, ys, gXs if m else None, gys if m else None, sub, etas,
                           POSTS[post], _engine.given_stream(indices))
    _assert_bitwise(out.finals, want["finals"], "finals")


def test_per_replicate_steps_reject_averages_and_wrong_shapes():
    rng = np.random.default_rng(1)
    Xs, ys = rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 3))
    indices = rng.integers(0, 3, size=(2, 4))
    # per-replicate steps are no weights of one average, nor are weights of
    # another length than the run
    for weights in (np.full((2, 4), 0.1), np.full(5, 0.1), np.full(3, 0.1)):
        with pytest.raises(InvalidArgument):
            _engine.run_core(LeastSquares(), Xs, ys, None, None, None,
                             np.full((2, 4), 0.1), None, _engine.given_stream(indices),
                             average_weights=weights)
    for etas in (np.full((3, 4), 0.1), np.full((2, 5), 0.1), np.full(5, 0.1)):
        with pytest.raises(InvalidArgument):
            _engine.run_core(LeastSquares(), Xs, ys, None, None, None, etas, None,
                             _engine.given_stream(indices))
    # per-replicate steps with the linear weights (one average) or none are fine
    for weights in (_engine.linear_weights(4, 2), None):
        out = _engine.run_core(LeastSquares(), Xs, ys, None, None, None,
                               np.full((2, 4), 0.1), None, _engine.given_stream(indices),
                               average_weights=weights)
        assert (out.avg is None) == (weights is None)


def _first_forks(sub, indices, n):
    """``_add_forks`` on the first chunk of a stream, from empty state:
    ``(row_of, pair_r, pair_j, tau)``."""
    none = np.empty(0, dtype=np.int64)
    row_of = np.full((sub.shape[0], n), -1, dtype=np.int64)
    return (row_of,) + _engine._add_forks(sub, indices, n, 0, row_of, none, none, none)


def test_fork_schedule_sorts_first_hits_and_drops_unhit_pairs():
    sub = np.array([[1, 2, 3],
                    [0, 3, 1]])
    # steps 1..4: replicate 0 draws position 2 at step 1 and 1 at step 4,
    # never 3; replicate 1 draws 3 at step 1, never 0 or 1
    row_of, pair_r, pair_j, tau = _first_forks(sub, np.array([[2, 0, 2, 1],
                                                              [3, 3, 3, 3]]), n=4)
    got = list(zip(tau.tolist(), pair_r.tolist(), pair_j.tolist()))
    assert got == [(1, 0, 1), (1, 1, 1), (4, 0, 0)]
    # steps 5..7: replicate 0 draws 2 and 1 again, already forked, and 3 at
    # step 6; replicate 1 draws 3 again, 1 at step 6 and 0 at step 7
    pair_r, pair_j, tau = _engine._add_forks(sub, np.array([[2, 3, 1],
                                                            [3, 1, 0]]), 4, 4, row_of,
                                             pair_r, pair_j, tau)
    got = list(zip(tau.tolist(), pair_r.tolist(), pair_j.tolist()))
    assert got == [(1, 0, 1), (1, 1, 1), (4, 0, 0), (6, 0, 2), (6, 1, 2), (7, 1, 0)]
    # pair p has buffer row R + p, after the R = 2 base rows
    assert row_of.tolist() == [[-1, 4, 2, 5],
                               [7, 6, -1, 3]]


def test_unhit_neighbour_equals_its_base_row():
    rng = np.random.default_rng(0)
    Xs, gXs = rng.normal(size=(2, 1, 4, 3))
    ys, gys = rng.normal(size=(2, 1, 4))
    indices = np.array([[0, 1, 0, 1, 1]])
    out = _engine.run_core(LeastSquares(), Xs, ys, gXs, gys, np.array([[3, 1]]),
                           np.full(5, 0.1), None, _engine.given_stream(indices))
    np.testing.assert_array_equal(out.finals[0, 1], out.finals[0, 0])
    assert np.any(out.finals[0, 2] != out.finals[0, 0])


def test_block_gather_reads_broadcast_and_stacked_datasets_alike():
    # a block gathers its examples from one table of rows per array; a
    # dataset broadcast to every replicate is read in place, not copied
    rng = np.random.default_rng(3)
    R, n, T = 4, 6, 9
    X, gX = rng.normal(size=(2, n, 3))
    y, gy = rng.normal(size=(2, n))
    indices = rng.integers(0, n, size=(R, T))
    sub = np.tile(np.arange(n), (R, 1))

    def finals(arrays):
        return _engine.run_core(LeastSquares(), *arrays, sub, np.full(T, 0.1), None,
                                _engine.given_stream(indices)).finals

    broadcast = [np.broadcast_to(a, (R,) + a.shape) for a in (X, y, gX, gy)]
    stacked = [np.ascontiguousarray(a) for a in broadcast]
    mixed = [broadcast[0], stacked[1], stacked[2], broadcast[3]]
    want = finals(stacked)
    for arrays in (broadcast, mixed):
        assert finals(arrays).tobytes() == want.tobytes()
    for A, own in ((broadcast[0], X), (stacked[1], stacked[1])):
        table, start = _engine._row_table(A)
        assert np.shares_memory(table, own)
        for r, i in np.ndindex(R, n):
            assert table[start[r] + i].tobytes() == A[r, i].tobytes()


_BLOCK_CASES = [
    ("least_squares", "none", 3, 7, 4, 5, False),
    ("least_squares", "ball", 1, 1, 1, 0, False),   # single numbers per row
    ("hinge1.5", "ball", 2, 6, 3, 6, True),
    ("hinge1", "none", 4, 5, 2, 0, False),
    ("auc", "ball", 2, 8, 8, 3, False),
    ("least_squares", "none", 16, 9, 8, 0, False),  # a rate-fit's uncoupled rows
    ("least_squares", "none", 1, 5, 1, 0, False),   # averages of single numbers
    # one neighbour per replicate, first drawn after step 7
    ("hinge1.5", "ball", 2, 14, 2, 1, False),
    ("auc", "ball", 2, 13, 4, 1, True),
]
# the same with steps per replicate, uncoupled and coupled
_PER_ROW_CASES = [
    ("least_squares", "none", 3, 5, 4, 0, False),
    ("hinge1", "ball", 2, 6, 3, 0, True),
    ("least_squares", "ball", 2, 5, 3, 3, False),
    ("least_squares", "ball", 2, 12, 3, 1, False),
    ("least_squares", "none", 2, 14, 3, 1, True),
]


@pytest.mark.parametrize("loss_kind,post,R,n,d,m,permutation,per_row", [
    pytest.param(*case, per_row, id="-".join(map(str, case)) + ("-per_row" if per_row else ""))
    for cases, per_row in ((_BLOCK_CASES, False), (_PER_ROW_CASES, True))
    for case in cases
])
def test_block_length_does_not_change_any_output(monkeypatch, loss_kind, post, R, n,
                                                 d, m, permutation, per_row):
    rng = np.random.default_rng(R * 1000 + n * 10 + d)
    loss = _loss(loss_kind, d, rng)
    Xs, gXs = rng.normal(size=(2, R, n, d))
    ys, gys = rng.choice([-1.0, 1.0], size=(2, R, n)) * rng.uniform(0.5, 1.5, (2, R, n))
    key = int(rng.integers(2**63))
    T = 7 * n if permutation else 41
    build = _engine.epoch_stream if permutation else _engine.iid_stream

    def stream():
        # each replicate's own generator, drawn as the engine reads the stream
        return build([np.random.Generator(np.random.Philox(key=key + r)) for r in range(R)],
                     n, T)

    # the eager loop reads all of it at once
    indices = stream().read(T)
    sub = np.stack([rng.permutation(n)[:m] for _ in range(R)]) if m else None
    etas = rng.uniform(0.01, 0.3, size=(R, T) if per_row else T)
    if m == 1:
        # no neighbour forks in the first chunks of 1, 2 and 7 steps: the
        # engine leaves the fork-free path between chunks
        assert _first_forks(sub, indices, n)[3][0] > 7

    def run(block_steps, stream_steps, risk_examples, ckpt, weights):
        monkeypatch.setattr(_engine, "BLOCK_ROWS", block_steps * R)
        monkeypatch.setattr(_engine, "STREAM_STEPS", stream_steps)
        monkeypatch.setattr("sgdlab.losses.RISK_EXAMPLES", risk_examples)
        return _engine.run_core(loss, Xs, ys, gXs if m else None, gys if m else None,
                                sub, etas, POSTS[post], stream(),
                                risk_ckpt_steps=ckpt, average_weights=weights)

    # steps per replicate weigh no average
    weightings = ((() if per_row else (etas,)) + (_engine.linear_weights(T, 4),))
    # a checkpoint at every step, a sparse set that skips whole blocks, and
    # none: with no average either, the rows step in place
    dense = _engine.checkpoint_steps(T)
    monkeypatch.setattr(_engine, "MAX_CHECKPOINTS", 6)
    ckpts = (dense, _engine.checkpoint_steps(T), None)
    want = _eager_run_core(loss, Xs, ys, gXs, gys, sub, etas, POSTS[post], indices,
                           risk_ckpt_steps=ckpts[0], weightings=weightings)
    for ckpt in ckpts:
        # block lengths 1, 2, 3, 7 and 10^6 steps; stream chunks of whole
        # blocks: 1, 2, 6, 7 and 10^6 steps (7 rounds down to 6 in blocks of 2
        # or 3, and a chunk is at least one block); checkpoint chunks of one
        # checkpoint, of two (smaller than a block of 3), and of all
        for block_steps, stream_steps, risk_examples in (
                (10**6, 10**6, 2**14), (1, 10**6, 2**14), (1, 1, 2**14), (1, 2, 1),
                (2, 1, 1), (1, 7, 2 * R * n), (7, 7, 2**14), (2, 7, 1),
                (3, 7, 2 * R * n), (3, 10**6, 2**14), (10**6, 1, 1)):
            for weights, avg in zip(weightings + (None,), want["avgs"] + [None]):
                got = run(block_steps, stream_steps, risk_examples, ckpt, weights)
                _assert_bitwise(got.finals, want["finals"], "finals")
                if ckpt is None:
                    assert got.risk_path is None
                else:
                    _assert_bitwise(got.risk_path,
                                    want["risk_path"][:, np.searchsorted(dense, ckpt)],
                                    "risk_path")
                if weights is None:
                    assert got.avg is None
                else:
                    _assert_bitwise(got.avg, avg[:, 0], "avg")


def test_path_generator_is_the_derived_key_stream():
    for path in ((0, _engine.TAG_DATA), (2**70 + 3, _engine.TAG_GHOST),
                 (5, 0x9E, 17), (8, _engine.TAG_PERM)):
        got = _engine.path_generator(*path).bit_generator
        want = np.random.Philox(key=_engine.derive_seed(*path))
        for part in ("key", "counter"):
            np.testing.assert_array_equal(got.state["state"][part], want.state["state"][part])
        np.testing.assert_array_equal(got.random_raw(64), want.random_raw(64))


@pytest.mark.parametrize("permutation", [False, True], ids=["iid", "permutation"])
@pytest.mark.parametrize("radius", [None, 0.3], ids=["none", "ball"])
@pytest.mark.parametrize("loss_kind", ["least_squares", "hinge1", "hinge1.5", "auc"])
def test_runners_step_like_the_engine(loss_kind, radius, permutation):
    # the single-trajectory runners step one row at a time through the
    # engine's kernel and keep averages of their own; on the same index
    # matrix and step sizes they must give the engine's bits
    n, d, seed, epochs = 7, 3, 5, 4
    rng = np.random.default_rng(17)
    loss = _loss(loss_kind, d, rng)
    ds = Dataset(features=rng.normal(size=(n, d)),
                 labels=rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 1.5, n))
    sched = StronglyConvexDecay(sigma=4.0, t0=3)
    domain = Ball(radius) if radius is not None else None
    key = _engine.derive_seed(seed, _engine.TAG_INDEX)
    stream = np.random.Generator(np.random.Philox(key=key))
    if not permutation:
        indices = stream.integers(0, n, size=(1, 40), dtype=np.int64)
        traj = sgd_run(loss, ds, sched, domain, indices.shape[1], seed)
    elif domain is None:
        indices = np.stack([np.concatenate([stream.permutation(n) for _ in range(epochs)])])
        traj = sgd_without_replacement_run(loss, ds, sched, epochs, seed)
    else:
        # no public runner takes epochs and a ball: call their shared loop
        indices = np.stack([np.concatenate([stream.permutation(n) for _ in range(epochs)])])
        traj = optim._run(loss, ds.features, ds.labels, sched, domain, None, key,
                          _engine.given_stream(indices), record_every=n)
    T = indices.shape[1]
    etas = sched.etas(T)
    for weights, got in ((etas, traj.avg_eta),
                         (_engine.linear_weights(T, sched.t0), traj.avg_linear),
                         (None, None)):
        out = _engine.run_core(loss, ds.features[None], ds.labels[None], None, None,
                               None, etas, radius, _engine.given_stream(indices),
                               average_weights=weights)
        _assert_bitwise(traj.final, out.finals[0, 0], "final")
        if weights is None:
            assert out.avg is None
        else:
            _assert_bitwise(got, out.avg[0], "avg")


@pytest.mark.parametrize("n", [3, 5, 1000, 2**31 + 11, 2**33], ids=str)
def test_iid_stream_chunks_are_one_draw(n):
    # a read of c steps draws ``integers(0, n, size=c)``; below 2^32 each
    # index takes half of a 64-bit word, and the bit generator keeps the other
    # half for the next call, so chunks of odd length must give one draw's bits
    T = 865
    for seed in range(5):
        keys = [_engine.derive_seed(seed, _engine.TAG_INDEX, r) for r in range(2)]
        want = np.stack([np.random.Generator(np.random.Philox(key=k)).integers(
            0, n, size=T, dtype=np.int64) for k in keys])
        for size in (1, 7, 63, 64, T, 10**6):
            gens = [np.random.Generator(np.random.Philox(key=k)) for k in keys]
            got = list(_engine.iid_stream(gens, n, T).chunks(size))
            assert [s for s, _ in got] == list(range(0, T, size))
            assert np.concatenate([ids for _, ids in got], axis=1).tobytes() == want.tobytes()


def test_epoch_stream_chunks_run_through_each_shuffle():
    # replicate r's epochs are the shuffles gens[r].permutation(n) in turn,
    # drawn as the read reaches them, whatever the chunk length
    n, epochs = 5, 4
    want = []
    for r in range(3):
        g = np.random.Generator(np.random.Philox(key=r))
        want.append(np.concatenate([g.permutation(n) for _ in range(epochs)]))
    want = np.stack(want)
    for size in (1, 2, 3, n, 7, epochs * n):
        gens = [np.random.Generator(np.random.Philox(key=r)) for r in range(3)]
        got = np.concatenate([ids for _, ids in _engine.epoch_stream(gens, n, epochs * n)
                              .chunks(size)], axis=1)
        assert got.tobytes() == want.tobytes()


class _WeakGenerator(np.random.Generator):
    """A Generator that takes weak references, which the base class does not."""


@pytest.mark.parametrize("build", [_engine.iid_stream, _engine.epoch_stream])
def test_streams_drop_their_generators_once_read(build):
    # a stream holds its generators (and shuffles) only until its reads reach
    # T steps, not for as long as the stream itself lives
    n, T = 5, 23
    gens = [_WeakGenerator(np.random.Philox(key=r)) for r in range(3)]
    ref = weakref.ref(gens[1])
    stream = build(gens, n, T)
    del gens
    for size in (4, 9, 7):
        stream.read(size)
        gc.collect()
        assert ref() is not None
    stream.read(3)
    gc.collect()
    assert ref() is None


def test_given_stream_reads_slices_in_order():
    indices = np.arange(12).reshape(2, 6)
    stream = _engine.given_stream(indices)
    assert stream.shape == (2, 6)
    got = [(s, ids.tolist()) for s, ids in stream.chunks(4)]
    assert got == [(0, [[0, 1, 2, 3], [6, 7, 8, 9]]), (4, [[4, 5], [10, 11]])]
