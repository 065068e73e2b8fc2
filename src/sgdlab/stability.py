"""Monte-Carlo estimators of on-average model stability.

All estimators couple trajectories through common random index streams: the
run on S and the runs on its replace-one neighbors S^(i) consume the same
i_t sequence, so the measured distances are exactly the quantities the
stability analysis controls.

One skeleton, ``_replicate_batches``, runs the replicates of every estimator
chunk by chunk.  It takes chunk functions, of (lo, hi) for replicates
lo..hi-1: their data (stacked datasets and ghost samples, or datasets alone
when no neighbour runs; ``replicate_data`` draws them, ``broadcast_family``
gives one fixed family to all), their index streams (an
``_engine.IndexStream``: i.i.d. indices or per-epoch permutations from each
replicate's generator, or given sequences) and, where they differ between
replicates, their step sizes, computed from the chunk's datasets; shared
step sizes are one (T,) array.  It runs each chunk, with the neighbour
positions, if any, and the radius of the ball each step projects onto,
through ``_engine.run_core`` and stores, in replicate order, the
per-replicate arrays that the estimator's reduction makes of it.  The engine
reads the streams in chunks of ``_engine.STREAM_STEPS`` steps and finds the
forks of the neighbour runs chunk by chunk, so no stream is held whole; the
oracle's sequences are the base-n digits of their numbers, built when the
chunk runs.

The estimators return those per-replicate values and take no mean or
standard error over replicates; the caller reduces them.  The exception is
``brute_force_stability``, whose result is the exact average over all index
sequences.

Seed discipline: replicate r of a given master seed derives its data seed
seed_r from (master_seed, replicate tag, r), its dataset and ghost sample
from (seed_r, data tag) and (seed_r, ghost tag), and its index stream from
(master_seed, index tag, r), or from (master_seed, permutation tag, r) for
epochs without replacement.  ``replicate_data`` gives the chunk function of
the replicates' data: it draws a chunk's datasets, and their ghost samples,
in one batched pass of the distribution (``data.sample_datasets``), where
each replicate's generators make the draws they would make alone, so a
replicate's data do not depend on the chunk it is drawn in.
``coupled_distances`` keys replicate r's stream by the replicate's own seed
instead: (seed_r, index tag, 0) with seed_r = (master_seed, replicate tag,
r).  A stability report keeps the output and the empirical risk of each
replicate's base run, and the mean loss of each neighbour run at the example
it left out, an unbiased estimate of E F(A(S)) by the replace-one identity
(see ``StabilityReport``), so the generalization gap can be measured on the
very runs whose stability was measured, without running them again.
``averaged_iterates`` runs the same base trajectories, without neighbours,
for their step-size-weighted averages.  The module measures trajectories
only: no estimator evaluates a population risk, which the caller takes where
the (loss, distribution) pair has one.

Work runs in chunks of whole replicates, in replicate order, and lands in
the skeleton's stacks; ``replicate_chunks`` sizes every chunk, the harness's
too.  A chunk runs at most ``ROW_BUDGET`` engine rows (1 + m per replicate:
the base run and m neighbours), which bounds the engine's per-row arrays,
and holds at most ``EXAMPLE_BUDGET`` examples (n per replicate), which
bounds the stacked datasets of runs with few rows per replicate.  So a grid
point runs in as few engine calls as memory allows, and each call pays the
fixed cost of its steps once.  With the streams read in chunks, what a
chunk holds grows with T only in the step sizes and weights.  Every
replicate's result is bitwise the same for any chunk size, of replicates or
of steps.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from . import _engine
from .data import Distribution, NeighborFamily, sample_datasets
from .errors import InvalidArgument, ResourceLimitExceeded
from .losses import Loss
from .optim import Ball, Schedule

#: engine rows per chunk of replicates (see the module docstring).  Of the
#: powers of two from 4096 to 65536, 16384 is the smallest that runs 16
#: replicates with all n <= 512 neighbours in one call (15% less wall time
#: than 4096 there); larger budgets ran no faster at 200 replicates with
#: n = 64 and 256 and raised that run's peak memory from 46 to 59 MiB.
ROW_BUDGET = 16384
#: dataset examples per chunk: 16 MiB of features at d = 8
EXAMPLE_BUDGET = 2 ** 18

TAG_REPLICATE = 0x9E

# brute force enumerates n^T index sequences; hard budget per the contract
BRUTE_FORCE_MAX_SEQUENCES = 1_000_000


class StabilityReport(NamedTuple):
    """Per-replicate measurements of a stability estimate.

    ``l1[r]`` is replicate r's (1/m) sum_i ||w - w^(i)|| over its m
    neighbour positions, ``l2_sq[r]`` the same with squared norms, and
    ``finals[r]`` its base-run output w_{T+1} and ``emp_risk[r]`` is
    F_S(w_{T+1}).  With risks recorded, ``risk[r, k]`` is F_S(w_j) of the base
    run at step j = ``risk_steps[k]``; without, and at T = 0, both are None.

    ``held_out[r]`` is (1/n) sum_i f(w^(i)_{T+1}; z_i): each neighbour run's
    loss at the example z_i of S that its dataset S^(i) replaced.  S^(i)
    swaps z_i for an independent ghost example, and the index stream does not
    depend on the data, so A(S^(i)) has the law of A(S) and is independent of
    z_i.  Each term is then the loss on a fresh example, and E held_out =
    E F(A(S)): the replace-one identity (Shalev-Shwartz, Shamir, Srebro and
    Sridharan, JMLR 2010).  With a fixed family the expectation is over the
    index stream alone.
    """

    l1: np.ndarray                          # (R,)
    l2_sq: np.ndarray                       # (R,)
    finals: np.ndarray                      # (R, d)
    risk_steps: Optional[np.ndarray]        # (C,)
    risk: Optional[np.ndarray]              # (R, C)
    emp_risk: np.ndarray                    # (R,)
    held_out: np.ndarray                    # (R,)


def replicate_chunks(R: int, n: int, rows: int) -> Iterator[Tuple[int, int]]:
    """The chunks (lo, hi) of R replicates, in order, each running ``rows`` rows on n examples."""
    step = max(1, min(ROW_BUDGET // rows, EXAMPLE_BUDGET // n))
    for lo in range(0, R, step):
        yield lo, min(lo + step, R)


def _radius(domain: Optional[Ball]) -> Optional[float]:
    return domain.radius if domain is not None else None


def _replicate_dataset_seed(master_seed: int, r: int) -> int:
    return _engine.derive_seed(master_seed, TAG_REPLICATE, r)


def replicate_data(dist: Distribution, n: int, master_seed: int, ghosts: bool = True):
    """The chunk function of the replicates' data under ``master_seed``.

    ``chunk(lo, hi)`` gives the stacked datasets S (features (B, n, d),
    labels (B, n)) of replicates lo..hi-1 and, with ``ghosts``, then their
    ghost samples, all drawn in one batched pass from the replicate seeds.
    """
    def chunk(lo: int, hi: int) -> tuple:
        seeds = [_replicate_dataset_seed(master_seed, r) for r in range(lo, hi)]
        return sample_datasets(dist, n, seeds, ghosts)
    return chunk


def broadcast_family(family: NeighborFamily):
    """The chunk function that gives every replicate the one ``family``:
    ``chunk(lo, hi)`` broadcasts its (X, y, ghost X, ghost y) to replicates
    lo..hi-1 without a copy."""
    def chunk(lo: int, hi: int) -> tuple:
        return tuple(np.broadcast_to(a, (hi - lo,) + a.shape)
                     for a in (*family.base, *family.ghost))
    return chunk


def _streams(build, n: int, T: int, path):
    """The chunk function of the replicates' index streams.

    ``streams(lo, hi)`` gives the streams of replicates lo..hi-1 from
    ``build`` (``_engine.iid_stream`` or ``_engine.epoch_stream``), replicate
    r's drawn from the generator of the seed path ``path(r)``.
    """
    def streams(lo: int, hi: int) -> _engine.IndexStream:
        return build([_engine.path_generator(*path(r)) for r in range(lo, hi)], n, T)
    return streams


# ---------------------------------------------------------------------------
# the replicate-batch skeleton
# ---------------------------------------------------------------------------

def _replicate_batches(loss: Loss, R: int, n: int, etas, radius: Optional[float],
                       data, streams, reduce, positions=None, **collect) -> tuple:
    """Run R replicates chunk by chunk, in order; return the stacks of ``reduce``.

    reduce: ``reduce(out, Xs, ys)`` gets the ``run_core`` result ``out`` of
        replicates lo..hi-1 and their base datasets, and returns a tuple of
        arrays indexed by replicate first (or None, which stays None).  Each
        array's stack over all R replicates takes the first chunk's shapes.
    data: the chunk function of the replicates' data: ``data(lo, hi)`` gives
        the stacked (X, y, ghost X, ghost y) of replicates lo..hi-1, or
        (X, y) when ``positions`` is None.
    positions: None (the base runs only), or the array of neighbour positions
        every replicate runs.
    streams: the chunk function of the index streams: ``streams(lo, hi)``
        gives the ``_engine.IndexStream`` of replicates lo..hi-1.
    etas: the (T,) step sizes of every replicate, or for step sizes per
        replicate a function: ``etas(lo, hi, Xs, ys)`` gives the (hi - lo, T)
        step sizes of replicates lo..hi-1 from their base datasets.
    radius: the ball each step projects onto, or None for no projection.

    ``collect`` goes to ``run_core``.
    """
    if not R >= 1:
        raise InvalidArgument(f"replicates must be >= 1, got {R}")
    given = np.asarray(() if positions is None else positions, dtype=np.int64)
    m = given.shape[0]
    if not np.all((given >= 0) & (given < n)):
        raise InvalidArgument(f"neighbor positions must be in [0, {n}), got {given}")

    stacks = None
    for lo, hi in replicate_chunks(R, n, 1 + m):
        Xs, ys, gXs, gys = data(lo, hi) if m else (*data(lo, hi), None, None)
        sub = np.broadcast_to(given, (hi - lo, m)) if m else None
        out = _engine.run_core(loss, Xs, ys, gXs, gys, sub,
                               etas(lo, hi, Xs, ys) if callable(etas) else etas,
                               radius, streams(lo, hi), **collect)
        parts = reduce(out, Xs, ys)
        if stacks is None:
            stacks = tuple(None if a is None else np.empty((R,) + a.shape[1:], a.dtype)
                           for a in parts)
        for stack, a in zip(stacks, parts):
            if stack is not None:
                stack[lo:hi] = a
    return stacks


def _distance_means(out: _engine.CoreResult) -> Tuple[np.ndarray, np.ndarray]:
    """Per replicate, the means of ||w - w^(i)|| and of its square over the neighbours.

    Each difference is scaled by the power of two that brings its largest
    |component| into [1/2, 1) before the norm squares its components, and
    the norm is scaled back: the scaling is exact, so a distance near the
    top of the float range does not overflow in the squares, and the rest
    keep their bits.
    """
    diff = out.finals[:, 1:] - out.finals[:, :1]
    e = np.frexp(np.abs(diff).max(axis=2))[1]
    norms = np.ldexp(np.linalg.norm(np.ldexp(diff, -e[..., None], out=diff), axis=2), e)
    return norms.mean(axis=1), (norms ** 2).mean(axis=1)


# ---------------------------------------------------------------------------
# Monte-Carlo on-average stability
# ---------------------------------------------------------------------------

def estimate_on_average_stability(loss: Loss, dist: Optional[Distribution], n: int,
                                  T: int, sched: Schedule, domain: Optional[Ball],
                                  replicates: int, master_seed: int, *,
                                  record_risks: bool = True,
                                  fixed_family: Optional[NeighborFamily] = None,
                                  without_replacement: bool = False
                                  ) -> StabilityReport:
    """Measure the l1/l2 on-average model stability of projected SGD per replicate.

    Each replicate draws (S, ghost, index stream), runs the coupled family,
    and averages ||w - w^(i)|| (and its square) over all n positions.
    The empirical risk of each base run's output and the held-out loss of its
    neighbour runs are always recorded; ``record_risks`` also records the
    empirical risk along the path.  With ``fixed_family`` the datasets are
    held fixed and only the index stream varies (the conditional expectation
    the enumeration oracle computes exactly).  With ``without_replacement``
    the runs are epoch SGD: the stream is a fresh shuffle of the n examples
    per epoch, and T must be a whole number of epochs (T = 0 gives exactly 0).
    """
    if not (n >= 1 and T >= 0):
        raise InvalidArgument("n must be >= 1 and T >= 0")
    if without_replacement and T % n:
        raise InvalidArgument(f"epochs without replacement need T = {T} "
                              f"to be a multiple of n = {n}")
    if fixed_family is None and dist is None:
        raise InvalidArgument("either a distribution or a fixed family is required")
    if fixed_family is not None and fixed_family.base.n != n:
        raise InvalidArgument("fixed family size differs from n")

    # no steps -> no risk path to record (the output is w_1 = 0)
    ckpt = _engine.checkpoint_steps(T) if (record_risks and T >= 1) else None

    data = (broadcast_family(fixed_family) if fixed_family is not None
            else replicate_data(dist, n, master_seed))
    build, tag = ((_engine.epoch_stream, _engine.TAG_PERM) if without_replacement
                  else (_engine.iid_stream, _engine.TAG_INDEX))
    streams = _streams(build, n, T, lambda r: (master_seed, tag, r))

    def reduce(out, Xs, ys):
        base = out.finals[:, 0]
        # neighbour row 1 + i replaced position i, so it meets example i
        return (*_distance_means(out), base, out.risk_path,
                _engine._batch_empirical_risk(loss, base, Xs, ys),
                loss.batch_value(out.finals[:, 1:], Xs, ys).mean(axis=1))

    l1, l2_sq, finals, risk, emp_risk, held_out = _replicate_batches(
        loss, replicates, n, sched.etas(T), _radius(domain), data, streams, reduce,
        np.arange(n), risk_ckpt_steps=ckpt)
    return StabilityReport(l1=l1, l2_sq=l2_sq, finals=finals, risk_steps=ckpt,
                           risk=risk, emp_risk=emp_risk, held_out=held_out)


def coupled_distances(loss: Loss, data, n: int, T: int, etas, domain: Optional[Ball],
                      replicates: int, master_seed: int) -> np.ndarray:
    """||w_{T+1} - w^(0)_{T+1}|| for each replicate r = 0 .. replicates - 1.

    Replicate r runs SGD on its dataset and on its neighbour at position 0
    with one shared i.i.d. index stream, keyed (seed_r, index tag, 0) with
    seed_r = (master_seed, replicate tag, r).  ``data`` is the chunk function
    of the replicates' (X, y, ghost X, ghost y) and ``etas`` the (T,) step
    sizes or their function per chunk, as in ``_replicate_batches``.
    """
    streams = _streams(_engine.iid_stream, n, T, lambda r: (
        _replicate_dataset_seed(master_seed, r), _engine.TAG_INDEX, 0))
    return _replicate_batches(loss, replicates, n, etas, _radius(domain), data, streams,
                              lambda out, Xs, ys: (_distance_means(out)[0],),
                              np.zeros(1, dtype=np.int64))[0]


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

def _index_sequences(n: int, T: int, lo: int, hi: int) -> np.ndarray:
    """Sequences lo..hi-1 of the n^T index sequences in lexicographic order:
    the T base-n digits of each number, most significant first."""
    powers = n ** np.arange(T - 1, -1, -1, dtype=np.int64)
    return np.arange(lo, hi, dtype=np.int64)[:, None] // powers % n


def enumeration_count(n: int, T: int) -> int:
    """The n^T index sequences that full enumeration walks; raises
    ``ResourceLimitExceeded`` beyond ``BRUTE_FORCE_MAX_SEQUENCES``.

    n^T is formed only when T log2 n shows that it fits in 64 bits: at a
    huge T the exact power would not fit in memory, and any count past 2^64
    is far over the budget.
    """
    if n == 1:
        return 1
    if T * math.log2(n) > 64:
        need = f"{n}^{T}"
    else:
        M = n ** T
        if M <= BRUTE_FORCE_MAX_SEQUENCES:
            return M
        need = str(M)
    raise ResourceLimitExceeded(
        f"enumeration needs {need} sequences; budget is {BRUTE_FORCE_MAX_SEQUENCES}")


def brute_force_stability(loss: Loss, family: NeighborFamily, sched: Schedule,
                          domain: Optional[Ball], T: int) -> Tuple[float, float]:
    """Exact on-average stability for a fixed (S, ghost) by full enumeration.

    Averages over all n^T equally likely index sequences and all n neighbor
    positions.  Returns (l1, l2 squared).  Refuses n^T beyond the budget.
    """
    n = family.base.n
    M = enumeration_count(n, T)
    l1_seq, l2_seq = _replicate_batches(
        loss, M, n, sched.etas(T), _radius(domain), broadcast_family(family),
        lambda lo, hi: _engine.given_stream(_index_sequences(n, T, lo, hi)),
        lambda out, Xs, ys: _distance_means(out), np.arange(n))
    return float(l1_seq.mean()), float(l2_seq.mean())


# ---------------------------------------------------------------------------
# averaged iterates
# ---------------------------------------------------------------------------

def averaged_iterates(loss: Loss, dist: Distribution, n: int, T: int, sched: Schedule,
                      domain: Optional[Ball], replicates: int, master_seed: int
                      ) -> np.ndarray:
    """The (replicates, d) step-size-weighted averages of w_1 .. w_T, one per replicate.

    Runs the base trajectories of ``estimate_on_average_stability`` (same
    datasets and index streams) without neighbours.  At T = 0 every average
    is 0.
    """
    etas = sched.etas(T)
    streams = _streams(_engine.iid_stream, n, T,
                       lambda r: (master_seed, _engine.TAG_INDEX, r))
    return _replicate_batches(
        loss, replicates, n, etas, _radius(domain), replicate_data(dist, n, master_seed, False),
        streams, lambda out, Xs, ys: (out.avg,), average_weights=etas)[0]
