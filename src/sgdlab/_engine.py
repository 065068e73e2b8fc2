"""Vectorized trajectory engine of the stability and gap estimators.

``run_core`` runs R replicates (each with its own dataset and index stream),
each a family of 1 + m coupled trajectories: row 0 runs on the base dataset,
row 1 + j on the dataset whose ``sub_idx[r, j]``-th example is replaced by
the ghost example at the same position.  All rows of a replicate consume the
identical index sequence, which is the coupling the stability estimators
need.  Each step is a gradient step followed, when a radius is given, by the
Euclidean projection onto the centered ball of that radius; the engine takes
every step through the loss's step kernel, ``Loss.descend``.

The index streams come as an ``IndexStream``, read front to back in chunks
of ``STREAM_STEPS`` steps (rounded down to whole blocks), so the engine
holds R * STREAM_STEPS indices at a time, not R * T.  The streams draw as
the read reaches them: i.i.d. indices (``iid_stream``) and per-epoch
shuffles (``epoch_stream``) from each replicate's own generator, or slices
of given sequences (``given_stream``).  A counter-based generator drawn in
pieces gives the draws of one call, so the indices, and every output, do
not depend on the chunk length.

Neighbours fork lazily.  Neighbour j's iterates equal the base row's, bit
for bit, until the first step tau at which the stream draws its position,
so it is copied from its base row at tau and stepped only from then on; a
neighbour whose position is never drawn is never created.  At T = n a
neighbour runs about T - n(1 - e^{-T/n}) = 0.37 T steps instead of T.  The
forks are found chunk by chunk: each chunk's first hits join those of
earlier chunks in step order, ties in (replicate, neighbour) order, so the
forked rows are kept in fork order after the R base rows and the active
rows are always a prefix of one buffer.  A stream that fits in one chunk
(every run with T = n <= STREAM_STEPS) finds them all at once.  The result
is the same as stepping all 1 + m rows at every step, because every loss
computes each row from that row alone.

Steps run in blocks of at most ``BLOCK_ROWS // R`` steps, and a block
gathers the examples of all its steps at once, with one ``np.take`` from
the rows of all replicates' datasets (a dataset broadcast to every
replicate is read in place).  The base iterates w_t of a
block land in a (block + 1, R, d) observation buffer, and what is observed
on the base rows (one weighted average and the empirical risk at
checkpoints) is computed from it once per block, in per-row arithmetic, so
the bits do not depend on the block length.  The average is the one whose
weights the caller passes (the step sizes, or the linear weights
t + t0 - 1), of the base rows only; a caller that reads no average passes
none and pays for none.

- While no neighbour forks up to the end of the chunk read last (no
  neighbours, or none drawn yet), the block is one ``descend`` call whose
  iterates are the buffer's slots: slot j holds w_{s+1+j}, the steps write
  slots 1.., and the last slot carries over to slot 0 once the block's
  checkpoints and average have read the buffer.  With nothing to observe
  the rows step in place.
- Otherwise a step loop forks, swaps in ghost examples, copies the base
  rows into the buffer and calls ``descend`` for one step on the active
  rows.  Once neighbours have forked, a step gathers the example of each
  active row from its replicate's block of examples with ``np.take`` (the
  same copy as fancy indexing, several times faster on (rows, d) features)
  and swaps in the ghost examples that step draws.

The empirical risk F_S(w_j) at checkpoints comes from the loss's
``risk_evaluator``, set up once per call: for least squares it is
||R [w_j; -1]||^2 / (2n) from one QR factor R of each replicate's [X | y],
O(d^2) per checkpoint; for the other losses it is the mean of the loss over
the n examples, O(n d).

Step sizes are (T,), shared by every replicate and applied as one Python
float per step, or (R, T) when they differ between replicates (a schedule
built from each replicate's own data); then each active row gathers its
replicate's step, which gives the same bits as a run of that replicate
alone.

Determinism contract: given the same seeds, every public quantity is bitwise
reproducible, and a replicate's results do not depend on which other
replicates share its call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidArgument

# purpose tags entering SeedSequence entropy; values arbitrary but frozen
TAG_INDEX = 0x1D
TAG_DATA = 0xDA
TAG_GHOST = 0x60
TAG_PERM = 0xFE

#: base iterates buffered per block of steps: block length * R <= BLOCK_ROWS.
#: Longer blocks ran no faster and raised the peak memory of a coupled run.
BLOCK_ROWS = 1024
#: steps of the index streams read per chunk, rounded down to whole blocks
#: (at least one): a chunk holds about R * STREAM_STEPS indices.  A read costs
#: about 10 us per replicate beyond its draws, so a fixed step count costs
#: under 1% of a run for any R, where a fixed count of indices (R * steps <=
#: 2^16) would read c08's 100 replicates at n = 256 in 10100 calls, not 1600
#: (180 ms, not 80 ms).  On the long-horizon benchmark (16 replicates, T up
#: to 16384) chunks of 4096 steps lowered the peak memory from 52.5 to 51.5
#: MiB, 1024 to 51.4 MiB, and 8192 did not lower it; c08 peaks at 45 MiB
#: (90 MiB with whole streams).
STREAM_STEPS = 4096
#: (iterate, example) pairs per empirical-risk evaluation at checkpoints,
#: c * R * n <= this, for a loss that averages over the examples (least
#: squares evaluates from its QR factors and needs no bound)
RISK_EXAMPLES = 2 ** 14
#: empirical-risk checkpoints per run at most (see ``checkpoint_steps``)
MAX_CHECKPOINTS = 512


def seed_sequence(*path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=list(int(p) for p in path))


def derive_seed(*path: int) -> int:
    """Collapse a seed path into one 128-bit integer key (reproducible)."""
    words = seed_sequence(*path).generate_state(2, dtype=np.uint64)
    return int(words[0]) | (int(words[1]) << 64)


def path_generator(*path: int) -> np.random.Generator:
    """The counter-based generator of a seed path.

    Philox keys itself from the path's seed sequence with the two words
    that ``derive_seed`` packs, so the stream equals that of
    ``Generator(Philox(key=derive_seed(*path)))``.
    """
    return np.random.Generator(np.random.Philox(seed_sequence(*path)))


@dataclass(frozen=True)
class IndexStream:
    """The index streams of R replicates, T steps each, read front to back.

    ``read(count)`` gives the (R, count) indices of every replicate's next
    ``count`` steps.  A stream is read once.
    """

    shape: Tuple[int, int]                  # (R, T)
    read: Callable[[int], np.ndarray]

    def chunks(self, size: int) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(s, idx)`` for s = 0, size, 2 size, ...: idx is the (R, e - s)
        indices of steps s+1..e, e = min(s + size, T)."""
        T = self.shape[1]
        for s in range(0, T, size):
            yield s, self.read(min(size, T - s))


def iid_stream(gens: Sequence[np.random.Generator], n: int, T: int) -> IndexStream:
    """Replicate r's T indices, i.i.d. uniform on [0, n), drawn from ``gens[r]``.

    A read of c steps is one ``integers(0, n, size=c)`` per generator.  The
    bit generator keeps the unused half of a 64-bit word between calls, so
    consecutive reads draw the indices of one draw of T, whatever the chunk
    lengths.
    """
    def read(count: int) -> np.ndarray:
        out = np.empty((len(gens), count), dtype=np.int64)
        for r, g in enumerate(gens):
            out[r] = g.integers(0, n, size=count, dtype=np.int64)
        return out
    return IndexStream((len(gens), T), read)


def epoch_stream(gens: Sequence[np.random.Generator], n: int, T: int) -> IndexStream:
    """Replicate r's T indices run through the shuffles ``gens[r].permutation(n)``,
    a fresh one per epoch of n steps, drawn as the read reaches it."""
    left = [np.empty(0, dtype=np.int64) for _ in gens]

    def read(count: int) -> np.ndarray:
        out = np.empty((len(gens), count), dtype=np.int64)
        for r, g in enumerate(gens):
            at = 0
            while at < count:
                if not left[r].size:
                    left[r] = g.permutation(n)
                k = min(count - at, left[r].size)
                out[r, at:at + k] = left[r][:k]
                left[r] = left[r][k:]
                at += k
        return out
    return IndexStream((len(gens), T), read)


def given_stream(indices: np.ndarray) -> IndexStream:
    """Given (R, T) index sequences, read as slices."""
    at = 0

    def read(count: int) -> np.ndarray:
        nonlocal at
        at += count
        return indices[:, at - count:at]
    return IndexStream(indices.shape, read)


def checkpoint_steps(T: int) -> np.ndarray:
    """Sorted subset of {1..T} at which empirical risk is recorded.

    Always contains 1 and T; at most ``MAX_CHECKPOINTS`` entries, evenly
    spread.  Consumers reconstruct in-between values conservatively (max of
    the bracketing recorded values).
    """
    if T <= MAX_CHECKPOINTS:
        return np.arange(1, T + 1, dtype=np.int64)
    return np.unique(np.linspace(1, T, MAX_CHECKPOINTS).round().astype(np.int64))


@dataclass
class CoreResult:
    finals: np.ndarray                     # (R, B, d) output iterates w_{T+1}
    avg: Optional[np.ndarray]              # (R, d) base row
    risk_path: Optional[np.ndarray]        # (R, C) base row F_S(w_j) at risk_ckpt_steps


def _batch_empirical_risk(loss, Wb: np.ndarray, Xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """F_S(w_r) for each replicate row, on that replicate's own dataset."""
    return loss.batch_value(Wb[:, None], Xs, ys).mean(axis=1)


def _fork_schedule(sub_idx: np.ndarray, indices: np.ndarray, n: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The neighbour pairs drawn in a chunk of the streams, in order of first hit.

    ``indices`` is the (R, C) chunk.  Returns ``(pair_r, pair_j, tau)``: the
    position ``sub_idx[pair_r[p], pair_j[p]]`` is first drawn in the chunk at
    its step ``tau[p]`` (1-based), ``tau`` is nondecreasing, and ties stay in
    (replicate, neighbour) order.  A pair whose position the chunk never
    draws is left out.
    """
    R, C = indices.shape
    first = np.full(R * n, C + 1, dtype=np.int64)
    if C:
        flat = (indices + n * np.arange(R, dtype=np.int64)[:, None]).ravel()
        keys, at = np.unique(flat, return_index=True)
        first[keys] = at % C + 1
    tau = first.reshape(R, n)[np.arange(R)[:, None], sub_idx]
    pair_r, pair_j = np.nonzero(tau <= C)
    tau = tau[pair_r, pair_j]
    order = np.argsort(tau, kind="stable")
    return pair_r[order], pair_j[order], tau[order]


def _add_forks(sub_idx: np.ndarray, indices: np.ndarray, n: int, start: int,
               row_of: np.ndarray, pair_r: np.ndarray, pair_j: np.ndarray,
               tau: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fork schedule ``(pair_r, pair_j, tau)`` of the earlier chunks,
    followed by that of the chunk ``indices`` (steps start + 1 ..), less the
    pairs already forked.

    Pair p's buffer row R + p is recorded in ``row_of`` at its (replicate,
    position).  The merged ``tau`` counts steps from the start of the stream.
    """
    R = indices.shape[0]
    P = tau.shape[0]
    new_r, new_j, new_tau = _fork_schedule(sub_idx, indices, n)
    if P:
        new = row_of[new_r, sub_idx[new_r, new_j]] < 0
        new_r, new_j, new_tau = new_r[new], new_j[new], new_tau[new]
    row_of[new_r, sub_idx[new_r, new_j]] = R + P + np.arange(new_tau.shape[0])
    return (np.concatenate([pair_r, new_r]), np.concatenate([pair_j, new_j]),
            np.concatenate([tau, start + new_tau]))


def _row_table(A: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The rows of an (R, n, ...) array A as one table, and where each
    replicate's rows start in it: A[r, i] is ``table[start[r] + i]``.

    A replicate axis of stride 0 (one dataset broadcast to every replicate)
    is not copied: its table is A[0] and every start is 0.
    """
    R, n = A.shape[:2]
    if A.strides[0] == 0:
        return A[0], np.zeros(R, dtype=np.int64)
    return (np.ascontiguousarray(A).reshape((R * n,) + A.shape[2:]),
            n * np.arange(R, dtype=np.int64))


def _in_block(steps: np.ndarray, s: int, e: int) -> np.ndarray:
    """Positions of the 1-based ``steps`` that fall in the block of steps s+1..e."""
    return np.nonzero((steps > s) & (steps <= e))[0]


def _fold(acc: np.ndarray, weights: np.ndarray, buf: np.ndarray) -> None:
    """acc += weights[j] * buf[j] for j = 0, 1, ..., in place.

    The terms are added in that order, so the bits are those of one ``+=``
    per step, whatever the block length.  ``add.reduce`` over the leading
    axis adds whole rows in order, and is several times faster than
    ``accumulate``; but when the rows are single numbers it sums pairwise,
    so there ``accumulate`` keeps the order.
    """
    terms = weights[:, None, None] * buf
    terms[0] += acc
    if acc.size > 1:
        np.add.reduce(terms, axis=0, out=acc)
    else:
        acc[...] = np.add.accumulate(terms, axis=0)[-1]


def linear_weights(T: int, t0: int) -> np.ndarray:
    """The weights t + t0 - 1 of steps t = 1..T of the linearly weighted average."""
    return np.arange(t0, T + t0, dtype=np.float64)


def weighted_average(acc: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The average whose weighted sum is ``acc``; 0 when the weights sum to zero."""
    wsum = float(np.sum(weights))
    return acc / wsum if wsum > 0.0 else np.zeros_like(acc)


def run_core(loss, Xs, ys, gXs, gys, sub_idx, etas, radius, indices: IndexStream, *,
             risk_ckpt_steps: Optional[np.ndarray] = None,
             average_weights: Optional[np.ndarray] = None) -> CoreResult:
    """Run R coupled families of projected SGD trajectories for T steps.

    Parameters
    ----------
    Xs, ys : (R, n, d), (R, n)
        Per-replicate base datasets (broadcast views are fine).
    gXs, gys : same shapes or None
        Ghost datasets; required iff ``sub_idx`` is given.
    sub_idx : (R, m) int or None
        Distinct positions per replicate whose example is swapped for the
        ghost one in rows 1..m.
    etas : (T,), or (R, T) for step sizes per replicate
        A row steps by ``etas[r, t]`` of its replicate r.
    radius : the ball every step projects onto, or None for no projection.
    indices : the shared per-replicate index streams, of shape (R, T).
    risk_ckpt_steps : (C,) 1-based steps at which F_S(w_t) of the base rows
        is recorded, or None.
    average_weights : (T,) or None
        Weights of w_1..w_T in the average of each base row (``avg``), or
        None for no average.
    """
    Xs = np.asarray(Xs)
    ys = np.asarray(ys)
    R, n, d = Xs.shape
    T = indices.shape[1]
    per_row = etas.ndim == 2
    if etas.shape != ((R, T) if per_row else (T,)):
        raise InvalidArgument("etas must be (T,) or (R, T) for T steps of R replicates")
    if average_weights is not None and average_weights.shape != (T,):
        raise InvalidArgument("average weights must be (T,) for T steps")
    m = 0 if sub_idx is None else sub_idx.shape[1]
    ar = np.arange(R)
    Xtab, x_start = _row_table(Xs)
    ytab, y_start = _row_table(ys)

    # the pairs forked so far, in fork order: buffer row R + p is pair p
    pair_r = pair_j = tau = np.empty(0, dtype=np.int64)
    # buffer row -> its replicate; rows 0..R-1 are the base rows
    rep = ar
    # (replicate, position) -> buffer row of that neighbour, -1 if none yet
    row_of = np.full((R, n), -1, dtype=np.int64) if m else None

    W = np.zeros((R, d), dtype=np.float64)

    risk_path = None
    if risk_ckpt_steps is not None:
        risk_ckpt_steps = np.asarray(risk_ckpt_steps, dtype=np.int64)
        risk_path = np.empty((R, risk_ckpt_steps.shape[0]), dtype=np.float64)
        risks = loss.risk_evaluator(Xs, ys, RISK_EXAMPLES)
    acc = np.zeros((R, d)) if average_weights is not None else None
    observed = risk_path is not None or acc is not None

    block = max(1, BLOCK_ROWS // R)
    # slot j holds w_{s+1+j} of the block of steps s+1..e
    base = np.zeros((min(block, T) + 1, R, d)) if observed else None
    # the iterates of a ``descend`` call while no neighbour has forked: the
    # slots, or W stepped in place
    ws = list(base) if observed else [W] * (min(block, T) + 1)
    k = R
    Wa = Wb = W                                # the active rows; the base rows
    for c, ids in indices.chunks(max(1, STREAM_STEPS // block) * block):
        P = tau.shape[0]
        if P < R * m:
            pair_r, pair_j, tau = _add_forks(sub_idx, ids, n, c, row_of, pair_r, pair_j, tau)
            if tau.shape[0] > P:
                if observed and not P:
                    # the base rows leave the slots for W
                    W[...] = base[0]
                rep = np.concatenate([ar, pair_r])
                grown = np.empty((R + tau.shape[0], d))
                grown[:R + P] = W
                W, Wa, Wb = grown, grown[:k], grown[:R]
                P = tau.shape[0]
        for s in range(c, c + ids.shape[1], block):
            e = min(s + block, T)
            idx = ids[:, s - c:e - c].T        # (block, R)
            xb = np.take(Xtab, idx + x_start, axis=0)  # (block, R, d)
            yb = np.take(ytab, idx + y_start)
            if not P:
                # no neighbour has forked: the base rows step the block in one call
                loss.descend(ws[:e - s + 1], xb, yb,
                             etas[:, s:e, None].swapaxes(0, 1) if per_row
                             else etas[s:e].tolist(), radius)
            else:
                # rows active during each step: the base rows and every pair
                # with tau <= t
                active = (R + np.searchsorted(tau, np.arange(s + 1, e + 1),
                                              side="right")).tolist()
                # ghost swaps of the block, grouped by step: a drawn position
                # whose neighbour exists takes the ghost example in that row
                rows = row_of[ar, idx]
                hit_j, hit_r = np.nonzero(rows >= 0)
                hit_row = rows[hit_j, hit_r]
                gx = gXs[hit_r, idx[hit_j, hit_r]]
                gy = gys[hit_r, idx[hit_j, hit_r]]
                cut = np.searchsorted(hit_j, np.arange(e - s + 1)).tolist()
                # a Python float per step, or the (block, R) steps of each replicate
                steps = etas[:, s:e].T if per_row else etas[s:e].tolist()
                for j, eta in enumerate(steps):
                    if active[j] > k:
                        # fork: a neighbour equals its base row until its first hit
                        lo, k = k, active[j]
                        W[lo:k] = W[rep[lo:k]]
                        Wa = W[:k]
                    if observed:
                        base[j] = Wb
                    if k > R:
                        Xf = np.take(xb[j], rep[:k], axis=0)
                        yf = yb[j][rep[:k]]
                        a, b = cut[j], cut[j + 1]
                        Xf[hit_row[a:b]] = gx[a:b]
                        yf[hit_row[a:b]] = gy[a:b]
                    else:
                        Xf = xb[j]
                        yf = yb[j]
                    if per_row:
                        eta = eta[rep[:k], None]
                    loss.descend((Wa, Wa), Xf[None], yf[None], (eta,), radius)
            if not observed:
                continue

            buf = base[:e - s]
            if risk_path is not None:
                at = _in_block(risk_ckpt_steps, s, e)
                risk_path[:, at] = risks(buf[risk_ckpt_steps[at] - s - 1].swapaxes(0, 1))
            if acc is not None:
                _fold(acc, average_weights[s:e], buf)
            if not P:
                # w_{e+1} starts the next block; slot 0 (w_{s+1}) is overwritten
                # only after the checkpoints and the fold have read it
                base[0] = base[e - s]
    if observed and not tau.shape[0]:
        W[...] = base[0]

    # (R, 1 + m, d): every neighbour that never forked is its base row
    finals = np.repeat(W[:R, None, :], 1 + m, axis=1)
    finals[pair_r, 1 + pair_j] = W[R:]

    return CoreResult(
        finals=finals,
        avg=None if acc is None else weighted_average(acc, average_weights),
        risk_path=risk_path,
    )
