"""Vectorized trajectory engine shared by the public runners and estimators.

``run_core`` runs R replicates (each with its own dataset and index stream),
each a family of 1 + m coupled trajectories: row 0 runs on the base dataset,
row 1 + j on the dataset whose ``sub_idx[r, j]``-th example is replaced by
the ghost example at the same position.  All rows of a replicate consume the
identical index sequence, which is the coupling the stability estimators
need.

Neighbours fork lazily.  Neighbour j's iterates equal the base row's, bit
for bit, until the first step tau at which the stream draws its position,
so it is copied from its base row at tau and stepped only from then on; a
neighbour whose position is never drawn is never created.  At T = n a
neighbour runs about T - n(1 - e^{-T/n}) = 0.37 T steps instead of T.  The
forked rows are kept in fork order after the R base rows, so the active
rows are always a prefix of one buffer.  The result is the same as stepping
all 1 + m rows at every step, because every loss computes each row from that
row alone.

Determinism contract: given the same seeds, every public quantity is bitwise
reproducible, and a replicate's results do not depend on which other
replicates share its call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidArgument

# purpose tags entering SeedSequence entropy; values arbitrary but frozen
TAG_INDEX = 0x1D
TAG_DATA = 0xDA
TAG_GHOST = 0x60
TAG_SUBSAMPLE = 0x5B
TAG_POP = 0xB0
TAG_PERM = 0xFE


def seed_sequence(*path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=list(int(p) for p in path))


def derive_seed(*path: int) -> int:
    """Collapse a seed path into one 128-bit integer key (reproducible)."""
    words = seed_sequence(*path).generate_state(2, dtype=np.uint64)
    return int(words[0]) | (int(words[1]) << 64)


def philox(key: int) -> np.random.Generator:
    """Counter-based generator from a derived 128-bit key."""
    return np.random.Generator(np.random.Philox(key=key))


def index_matrix(key: int, n: int, T: int, replicates: int) -> np.ndarray:
    """(replicates, T) i.i.d. uniform indices in [0, n)."""
    rng = philox(key)
    return rng.integers(0, n, size=(replicates, T), dtype=np.int64)


def permutation_matrix(key: int, n: int, epochs: int, replicates: int) -> np.ndarray:
    """(replicates, epochs * n) indices: a fresh shuffle per epoch per replicate."""
    rng = philox(key)
    out = np.empty((replicates, epochs * n), dtype=np.int64)
    for r in range(replicates):
        for k in range(epochs):
            out[r, k * n:(k + 1) * n] = rng.permutation(n)
    return out


def checkpoint_steps(T: int, max_checkpoints: int = 512) -> np.ndarray:
    """Sorted subset of {1..T} at which empirical risk is recorded.

    Always contains 1 and T; at most ``max_checkpoints`` entries, evenly
    spread.  Consumers reconstruct in-between values conservatively (max of
    the bracketing recorded values).
    """
    if T <= max_checkpoints:
        return np.arange(1, T + 1, dtype=np.int64)
    return np.unique(np.linspace(1, T, max_checkpoints).round().astype(np.int64))


@dataclass
class CoreResult:
    finals: np.ndarray                     # (R, B, d) output iterates w_{T+1}
    avg_eta: Optional[np.ndarray]          # (R, B, d)
    avg_lin: Optional[np.ndarray]          # (R, B, d)
    iterates: Optional[np.ndarray]         # (R, K, d) base-row recorded iterates
    iterate_steps: Optional[np.ndarray]    # (K,)
    per_step_risk: Optional[np.ndarray]    # (R, T) base row, f(w_t; z_{i_t})
    risk_steps: Optional[np.ndarray]       # (C,)
    risk_path: Optional[np.ndarray]        # (R, C) base row F_S(w_j)
    final_emp_risk: Optional[np.ndarray]   # (R,) base row F_S(w_{T+1})


def _batch_empirical_risk(loss, Wb: np.ndarray, Xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """F_S(w_r) for each replicate row, on that replicate's own dataset."""
    R, n, d = Xs.shape
    WW = np.repeat(Wb, n, axis=0)
    vals = loss.batch_value(WW, Xs.reshape(R * n, d), np.ascontiguousarray(ys).reshape(R * n))
    return vals.reshape(R, n).mean(axis=1)


def _apply_post(Wf: np.ndarray, post, eta: float) -> None:
    """In-place projection / proximal step on flattened rows."""
    if post is None:
        return
    kind = post[0]
    if kind == "ball":
        radius = post[1]
        nrm = np.linalg.norm(Wf, axis=1)
        over = nrm > radius
        if np.any(over):
            Wf[over] *= (radius / nrm[over])[:, None]
    elif kind == "prox_l2":
        Wf *= 1.0 / (1.0 + eta * post[1])
    elif kind == "prox_l1":
        thr = eta * post[1]
        np.multiply(np.sign(Wf), np.maximum(np.abs(Wf) - thr, 0.0), out=Wf)
    else:
        raise InvalidArgument(f"unknown post-step {post!r}")


def _fork_schedule(sub_idx: np.ndarray, indices: np.ndarray, n: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The neighbour pairs that ever leave their base row, in fork order.

    Returns ``(pair_r, pair_j, tau)``: the neighbour whose position is
    ``sub_idx[pair_r[p], pair_j[p]]`` is first drawn at step ``tau[p]``
    (1-based), and ``tau`` is nondecreasing.  A pair whose position is never
    drawn is left out; its iterates equal its base row's at every step.
    """
    R, T = indices.shape
    first = np.full(R * n, T + 1, dtype=np.int64)
    if T:
        flat = (indices + n * np.arange(R, dtype=np.int64)[:, None]).ravel()
        keys, at = np.unique(flat, return_index=True)
        first[keys] = at % T + 1
    tau = first.reshape(R, n)[np.arange(R)[:, None], sub_idx]
    pair_r, pair_j = np.nonzero(tau <= T)
    tau = tau[pair_r, pair_j]
    order = np.argsort(tau, kind="stable")
    return pair_r[order], pair_j[order], tau[order]


def run_core(loss, Xs, ys, gXs, gys, sub_idx, etas, post, indices, *,
             t0: int = 1,
             record_every: Optional[int] = None,
             collect_per_step_risk: bool = False,
             risk_ckpt_steps: Optional[np.ndarray] = None,
             collect_final_risk: bool = False,
             collect_averages: bool = True) -> CoreResult:
    """Run R coupled families of SGD/SPGD trajectories for T steps.

    Parameters
    ----------
    Xs, ys : (R, n, d), (R, n)
        Per-replicate base datasets (broadcast views are fine).
    gXs, gys : same shapes or None
        Ghost datasets; required iff ``sub_idx`` is given.
    sub_idx : (R, m) int or None
        Distinct positions per replicate whose example is swapped for the
        ghost one in rows 1..m.
    etas : (T,)
    post : None | ("ball", radius) | ("prox_l2", lam) | ("prox_l1", lam)
    indices : (R, T) shared per-replicate index streams.
    """
    Xs = np.asarray(Xs)
    ys = np.asarray(ys)
    R, n, d = Xs.shape
    T = indices.shape[1]
    if etas.shape[0] != T:
        raise InvalidArgument("etas length must equal the step count")
    m = 0 if sub_idx is None else sub_idx.shape[1]
    ar = np.arange(R)

    if m:
        pair_r, pair_j, tau = _fork_schedule(sub_idx, indices, n)
    else:
        pair_r = pair_j = tau = np.empty(0, dtype=np.int64)
    P = tau.shape[0]
    # buffer row -> its replicate; rows 0..R-1 are the base rows, row R + p
    # is the p-th pair to fork
    rep = np.concatenate([ar, pair_r])
    # (replicate, position) -> buffer row of that neighbour, -1 if none
    row_of = np.full((R, n), -1, dtype=np.int64)
    if P:
        row_of[pair_r, sub_idx[pair_r, pair_j]] = R + np.arange(P)
    # rows active during step t: the base rows and every pair with tau <= t
    active = R + np.searchsorted(tau, np.arange(1, T + 1), side="right")

    W = np.zeros((R + P, d), dtype=np.float64)
    acc_eta = np.zeros_like(W) if collect_averages else None
    acc_lin = np.zeros_like(W) if collect_averages else None

    rec_steps = None
    iterates = None
    if record_every is not None:
        rec = [t for t in range(1, T + 1) if (t - 1) % record_every == 0]
        rec.append(T + 1)  # the output iterate is always recorded
        rec_steps = np.asarray(rec, dtype=np.int64)
        iterates = np.empty((R, len(rec), d), dtype=np.float64)
        rec_pos = {t: k for k, t in enumerate(rec)}

    psr = np.empty((R, T), dtype=np.float64) if collect_per_step_risk else None

    risk_path = None
    ckpt_pos = None
    if risk_ckpt_steps is not None:
        risk_ckpt_steps = np.asarray(risk_ckpt_steps, dtype=np.int64)
        risk_path = np.empty((R, risk_ckpt_steps.shape[0]), dtype=np.float64)
        ckpt_pos = {int(t): k for k, t in enumerate(risk_ckpt_steps)}

    k = R
    for t in range(1, T + 1):
        idx = indices[:, t - 1]
        xa = Xs[ar, idx]                       # (R, d)
        ya = ys[ar, idx]                       # (R,)
        if active[t - 1] > k:
            # fork: a neighbour equals its base row until its first hit
            lo, k = k, active[t - 1]
            W[lo:k] = W[rep[lo:k]]
            if collect_averages:
                acc_eta[lo:k] = acc_eta[rep[lo:k]]
                acc_lin[lo:k] = acc_lin[rep[lo:k]]
        if k > R:
            Xf = xa[rep[:k]]
            yf = ya[rep[:k]]
            rows = row_of[ar, idx]
            hit = np.nonzero(rows >= 0)[0]
            Xf[rows[hit]] = gXs[hit, idx[hit]]
            yf[rows[hit]] = gys[hit, idx[hit]]
        else:
            Xf = xa
            yf = ya

        Wa = W[:k]
        if psr is not None:
            psr[:, t - 1] = loss.batch_value(W[:R], xa, ya)
        if ckpt_pos is not None and t in ckpt_pos:
            risk_path[:, ckpt_pos[t]] = _batch_empirical_risk(loss, W[:R], Xs, ys)
        if rec_steps is not None and t in rec_pos:
            iterates[:, rec_pos[t]] = W[:R]
        if collect_averages:
            acc_eta[:k] += etas[t - 1] * Wa
            acc_lin[:k] += float(t + t0 - 1) * Wa

        Wa -= etas[t - 1] * loss.batch_grad(Wa, Xf, yf)
        _apply_post(Wa, post, float(etas[t - 1]))

    if rec_steps is not None and (T + 1) in rec_pos:
        iterates[:, rec_pos[T + 1]] = W[:R]

    final_emp_risk = None
    if collect_final_risk:
        final_emp_risk = _batch_empirical_risk(loss, W[:R], Xs, ys)

    def assemble(buf: np.ndarray) -> np.ndarray:
        """(R, 1 + m, d): every neighbour that never forked is its base row."""
        out = np.repeat(buf[:R, None, :], 1 + m, axis=1)
        out[pair_r, 1 + pair_j] = buf[R:]
        return out

    if collect_averages:
        wsum_eta = float(np.sum(etas))
        ts = np.arange(1, T + 1, dtype=np.float64)
        wsum_lin = float(np.sum(ts + t0 - 1.0))
        avg_eta = assemble(acc_eta)
        avg_lin = assemble(acc_lin)
        avg_eta = avg_eta / wsum_eta if wsum_eta > 0.0 else np.zeros_like(avg_eta)
        avg_lin = avg_lin / wsum_lin if wsum_lin > 0.0 else np.zeros_like(avg_lin)
    else:
        avg_eta = avg_lin = None

    return CoreResult(
        finals=assemble(W),
        avg_eta=avg_eta,
        avg_lin=avg_lin,
        iterates=iterates,
        iterate_steps=rec_steps,
        per_step_risk=psr,
        risk_steps=risk_ckpt_steps,
        risk_path=risk_path,
        final_emp_risk=final_emp_risk,
    )
