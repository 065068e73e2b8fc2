"""Monte-Carlo estimators of on-average model stability and generalization gaps.

All estimators couple trajectories through common random index streams: the
run on S and the runs on its replace-one neighbors S^(i) consume the same
i_t sequence, so the measured distances are exactly the quantities the
stability analysis controls.

Seed discipline: replicate r of a given master seed always derives its
dataset from (master_seed, replicate tag, r) and its index stream from
(master_seed, index tag, r).  A stability report keeps the output and the
empirical risk of each replicate's base run, so ``gap_from_stability``
measures the generalization gap on the very runs whose stability was
measured, without running them again; ``estimate_generalization_gap`` runs
the same base trajectories for callers that need no stability.

Work runs in chunks of whole replicates, in replicate order, and lands in
preallocated arrays.  A chunk runs at most ``ROW_BUDGET`` engine rows (1 + m
per replicate: the base run and m neighbours) and holds at most
``EXAMPLES_PER_ROW * ROW_BUDGET`` examples (n per replicate), so few rows
per replicate make few, long chunks while memory stays bounded.  Every
replicate's result is bitwise the same for any chunk size.  The ``threads``
settings are accepted for compatibility but run nothing in parallel: a
thread pool over chunks made the measured runs slower, not faster.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import _engine
from .data import (Dataset, Distribution, NeighborFamily, empirical_risk,
                   population_risk, population_risk_minimum, sample_dataset,
                   sample_neighbor_family)
from .errors import InvalidArgument, ResourceLimitExceeded
from .losses import Loss
from .optim import Ball, Schedule

#: engine rows per chunk of replicates (see the module docstring)
ROW_BUDGET = 4096
#: dataset examples per chunk, per engine row of the budget: 2^18 examples,
#: 16 MiB of features at d = 8
EXAMPLES_PER_ROW = 64

TAG_REPLICATE = 0x9E

# brute force enumerates n^T index sequences; hard budget per the contract
BRUTE_FORCE_MAX_SEQUENCES = 1_000_000


@dataclass(frozen=True)
class CouplingConfig:
    """How a stability estimate is sampled.

    replicates: independent (S, ghost, index-stream) draws.
    neighbor_subsample: how many replace-one positions to average per
        replicate (None = all n).  Positions are a uniform without-replacement
        subsample, drawn per replicate.
    record_risks: record the base-run empirical risk path (needed by the
        bound calculators).
    threads: accepted and validated for compatibility; it has no effect.
    """

    replicates: int
    neighbor_subsample: Optional[int] = None
    record_risks: bool = True
    threads: int = 1

    def __post_init__(self):
        if not self.replicates >= 1:
            raise InvalidArgument(f"replicates must be >= 1, got {self.replicates}")
        if self.neighbor_subsample is not None and not self.neighbor_subsample >= 1:
            raise InvalidArgument(
                f"neighbor_subsample must be >= 1, got {self.neighbor_subsample}")
        if not self.threads >= 1:
            raise InvalidArgument(f"threads must be >= 1, got {self.threads}")


@dataclass(frozen=True)
class RiskPathStats:
    """Replicate-aggregated empirical-risk statistics along the base run.

    ``steps`` are the recorded 1-based step numbers (always include 1 and T);
    ``mean[k]`` estimates E[F_S(w_steps[k])].  ``sqrt_*`` aggregates
    sqrt(F_S) and ``frac_*`` aggregates F_S^frac_exponent, both averaged per
    replicate before the power is taken — i.e. the expectations the bound
    right-hand sides actually consume.  ``final_*`` is F_S at the output
    iterate w_{T+1}.
    """

    steps: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    sqrt_mean: np.ndarray
    sqrt_stderr: np.ndarray
    frac_exponent: float
    frac_mean: np.ndarray
    frac_stderr: np.ndarray
    final_mean: float
    final_stderr: float


@dataclass(frozen=True)
class StabilityReport:
    """On-average model stability estimates with replicate standard errors.

    l1_mean estimates E[(1/m) sum_i ||w - w^(i)||]; l2_sq_mean the same with
    squared norms.  ``base_finals`` holds each replicate's base-run output
    w_{T+1}, and ``base_emp_risk`` its F_S(w_{T+1}) when risks are recorded.
    """

    l1_mean: float
    l1_stderr: float
    l2_sq_mean: float
    l2_sq_stderr: float
    risk_path: Optional[RiskPathStats]
    n: int
    T: int
    config: CouplingConfig
    base_finals: Optional[np.ndarray] = None     # (R, d)
    base_emp_risk: Optional[np.ndarray] = None   # (R,)


@dataclass(frozen=True)
class GapReport:
    """Generalization gap F(w_out) - F_S(w_out) and excess risk F(w_out) - F*."""

    gap_mean: float
    gap_stderr: float
    excess_mean: float
    excess_stderr: float
    output: str
    n: int
    T: int
    replicates: int


def _stderr(vals: np.ndarray) -> float:
    if vals.shape[0] < 2:
        return 0.0
    return float(vals.std(ddof=1) / math.sqrt(vals.shape[0]))


def _chunk_size(rows: int, n: int) -> int:
    """Replicates per chunk when each runs ``rows`` engine rows on n examples."""
    return max(1, min(ROW_BUDGET // rows, EXAMPLES_PER_ROW * ROW_BUDGET // n))


def _run_chunks(worker: Callable[[int, int], None], total: int, rows: int,
                n: int) -> None:
    """Call ``worker(lo, hi)`` on consecutive replicate spans, in order."""
    step = _chunk_size(rows, n)
    for lo in range(0, total, step):
        worker(lo, min(lo + step, total))


def _post_of(domain: Optional[Ball]):
    return ("ball", domain.radius) if domain is not None else None


def _replicate_dataset_seed(master_seed: int, r: int) -> int:
    return _engine.derive_seed(master_seed, TAG_REPLICATE, r)


def _replicate_index_key(master_seed: int, r: int, n: int, T: int) -> np.ndarray:
    key = _engine.derive_seed(master_seed, _engine.TAG_INDEX, r)
    return _engine.index_matrix(key, n, T, replicates=1)


def _aggregate_risk_stats(loss: Loss, steps: np.ndarray, path: np.ndarray,
                          final_risk: np.ndarray) -> RiskPathStats:
    alpha = loss.alpha
    frac = 2.0 * alpha / (1.0 + alpha)
    sqrt_path = np.sqrt(np.maximum(path, 0.0))
    frac_path = np.power(np.maximum(path, 0.0), frac)  # 0**0 == 1 by convention
    R = path.shape[0]

    def col_stderr(mat):
        if R < 2:
            return np.zeros(mat.shape[1])
        return mat.std(axis=0, ddof=1) / math.sqrt(R)

    return RiskPathStats(
        steps=steps,
        mean=path.mean(axis=0),
        stderr=col_stderr(path),
        sqrt_mean=sqrt_path.mean(axis=0),
        sqrt_stderr=col_stderr(sqrt_path),
        frac_exponent=frac,
        frac_mean=frac_path.mean(axis=0),
        frac_stderr=col_stderr(frac_path),
        final_mean=float(final_risk.mean()),
        final_stderr=_stderr(final_risk),
    )


# ---------------------------------------------------------------------------
# single coupled pair
# ---------------------------------------------------------------------------

def coupled_pair_run(loss: Loss, family: NeighborFamily, i: int, sched: Schedule,
                     domain: Optional[Ball], T: int, master_seed: int
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run SGD on S and on S^(i) with one shared index stream.

    Returns (w_{T+1} on S, w_{T+1} on S^(i), base-run per-step risks).
    """
    n = family.base.n
    if not 0 <= i < n:
        raise InvalidArgument(f"neighbor position must be in [0, {n}), got {i}")
    etas = sched.etas(T)
    indices = _replicate_index_key(master_seed, 0, n, T)
    out = _engine.run_core(
        loss,
        family.base.features[None], family.base.labels[None],
        family.ghost.features[None], family.ghost.labels[None],
        np.asarray([[i]], dtype=np.int64),
        etas, _post_of(domain), indices,
        collect_per_step_risk=True, collect_averages=False,
    )
    return out.finals[0, 0], out.finals[0, 1], out.per_step_risk[0]


# ---------------------------------------------------------------------------
# Monte-Carlo on-average stability
# ---------------------------------------------------------------------------

def estimate_on_average_stability(loss: Loss, dist: Optional[Distribution], n: int,
                                  T: int, sched: Schedule, domain: Optional[Ball],
                                  config: CouplingConfig, master_seed: int,
                                  fixed_family: Optional[NeighborFamily] = None
                                  ) -> StabilityReport:
    """Estimate the l1/l2 on-average model stability of projected SGD.

    Each replicate draws (S, ghost, index stream, position subsample), runs
    the coupled family, and averages ||w - w^(i)|| (and its square) over the
    sampled positions; means and standard errors are then taken over
    replicates.  With ``fixed_family`` the datasets are held fixed and only
    the index stream varies (the conditional expectation the enumeration
    oracle computes exactly).
    """
    if not (n >= 1 and T >= 0):
        raise InvalidArgument("n must be >= 1 and T >= 0")
    m = config.neighbor_subsample if config.neighbor_subsample is not None else n
    if m > n:
        raise InvalidArgument(f"neighbor_subsample {m} exceeds n = {n}")
    if fixed_family is None and dist is None:
        raise InvalidArgument("either a distribution or a fixed family is required")
    if fixed_family is not None and fixed_family.base.n != n:
        raise InvalidArgument("fixed family size differs from n")

    R = config.replicates
    etas = sched.etas(T)
    post = _post_of(domain)
    # no steps -> no risk path to record (the output is w_1 = 0)
    ckpt = _engine.checkpoint_steps(T) if (config.record_risks and T >= 1) else None

    d = fixed_family.base.dim if fixed_family is not None else dist.dim
    l1_vals = np.empty(R)
    l2_vals = np.empty(R)
    base_finals = np.empty((R, d))
    risk_rows = np.empty((R, ckpt.shape[0])) if ckpt is not None else None
    final_risk = np.empty(R) if config.record_risks else None

    def worker(lo: int, hi: int) -> None:
        Rc = hi - lo
        if fixed_family is not None:
            Xs = np.broadcast_to(fixed_family.base.features, (Rc, n, d))
            ys = np.broadcast_to(fixed_family.base.labels, (Rc, n))
            gXs = np.broadcast_to(fixed_family.ghost.features, (Rc, n, d))
            gys = np.broadcast_to(fixed_family.ghost.labels, (Rc, n))
        else:
            Xs = np.empty((Rc, n, d))
            ys = np.empty((Rc, n))
            gXs = np.empty((Rc, n, d))
            gys = np.empty((Rc, n))
            for k, r in enumerate(range(lo, hi)):
                fam = sample_neighbor_family(dist, n, _replicate_dataset_seed(master_seed, r))
                Xs[k], ys[k] = fam.base.features, fam.base.labels
                gXs[k], gys[k] = fam.ghost.features, fam.ghost.labels

        if m == n:
            sub = np.broadcast_to(np.arange(n, dtype=np.int64), (Rc, n))
        else:
            sub = np.empty((Rc, m), dtype=np.int64)
            for k, r in enumerate(range(lo, hi)):
                rng = _engine.philox(_engine.derive_seed(master_seed, _engine.TAG_SUBSAMPLE, r))
                sub[k] = rng.permutation(n)[:m]

        indices = np.vstack([_replicate_index_key(master_seed, r, n, T)
                             for r in range(lo, hi)])
        out = _engine.run_core(
            loss, Xs, ys, gXs, gys, sub, etas, post, indices,
            collect_averages=False,
            risk_ckpt_steps=ckpt,
            collect_final_risk=config.record_risks,
        )
        diffs = out.finals[:, 1:] - out.finals[:, :1]
        norms = np.linalg.norm(diffs, axis=2)
        l1_vals[lo:hi] = norms.mean(axis=1)
        l2_vals[lo:hi] = (norms ** 2).mean(axis=1)
        base_finals[lo:hi] = out.finals[:, 0]
        if risk_rows is not None:
            risk_rows[lo:hi] = out.risk_path
        if final_risk is not None:
            final_risk[lo:hi] = out.final_emp_risk

    _run_chunks(worker, R, 1 + m, n)

    stats = None
    if risk_rows is not None:
        stats = _aggregate_risk_stats(loss, ckpt, risk_rows, final_risk)
    return StabilityReport(
        l1_mean=float(l1_vals.mean()), l1_stderr=_stderr(l1_vals),
        l2_sq_mean=float(l2_vals.mean()), l2_sq_stderr=_stderr(l2_vals),
        risk_path=stats, n=n, T=T, config=config,
        base_finals=base_finals, base_emp_risk=final_risk,
    )


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

def _all_index_sequences(n: int, T: int) -> np.ndarray:
    M = n ** T
    seqs = np.empty((M, T), dtype=np.int64)
    ramp = np.arange(M)
    for t in range(T):
        seqs[:, t] = (ramp // n ** (T - 1 - t)) % n
    return seqs


def brute_force_stability(loss: Loss, family: NeighborFamily, sched: Schedule,
                          domain: Optional[Ball], T: int) -> Tuple[float, float]:
    """Exact on-average stability for a fixed (S, ghost) by full enumeration.

    Averages over all n^T equally likely index sequences and all n neighbor
    positions.  Returns (l1, l2 squared).  Refuses n^T beyond the budget.
    """
    n = family.base.n
    M = n ** T
    if M > BRUTE_FORCE_MAX_SEQUENCES:
        raise ResourceLimitExceeded(
            f"enumeration needs {M} sequences; budget is {BRUTE_FORCE_MAX_SEQUENCES}")
    etas = sched.etas(T)
    post = _post_of(domain)
    seqs = _all_index_sequences(n, T)
    d = family.base.dim

    l1_seq = np.empty(M)
    l2_seq = np.empty(M)
    step = _chunk_size(n + 1, n)
    for lo in range(0, M, step):
        hi = min(lo + step, M)
        Rc = hi - lo
        out = _engine.run_core(
            loss,
            np.broadcast_to(family.base.features, (Rc, n, d)),
            np.broadcast_to(family.base.labels, (Rc, n)),
            np.broadcast_to(family.ghost.features, (Rc, n, d)),
            np.broadcast_to(family.ghost.labels, (Rc, n)),
            np.broadcast_to(np.arange(n, dtype=np.int64), (Rc, n)),
            etas, post, seqs[lo:hi],
            collect_averages=False,
        )
        norms = np.linalg.norm(out.finals[:, 1:] - out.finals[:, :1], axis=2)
        l1_seq[lo:hi] = norms.mean(axis=1)
        l2_seq[lo:hi] = (norms ** 2).mean(axis=1)
    return float(l1_seq.mean()), float(l2_seq.mean())


# ---------------------------------------------------------------------------
# uniform-stability proxy
# ---------------------------------------------------------------------------

def uniform_stability_proxy(loss: Loss, ds_a: Dataset, ds_b: Dataset, sched: Schedule,
                            domain: Optional[Ball], T: int,
                            eval_points: Sequence[Tuple[np.ndarray, float]],
                            replicates: int, master_seed: int) -> float:
    """max over eval points of |E[f(w; z) - f(w~; z)]| for one neighbor pair.

    ds_a and ds_b must differ in exactly one example.  Runs coupled pairs
    over ``replicates`` index streams.  With no eval points the proxy is 0
    (with a warning) — there is nothing to evaluate at.
    """
    if ds_a.features.shape != ds_b.features.shape:
        raise InvalidArgument("datasets must have identical shapes")
    differs = np.any(ds_a.features != ds_b.features, axis=1) | (ds_a.labels != ds_b.labels)
    where = np.nonzero(differs)[0]
    if where.shape[0] != 1:
        raise InvalidArgument(
            f"datasets must differ in exactly one example, found {where.shape[0]}")
    if len(eval_points) == 0:
        warnings.warn("uniform_stability_proxy called with no evaluation points; returning 0")
        return 0.0
    i = int(where[0])
    fam = NeighborFamily(base=ds_a, ghost=ds_b)
    n = ds_a.n
    etas = sched.etas(T)
    R = replicates
    finals_a = np.empty((R, ds_a.dim))
    finals_b = np.empty((R, ds_a.dim))

    def worker(lo, hi):
        Rc = hi - lo
        indices = np.vstack([_replicate_index_key(master_seed, r, n, T)
                             for r in range(lo, hi)])
        out = _engine.run_core(
            loss,
            np.broadcast_to(fam.base.features, (Rc, n, ds_a.dim)),
            np.broadcast_to(fam.base.labels, (Rc, n)),
            np.broadcast_to(fam.ghost.features, (Rc, n, ds_a.dim)),
            np.broadcast_to(fam.ghost.labels, (Rc, n)),
            np.full((Rc, 1), i, dtype=np.int64),
            etas, _post_of(domain), indices,
            collect_averages=False,
        )
        finals_a[lo:hi] = out.finals[:, 0]
        finals_b[lo:hi] = out.finals[:, 1]

    _run_chunks(worker, R, 2, n)

    worst = 0.0
    for x, y in eval_points:
        x = np.asarray(x, dtype=np.float64)
        va = loss.batch_value(finals_a, np.broadcast_to(x, finals_a.shape), np.full(R, y))
        vb = loss.batch_value(finals_b, np.broadcast_to(x, finals_b.shape), np.full(R, y))
        worst = max(worst, abs(float((va - vb).mean())))
    return worst


# ---------------------------------------------------------------------------
# generalization gap
# ---------------------------------------------------------------------------

def estimate_generalization_gap(loss: Loss, dist: Distribution, n: int, T: int,
                                sched: Schedule, domain: Optional[Ball],
                                replicates: int, mc_pop: int, master_seed: int,
                                output: Optional[str] = None,
                                threads: int = 1) -> GapReport:
    """Monte-Carlo E[F(w_out) - F_S(w_out)] and E[F(w_out) - F*].

    ``output`` selects the algorithm output: "final" (w_{T+1}),
    "avg_eta" (step-size-weighted average) or "avg_linear"
    ((t + t0 - 1)-weighted average); default is "avg_linear" for the
    strongly-convex schedule and "final" otherwise.  Excess risk is reported
    as NaN when no closed-form risk minimum exists for the (loss,
    distribution) pair.  ``threads`` is accepted for compatibility and has
    no effect.
    """
    if not replicates >= 2:
        raise InvalidArgument(f"need at least 2 replicates, got {replicates}")
    if output is None:
        output = "avg_linear" if sched.kind == "strongly_convex" else "final"
    if output not in ("final", "avg_eta", "avg_linear"):
        raise InvalidArgument(f"unknown output selector {output!r}")

    etas = sched.etas(T)
    post = _post_of(domain)
    R = replicates
    d = dist.dim
    outs = np.empty((R, d))
    emp = np.empty(R)

    def worker(lo, hi):
        Rc = hi - lo
        Xs = np.empty((Rc, n, d))
        ys = np.empty((Rc, n))
        for k, r in enumerate(range(lo, hi)):
            ds = sample_dataset(dist, n, _replicate_dataset_seed(master_seed, r))
            Xs[k], ys[k] = ds.features, ds.labels
        indices = np.vstack([_replicate_index_key(master_seed, r, n, T)
                             for r in range(lo, hi)])
        out = _engine.run_core(loss, Xs, ys, None, None, None, etas, post, indices,
                               t0=sched.t0, collect_averages=True)
        if output == "final":
            w = out.finals[:, 0]
        elif output == "avg_eta":
            w = out.avg_eta
        else:
            w = out.avg_lin
        outs[lo:hi] = w
        emp[lo:hi] = _engine._batch_empirical_risk(loss, w, Xs, ys)

    _run_chunks(worker, R, 1, n)
    return _gap_report(loss, dist, outs, emp, mc_pop, master_seed, output, n, T)


def gap_from_stability(loss: Loss, dist: Distribution, rep: StabilityReport,
                       mc_pop: int, master_seed: int) -> GapReport:
    """The generalization gap of the base runs of a stability estimate.

    Needs a report with recorded risks, from the ``master_seed`` it was
    estimated with; the output is w_{T+1}.  The result equals
    ``estimate_generalization_gap(..., output="final")`` on the same
    replicates, without running the trajectories again.
    """
    if rep.base_emp_risk is None:
        raise InvalidArgument("the stability report recorded no empirical risks")
    if not rep.config.replicates >= 2:
        raise InvalidArgument(f"need at least 2 replicates, got {rep.config.replicates}")
    return _gap_report(loss, dist, rep.base_finals, rep.base_emp_risk, mc_pop,
                       master_seed, "final", rep.n, rep.T)


def _gap_report(loss: Loss, dist: Distribution, outs: np.ndarray, emp: np.ndarray,
                mc_pop: int, master_seed: int, output: str, n: int, T: int
                ) -> GapReport:
    """F(w) - F_S(w) and F(w) - F* over the replicate outputs ``outs`` (R, d)."""
    R = outs.shape[0]
    seeds = [_engine.derive_seed(master_seed, _engine.TAG_POP, r) for r in range(R)]
    pop, _ = population_risk(loss, dist, outs, mc_samples=mc_pop, seed=seeds)
    gaps = pop - emp
    try:
        f_star, _ = population_risk_minimum(loss, dist)
        excess = pop - f_star
        excess_mean, excess_stderr = float(excess.mean()), _stderr(excess)
    except InvalidArgument:
        excess_mean, excess_stderr = float("nan"), float("nan")
    return GapReport(
        gap_mean=float(gaps.mean()), gap_stderr=_stderr(gaps),
        excess_mean=excess_mean, excess_stderr=excess_stderr,
        output=output, n=n, T=T, replicates=R,
    )


# ---------------------------------------------------------------------------
# without-replacement epochs
# ---------------------------------------------------------------------------

def estimate_epoch_stability_without_replacement(loss: Loss, dist: Distribution,
                                                 n: int, epochs: int, sched: Schedule,
                                                 config: CouplingConfig,
                                                 master_seed: int) -> StabilityReport:
    """On-average stability of epoch SGD (fresh shuffle per epoch, no projection).

    Couples base and neighbor runs through identical permutation streams and
    measures ||w_1^{K+1} - w^(i)_1^{K+1}|| averaged over positions and
    replicates, mirroring the with-replacement estimator.  K = 0 is legal
    and gives exactly 0 (both outputs are w_1 = 0).
    """
    if not epochs >= 0:
        raise InvalidArgument(f"epochs must be >= 0, got {epochs}")
    m = config.neighbor_subsample if config.neighbor_subsample is not None else n
    if m > n:
        raise InvalidArgument(f"neighbor_subsample {m} exceeds n = {n}")
    T = epochs * n
    etas = sched.etas(T)
    R = config.replicates
    d = dist.dim

    l1_vals = np.empty(R)
    l2_vals = np.empty(R)

    def worker(lo, hi):
        Rc = hi - lo
        Xs = np.empty((Rc, n, d))
        ys = np.empty((Rc, n))
        gXs = np.empty((Rc, n, d))
        gys = np.empty((Rc, n))
        for k, r in enumerate(range(lo, hi)):
            fam = sample_neighbor_family(dist, n, _replicate_dataset_seed(master_seed, r))
            Xs[k], ys[k] = fam.base.features, fam.base.labels
            gXs[k], gys[k] = fam.ghost.features, fam.ghost.labels
        if m == n:
            sub = np.broadcast_to(np.arange(n, dtype=np.int64), (Rc, n))
        else:
            sub = np.empty((Rc, m), dtype=np.int64)
            for k, r in enumerate(range(lo, hi)):
                rng = _engine.philox(_engine.derive_seed(master_seed, _engine.TAG_SUBSAMPLE, r))
                sub[k] = rng.permutation(n)[:m]
        indices = np.vstack([
            _engine.permutation_matrix(
                _engine.derive_seed(master_seed, _engine.TAG_PERM, r), n, epochs, 1)
            for r in range(lo, hi)])
        out = _engine.run_core(loss, Xs, ys, gXs, gys, sub, etas, None, indices,
                               collect_averages=False)
        norms = np.linalg.norm(out.finals[:, 1:] - out.finals[:, :1], axis=2)
        l1_vals[lo:hi] = norms.mean(axis=1)
        l2_vals[lo:hi] = (norms ** 2).mean(axis=1)

    _run_chunks(worker, R, 1 + m, n)

    return StabilityReport(
        l1_mean=float(l1_vals.mean()), l1_stderr=_stderr(l1_vals),
        l2_sq_mean=float(l2_vals.mean()), l2_sq_stderr=_stderr(l2_vals),
        risk_path=None, n=n, T=T, config=config,
    )
