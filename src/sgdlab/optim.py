"""Projected/proximal SGD runners, step-size schedules and domains.

The update is

    w_{t+1} = P( w_t - eta_t * df(w_t; z_{i_t}) ),   w_1 = 0,

with i_t drawn i.i.d. uniform from {1..n} (counter-based generator, so the
index stream is reproducible from a single stored seed), and P either the
identity, the Euclidean projection onto a centered ball, or a proximal step
of an l1/l2 regularizer.  Without-replacement epochs reshuffle the dataset
each epoch (Fisher-Yates) and chain epochs by warm start.

All runners are deterministic given their seed: same seed, same platform,
bitwise-identical trajectories.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import _engine
from .errors import InvalidArgument
from .losses import Loss

# ---------------------------------------------------------------------------
# domains and regularizers
# ---------------------------------------------------------------------------


class Ball(NamedTuple("Ball", [("radius", float)])):
    """Centered Euclidean ball {w : ||w||_2 <= radius}."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace runs the checks too

    def __new__(cls, radius: float):
        if not radius > 0.0:
            raise InvalidArgument(f"ball radius must be positive, got {radius}")
        return super().__new__(cls, radius)


class Regularizer(NamedTuple("Regularizer", [("kind", str), ("strength", float)])):
    """Penalty lam * ||w||_1 or (lam/2) * ||w||_2^2, applied proximally."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace runs the checks too

    def __new__(cls, kind: str, strength: float):
        if kind not in ("l1", "l2"):
            raise InvalidArgument(f"regularizer kind must be 'l1' or 'l2', got {kind!r}")
        if not strength >= 0.0:
            raise InvalidArgument(f"regularizer strength must be nonnegative, got {strength}")
        return super().__new__(cls, kind, strength)


# ---------------------------------------------------------------------------
# step-size schedules
# ---------------------------------------------------------------------------

class Schedule:
    """Base class.  ``etas(T)`` returns the step sizes (eta_1 .. eta_T).

    Schedules are nonincreasing in t by construction (validated parameters).
    A horizon-tied schedule is a rule in T: its one step size is computed
    from the T that ``etas`` is given, so one object serves runs of any length.
    Each schedule is an immutable record of its parameters, a NamedTuple
    subclass that checks them in ``__new__``; ``kind`` is a class attribute.
    """

    __slots__ = ()
    kind: str = "abstract"
    #: offset used by the linearly-weighted iterate average (weight t + t0 - 1)
    t0: int = 1

    def etas(self, T: int) -> np.ndarray:
        raise NotImplementedError

    def _check_T(self, T: int) -> None:
        # T = 0 is legal (an empty schedule): estimators treat a zero-step
        # run as the degenerate w = w_1 = 0 case.
        if not (isinstance(T, (int, np.integer)) and T >= 0):
            raise InvalidArgument(f"step count T must be a nonnegative integer, got {T}")


class FixedConstant(NamedTuple("FixedConstant", [("eta1", float)]), Schedule):
    """eta_t = eta1 for every step."""

    __slots__ = ()
    kind = "fixed_constant"
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace runs the checks too

    def __new__(cls, eta1: float):
        if not eta1 > 0.0:
            raise InvalidArgument(f"step size must be positive, got {eta1}")
        return super().__new__(cls, eta1)

    def etas(self, T):
        self._check_T(T)
        return np.full(T, self.eta1, dtype=np.float64)


class HorizonConstant(NamedTuple("HorizonConstant", [("c", float)]), Schedule):
    """eta_t = c / sqrt(T), constant over a run of T steps."""

    __slots__ = ()
    kind = "horizon_constant"
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace runs the checks too

    def __new__(cls, c: float):
        if not c > 0.0:
            raise InvalidArgument(f"c must be positive, got {c}")
        return super().__new__(cls, c)

    def etas(self, T):
        self._check_T(T)
        # an empty run has no step to size; max keeps sqrt(0) out of the divisor
        return np.full(T, self.c / math.sqrt(max(T, 1)), dtype=np.float64)


class HorizonPoly(NamedTuple("HorizonPoly", [("c", float), ("theta", float)]), Schedule):
    """eta_t = c * T^(-theta), constant over a run of T steps."""

    __slots__ = ()
    kind = "horizon_poly"
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace runs the checks too

    def __new__(cls, c: float, theta: float):
        if not c > 0.0:
            raise InvalidArgument(f"c must be positive, got {c}")
        if not 0.0 <= theta <= 1.0:
            raise InvalidArgument(f"theta must be in [0, 1], got {theta}")
        return super().__new__(cls, c, theta)

    def etas(self, T):
        self._check_T(T)
        # as above: 0 ** -theta raises, and an empty run needs no step size
        return np.full(T, self.c * max(T, 1) ** (-self.theta), dtype=np.float64)


class PolyDecay(NamedTuple("PolyDecay", [("eta1", float), ("theta", float)]), Schedule):
    """eta_t = eta1 * t^(-theta)."""

    __slots__ = ()
    kind = "poly_decay"
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace runs the checks too

    def __new__(cls, eta1: float, theta: float):
        if not eta1 > 0.0:
            raise InvalidArgument(f"eta1 must be positive, got {eta1}")
        if not 0.0 <= theta <= 1.0:
            raise InvalidArgument(f"theta must be in [0, 1], got {theta}")
        return super().__new__(cls, eta1, theta)

    def etas(self, T):
        self._check_T(T)
        t = np.arange(1, T + 1, dtype=np.float64)
        return self.eta1 * t ** (-self.theta)


class StronglyConvexDecay(NamedTuple("StronglyConvexDecay", [("sigma", float), ("t0", int)]),
                          Schedule):
    """eta_t = 2 / ((t + t0) * sigma), the strongly-convex prescription."""

    __slots__ = ()
    kind = "strongly_convex"
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace runs the checks too

    def __new__(cls, sigma: float, t0: int):
        if not sigma > 0.0:
            raise InvalidArgument(f"sigma must be positive, got {sigma}")
        if not t0 >= 0:
            raise InvalidArgument(f"t0 must be a nonnegative integer, got {t0}")
        return super().__new__(cls, sigma, t0)

    def etas(self, T):
        self._check_T(T)
        t = np.arange(1, T + 1, dtype=np.float64)
        return 2.0 / ((t + self.t0) * self.sigma)


def t0_for_strong_convexity(L: float, sigma: float) -> int:
    """Smallest safe iteration offset ceil(4 L^2 / sigma^2) for the decay above;
    the ratio must be a finite float (sigma^2 must not underflow to 0)."""
    ratio = 4.0 * L * L / (sigma * sigma) if sigma * sigma > 0.0 else math.inf
    if not (L > 0.0 and sigma > 0.0 and math.isfinite(ratio)):
        raise InvalidArgument(f"L and sigma must be positive and 4 L^2 / sigma^2 finite, "
                              f"got L = {L:.6g}, sigma = {sigma:.6g}")
    return int(math.ceil(ratio))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

class Trajectory(NamedTuple):
    """Record of one SGD run.

    ``iterates`` holds w_t for the recorded steps t (``iterate_steps``; always
    includes t = 1 and the output step T + 1).  ``avg_eta`` is the
    step-size-weighted average of w_1..w_T, ``avg_linear`` the
    (t + t0 - 1)-weighted one.  ``per_step_risk[t-1]`` is f(w_t; z_{i_t}),
    the loss at the example the step actually drew, before the update.
    ``index_sequence_seed`` fully determines the index stream.
    """

    iterates: np.ndarray        # (K, d)
    iterate_steps: np.ndarray   # (K,) 1-based step numbers
    final: np.ndarray           # (d,) = w_{T+1}
    avg_eta: np.ndarray         # (d,)
    avg_linear: np.ndarray      # (d,)
    per_step_risk: np.ndarray   # (T,)
    index_sequence_seed: int


def _index_seed(rng_seed: int) -> int:
    return _engine.derive_seed(rng_seed, _engine.TAG_INDEX)


def _index_stream(rng_seed: int) -> np.random.Generator:
    """The generator of the index stream that ``_index_seed`` names."""
    return _engine.path_generator(rng_seed, _engine.TAG_INDEX)


def _dataset_arrays(dataset) -> Tuple[np.ndarray, np.ndarray]:
    features = np.asarray(dataset.features, dtype=np.float64)
    if features.shape[0] < 1:
        raise InvalidArgument("dataset must contain at least one example")
    return features, np.asarray(dataset.labels, dtype=np.float64)


def _run(loss: Loss, features: np.ndarray, labels: np.ndarray, sched: Schedule,
         domain: Optional[Ball], reg: Optional[Regularizer], seed: int,
         indices: _engine.IndexStream, record_every: int) -> Trajectory:
    """One trajectory along the stream ``indices`` of one replicate, drawn
    from index seed ``seed`` and read in chunks of ``_engine.STREAM_STEPS``.

    A plain loop over the steps of one (1, d) row.  Each step is one call of
    the engine's step kernel, ``Loss.descend``, then the prox of ``reg``, and
    the averages do the engine's arithmetic, so without a regularizer
    ``final`` and the averages equal those of ``_engine.run_core`` bit for bit.
    """
    if not record_every >= 1:
        raise InvalidArgument(f"record_every must be >= 1, got {record_every}")
    T = indices.shape[1]
    etas = sched.etas(T)
    lin = _engine.linear_weights(T, sched.t0)
    # the output iterate is always recorded
    rec_steps = np.append(np.arange(1, T + 1, record_every, dtype=np.int64), T + 1)
    iterates = np.empty((rec_steps.shape[0], features.shape[1]))
    per_step_risk = np.empty(T)
    w = np.zeros((1, features.shape[1]))
    acc_eta = np.zeros_like(w)
    acc_lin = np.zeros_like(w)
    radius = None if domain is None else domain.radius
    stream = (i for _, ids in indices.chunks(_engine.STREAM_STEPS) for i in ids[0].tolist())
    for t, (i, eta, lw) in enumerate(zip(stream, etas.tolist(), lin.tolist())):
        if t % record_every == 0:
            iterates[t // record_every] = w[0]
        x, y = features[i:i + 1], labels[i:i + 1]
        per_step_risk[t] = loss.batch_value(w, x, y)[0]
        acc_eta += eta * w
        acc_lin += lw * w
        loss.descend((w, w), x[None], y[None], (eta,), radius)
        if reg is not None and reg.kind == "l2":
            w *= 1.0 / (1.0 + eta * reg.strength)
        elif reg is not None:
            np.multiply(np.sign(w), np.maximum(np.abs(w) - eta * reg.strength, 0.0), out=w)
    iterates[-1] = w[0]
    return Trajectory(
        iterates=iterates,
        iterate_steps=rec_steps,
        final=w[0],
        avg_eta=_engine.weighted_average(acc_eta[0], etas),
        avg_linear=_engine.weighted_average(acc_lin[0], lin),
        per_step_risk=per_step_risk,
        index_sequence_seed=int(seed),
    )


def _iid_run(loss: Loss, dataset, sched: Schedule, domain: Optional[Ball],
             reg: Optional[Regularizer], T: int, rng_seed: int,
             record_every: int) -> Trajectory:
    # T steps on indices drawn i.i.d. uniform from the n examples
    if not T >= 1:
        raise InvalidArgument(f"T must be >= 1, got {T}")
    features, labels = _dataset_arrays(dataset)
    indices = _engine.iid_stream([_index_stream(rng_seed)], features.shape[0], T)
    return _run(loss, features, labels, sched, domain, reg, _index_seed(rng_seed),
                indices, record_every)


def sgd_run(loss: Loss, dataset, sched: Schedule, domain: Optional[Ball],
            T: int, rng_seed: int, record_every: int = 1) -> Trajectory:
    """Projected SGD from w_1 = 0 for T steps on the given dataset.

    ``dataset`` is any object with ``features`` (n, d) and ``labels`` (n,).
    """
    return _iid_run(loss, dataset, sched, domain, None, T, rng_seed, record_every)


def spgd_run(loss: Loss, reg: Optional[Regularizer], dataset, sched: Schedule,
             T: int, rng_seed: int, record_every: int = 1) -> Trajectory:
    """Stochastic proximal gradient: gradient step, then prox of the penalty.

    With ``reg is None`` this is, bit for bit, the same computation as
    ``sgd_run`` without a domain (identical code path and index stream).
    """
    return _iid_run(loss, dataset, sched, None, reg, T, rng_seed, record_every)


def sgd_without_replacement_run(loss: Loss, dataset, sched: Schedule, epochs: int,
                                rng_seed: int) -> Trajectory:
    """Epoch SGD: a fresh uniform permutation each epoch, warm-started chaining.

    Runs ``epochs`` passes of n steps each (T = epochs * n total).  No
    projection is applied.  Step sizes are indexed by the global step count.
    """
    if not epochs >= 1:
        raise InvalidArgument(f"epochs must be >= 1, got {epochs}")
    features, labels = _dataset_arrays(dataset)
    n = features.shape[0]
    indices = _engine.epoch_stream([_index_stream(rng_seed)], n, epochs * n)
    return _run(loss, features, labels, sched, None, None, _index_seed(rng_seed), indices,
                record_every=n)
