"""Per-example losses, their subgradients, and gradient-regularity checkers.

Every loss here is a function ``f(w; z)`` of a parameter vector ``w`` and a
single example ``z = (x, y)``.  The common structural assumption is Hölder
continuity of the subgradient,

    || df(w; z) - df(w'; z) || <= L * ||w - w'||^alpha ,   alpha in [0, 1],

with ``alpha = 1`` the smooth case and ``alpha = 0`` the bounded-subgradient
(Lipschitz loss) case.  ``regularity_constants`` turns ``(alpha, L)`` into the
derived constants c1/c2/c3 used by the stability bounds, ``support_constants``
gives every constant a bound is stated in as a sup over a distribution's
support, and the ``check_*`` functions verify lemma-level inequalities on
concrete points to the tolerance ``DEFAULT_TOL``.
The checkers, ``holder_constant`` and ``grad_norm_at_zero`` take rows:
features X (B, d) and labels y (B,), with one value per row.  What each
checker needs of the loss is stated once, in ``CHECK_PRECONDITIONS``.

Batch variants (``batch_value`` / ``batch_grad``) evaluate one example per row
for a whole family of parameter rows at once.  ``batch_value`` also takes
leading dimensions that broadcast (W of shape (R, c, 1, d) against X of
shape (R, 1, n, d), say), and gives each entry the bits of the same row in a
flat (rows, d) call.  Both give the same bits whatever the memory order of W
and X: every row dot goes through ``_rowdot``.

The trajectory engine steps through ``descend``, one call per block of
steps, and so do the single-trajectory runners of ``optim``, one call per
step: ws[j + 1] = P(ws[j] - etas[j] * batch_grad(ws[j], X[j], y[j])), with P
the projection onto a centered ball (``project_rows``) or the identity.  The
base class runs exactly that loop, so every loss has the kernel.  Least
squares overrides it with a loop over two buffers allocated once per call,
five numpy calls and no allocation per step, and the same bits.

``risk_evaluator`` gives the empirical risk F_S of many iterates on each
replicate's own dataset, as the engine records it at checkpoints.  By
default it is the mean of ``batch_value`` over the n examples, O(n d) per
iterate.  Least squares instead factors [X | y] = Q R once per replicate and
takes F_S(w) = ||R [w; -1]||^2 / (2n), O(d^2) per iterate: a sum of squares,
so never negative, with no cancellation of y'y against the other terms.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

try:  # the kernel behind np.einsum(..., optimize=False), without its dispatch
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as _einsum

from .errors import InvalidArgument, PreconditionViolation

#: the checkers' tolerance: absolute plus relative to the dominant term
DEFAULT_TOL = 1e-9
#: (iterate, example) pairs per evaluation of the generic ``risk_evaluator``,
#: c * R * n <= this for c iterates of R replicates on n examples (least
#: squares evaluates from its QR factors and needs no bound)
RISK_EXAMPLES = 2 ** 14


# ---------------------------------------------------------------------------
# rows
# ---------------------------------------------------------------------------

def _batch(X: np.ndarray, y: np.ndarray, *ws):
    """(X, y, *W) as float64 rows, each w broadcast to the rows of X (B, d)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidArgument(f"features must be rows of shape (B, d), got shape {X.shape}")
    Y = np.broadcast_to(np.asarray(y, dtype=np.float64), X.shape[:1])
    return (X, Y) + tuple(np.broadcast_to(np.asarray(w, dtype=np.float64), X.shape)
                          for w in ws)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> over the last axis; leading axes broadcast.

    ``einsum`` rounds a row by one kernel when both last axes are contiguous
    and by another when one is not, so such an operand is copied first.
    Any other view, a broadcast one included, is used as it is.  This runs
    once per engine step, so it calls einsum's kernel directly: the
    ``np.einsum`` wrapper adds about 1 us of dispatch per call, more than a
    small step's row dot costs.
    """
    if a.strides[-1] != a.itemsize:
        a = np.ascontiguousarray(a)
    if b.strides[-1] != b.itemsize:
        b = np.ascontiguousarray(b)
    return _einsum("...d,...d->...", a, b)


def project_rows(W: np.ndarray, radius: float) -> None:
    """Project each row of W onto the centered ball of ``radius``, in place."""
    nrm = np.linalg.norm(W, axis=1)
    over = nrm > radius
    if np.any(over):
        W[over] *= (radius / nrm[over])[:, None]


# ---------------------------------------------------------------------------
# loss classes
# ---------------------------------------------------------------------------

class Loss:
    """Base class.  Subclasses define value/gradient and regularity metadata.

    Attributes
    ----------
    kind : str
        Stable machine name, also used in harness config files.
    alpha : float
        Hölder exponent of the subgradient map, in [0, 1].
    convex_per_example : bool
        Whether w -> f(w; z) is convex for every fixed example.
    nonnegative : bool
        Whether f(w; z) >= 0 for all inputs (needed by the self-bounding
        inequality).
    binary_labels : bool
        Whether the labels are classes in {-1, +1}, not real responses.
    """

    kind: str = "abstract"
    alpha: float = 1.0
    convex_per_example: bool = True
    nonnegative: bool = True
    binary_labels: bool = False

    def batch_value(self, W: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """f(w; (x, y)) over the last axis of W and X; leading axes broadcast."""
        raise NotImplementedError

    def batch_grad(self, W: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """df(w; (x, y)) of each row: W, X of shape (rows, d), y of shape (rows,).

        Returns a new (rows, d) array; row k is the (sub)gradient of row k of
        W at the example in row k of X and y.
        """
        raise NotImplementedError

    def descend(self, ws, X: np.ndarray, y: np.ndarray, etas, radius: Optional[float]) -> None:
        """Projected gradient steps: ws[j + 1] = P(ws[j] - etas[j] * df(ws[j])).

        ws is a sequence of len(etas) + 1 arrays of shape (rows, d); step j
        reads ws[j] and writes ws[j + 1], at the examples X[j] and y[j] of
        the arrays X (steps, rows, d) and y (steps, rows).  Entries of ws may
        be the same array, which then steps in place.  etas[j] is a float, or a (rows, 1) array of per-row steps.
        P projects each row onto the centered ball of ``radius``, or is the
        identity when ``radius`` is None.  Each step has the bits of
        ``w - eta * batch_grad(w, x, y)`` followed by ``project_rows``.
        """
        for eta, x, yj, w, nxt in zip(etas, X, y, ws, ws[1:]):
            np.subtract(w, eta * self.batch_grad(w, x, yj), out=nxt)
            if radius is not None:
                project_rows(nxt, radius)

    def risk_evaluator(self, Xs: np.ndarray, ys: np.ndarray):
        """The empirical risk on each replicate's dataset, as a function of iterates.

        Xs, ys are (R, n, d), (R, n) (broadcast views are fine).  Returns a
        function mapping (R, c, d) iterates to their (R, c) risks F_S(w), the
        mean of ``batch_value`` over the n examples, evaluated on at most
        ``RISK_EXAMPLES`` (iterate, example) pairs at once.  An entry has the
        bits of a call with its replicate alone and one iterate, whatever the
        memory order of the iterates.
        """
        R, n = ys.shape
        chunk = max(1, RISK_EXAMPLES // (R * n))

        def risks(W: np.ndarray) -> np.ndarray:
            out = np.empty(W.shape[:2])
            for c in range(0, W.shape[1], chunk):
                vals = self.batch_value(W[:, c:c + chunk, None], Xs[:, None], ys[:, None])
                out[:, c:c + chunk] = vals.mean(axis=2)
            return out

        return risks

    def holder_constant(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """A valid Hölder constant of w -> df(w; (x, y)) for each row of X (B, d)
        and y (B,)."""
        raise NotImplementedError

    def grad_norm_at_zero(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """||df(0; z)|| of each row, the g0 ingredient of c1 in the alpha = 0 case."""
        X, Y = _batch(X, y)
        return np.linalg.norm(self.batch_grad(np.zeros_like(X), X, Y), axis=1)


class LeastSquares(Loss):
    """Squared error ``f(w; (x, y)) = 0.5 * (<w, x> - y)^2``.

    Smooth (alpha = 1) and convex; per-example smoothness constant ||x||^2.
    """

    kind = "least_squares"
    alpha = 1.0
    convex_per_example = True
    nonnegative = True

    def batch_value(self, W, X, y):
        r = _rowdot(W, X) - y
        return 0.5 * r * r

    def batch_grad(self, W, X, y):
        r = _rowdot(W, X) - y
        return r[:, None] * X

    def descend(self, ws, X, y, etas, radius):
        # batch_grad's arithmetic into buffers held for the call; an operand
        # whose rows ``_rowdot`` would copy first goes the generic way instead
        if any(a.strides[-1] != a.itemsize for a in (X, *ws)):
            return super().descend(ws, X, y, etas, radius)
        r = np.empty(ws[0].shape[0])
        g = np.empty(ws[0].shape)
        rc = r[:, None]
        for eta, x, yj, w, nxt in zip(etas, X, y, ws, ws[1:]):
            _einsum("...d,...d->...", w, x, out=r)
            np.subtract(r, yj, out=r)
            np.multiply(rc, x, out=g)
            np.multiply(g, eta, out=g)
            np.subtract(w, g, out=nxt)
            if radius is not None:
                project_rows(nxt, radius)

    def risk_evaluator(self, Xs, ys):
        """F_S(w) = ||R [w; -1]||^2 / (2n), with R the triangular factor of [X | y].

        [X | y] = Q R, so ||[X | y] [w; -1]|| = ||R [w; -1]||.  One QR per
        replicate costs O(n d^2); each iterate then costs O(d^2), not O(n d),
        and needs no chunking.

        The contractions are row dots (``_rowdot``), not a BLAS matmul, which
        rounds a row differently depending on the batch it sits in.
        """
        R, n, d = Xs.shape
        # filled in C order, not concatenated: the factor takes the memory
        # order of its input, and ``_rowdot`` would copy a factor whose last
        # axis is not contiguous at every checkpoint
        Xy = np.empty((R, n, d + 1))
        Xy[..., :d] = Xs
        Xy[..., d] = ys
        Rf = np.linalg.qr(Xy, mode="r")
        A, b = Rf[..., :d], Rf[..., d]

        def risks(W):
            v = _rowdot(A[:, None], W[:, :, None]) - b[:, None]
            return _rowdot(v, v) / (2 * n)

        return risks

    def holder_constant(self, X, y):
        X, _ = _batch(X, y)
        return _rowdot(X, X)


class QNormHinge(Loss):
    """Hinge raised to the q-th power: ``f(w; (x, y)) = max(0, 1 - y <w, x>)^q``.

    q in [1, 2]; y in {-1, +1}.  alpha = q - 1.  At q = 1 the loss has a kink
    at margin exactly 1; the subgradient there is taken to be the zero vector
    (a valid element of the subdifferential, and deterministic).
    """

    kind = "q_hinge"
    convex_per_example = True
    nonnegative = True
    binary_labels = True

    def __init__(self, q: float):
        if not 1.0 <= q <= 2.0:
            raise InvalidArgument(f"hinge exponent q must be in [1, 2], got {q}")
        self.q = float(q)
        self.alpha = self.q - 1.0

    def batch_value(self, W, X, y):
        slack = 1.0 - y * _rowdot(W, X)
        return np.maximum(slack, 0.0) ** self.q

    def batch_grad(self, W, X, y):
        slack = 1.0 - y * _rowdot(W, X)
        if self.q == 1.0:
            # -y on the active rows and -(y * 0.0) on the others: the bits,
            # signed zeros included, of the general formula below at q = 1
            return (-(y * (slack > 0.0)))[:, None] * X
        active = slack > 0.0  # kink at slack == 0 resolves to the zero vector
        coef = np.where(active, self.q * np.maximum(slack, 0.0) ** (self.q - 1.0), 0.0)
        return (-coef * y)[:, None] * X

    def holder_constant(self, X, y):
        # one-sided clipping of the margin is 1-Lipschitz, so the textbook
        # constant q * ||x||^q is valid (and tight as the margin crosses 1)
        X, _ = _batch(X, y)
        return self.q * np.linalg.norm(X, axis=1) ** self.q


class QPowerAbsolute(Loss):
    """q-th power of the absolute residual: ``f(w; (x, y)) = |y - <w, x>|^q``.

    q in [1, 2]; alpha = q - 1.  At residual exactly 0 the subgradient is the
    zero vector.  Unlike the hinge, the residual is two-sided, so the sharp
    Hölder constant carries an extra factor 2^(2-q) (equality is approached as
    the residual flips sign, from |sgn(a)|a|^b - sgn(b)|b|^b| <= 2^(1-b)|a-b|^b
    with b = q - 1, tight at a = -b).  At q = 2 this reduces to the exact
    smoothness constant 2 ||x||^2.
    """

    kind = "q_power_abs"
    convex_per_example = True
    nonnegative = True

    def __init__(self, q: float):
        if not 1.0 <= q <= 2.0:
            raise InvalidArgument(f"power exponent q must be in [1, 2], got {q}")
        self.q = float(q)
        self.alpha = self.q - 1.0

    def batch_value(self, W, X, y):
        r = y - _rowdot(W, X)
        return np.abs(r) ** self.q

    def batch_grad(self, W, X, y):
        r = y - _rowdot(W, X)
        coef = np.where(r != 0.0, self.q * np.sign(r) * np.abs(r) ** (self.q - 1.0), 0.0)
        return (-coef)[:, None] * X

    def holder_constant(self, X, y):
        X, _ = _batch(X, y)
        return 2.0 ** (2.0 - self.q) * self.q * np.linalg.norm(X, axis=1) ** self.q


class AucSquare(Loss):
    """Single-example surrogate for the pairwise AUC square objective.

    Parameterized by the positive-class probability ``p`` and the conditional
    feature means ``mu_plus = E[X | Y = +1]``, ``mu_minus = E[X | Y = -1]``.
    With kappa(y) = p * 1[y = -1] - (1 - p) * 1[y = +1] and
    D = mu_minus - mu_plus,

        f(w; (x, y)) = (1 - p) * (<w, x - mu_plus>)^2 * 1[y = +1]
                       + p * (<w, x - mu_minus>)^2 * 1[y = -1]
                       + p * (1 - p)
                       + 2 * (1 + <w, D>) * <w, x> * kappa(y)
                       - p * (1 - p) * <w, D>^2 .

    Its expectation over a fresh example equals the population AUC-square
    objective for every w, even though each individual f(.; z) is a
    (possibly indefinite) quadratic -- hence ``convex_per_example = False``
    and the loss may take negative values.
    """

    kind = "auc_square"
    alpha = 1.0
    convex_per_example = False
    nonnegative = False
    binary_labels = True

    def __init__(self, p: float, mu_plus: np.ndarray, mu_minus: np.ndarray):
        if not 0.0 < p < 1.0:
            raise InvalidArgument(f"positive-class probability must be in (0, 1), got {p}")
        self.p = float(p)
        self.mu_plus = np.asarray(mu_plus, dtype=np.float64)
        self.mu_minus = np.asarray(mu_minus, dtype=np.float64)
        if self.mu_plus.shape != self.mu_minus.shape or self.mu_plus.ndim != 1:
            raise InvalidArgument("mu_plus and mu_minus must be 1-d arrays of equal length")
        self.diff = self.mu_minus - self.mu_plus  # D

    def _kappa(self, y: np.ndarray) -> np.ndarray:
        return np.where(y < 0.0, self.p, -(1.0 - self.p))

    def batch_value(self, W, X, y):
        p = self.p
        u = _rowdot(W, X)  # <w, x>
        # a row-wise dot: BLAS (W @ D) rounds a row differently depending
        # on how many rows the batch holds and where the row sits in it
        s = _rowdot(W, self.diff)  # <w, D>
        pos = y > 0.0
        a = _rowdot(W, X - self.mu_plus)
        b = _rowdot(W, X - self.mu_minus)
        out = p * (1.0 - p) + 2.0 * (1.0 + s) * u * self._kappa(y) - p * (1.0 - p) * s * s
        out = out + np.where(pos, (1.0 - p) * a * a, p * b * b)
        return out

    def batch_grad(self, W, X, y):
        p = self.p
        u = _rowdot(W, X)
        s = _rowdot(W, self.diff)
        kap = self._kappa(y)
        pos = (y > 0.0)[:, None]
        a = _rowdot(W, X - self.mu_plus)
        b = _rowdot(W, X - self.mu_minus)
        grad = 2.0 * kap[:, None] * ((1.0 + s)[:, None] * X + u[:, None] * self.diff[None, :])
        grad = grad - (2.0 * p * (1.0 - p) * s)[:, None] * self.diff[None, :]
        grad = grad + np.where(
            pos,
            (2.0 * (1.0 - p) * a)[:, None] * (X - self.mu_plus),
            (2.0 * p * b)[:, None] * (X - self.mu_minus),
        )
        return grad

    def holder_constant(self, X, y):
        # f(.; z) is an exact quadratic; bound the spectral norm of its
        # (constant) Hessian by the triangle inequality over its four terms
        X, Y = _batch(X, y)
        p = self.p
        nx = np.linalg.norm(X, axis=1)
        nD = float(np.linalg.norm(self.diff))
        kap = np.where(Y < 0.0, p, 1.0 - p)
        quad = np.where(Y > 0.0,
                        2.0 * (1.0 - p) * np.linalg.norm(X - self.mu_plus, axis=1) ** 2,
                        2.0 * p * np.linalg.norm(X - self.mu_minus, axis=1) ** 2)
        return quad + 4.0 * kap * nx * nD + 2.0 * p * (1.0 - p) * nD * nD


# ---------------------------------------------------------------------------
# regularity constants
# ---------------------------------------------------------------------------

class RegularityConstants(NamedTuple):
    """Constants derived from the Hölder regularity (alpha, L) of a loss.

    c1 controls the self-bounding inequality ||df(w)|| <= c1 * f(w)^(a/(1+a)).
    c2 and c3 control the expansiveness slack of a gradient step; both are
    undefined (None) at alpha = 1 where their defining exponents diverge.
    """

    c1: float
    c2: Optional[float]
    c3: Optional[float]


def regularity_constants(alpha: float, L: float, g0: Optional[float] = None) -> RegularityConstants:
    """Compute (c1, c2, c3) from the Hölder exponent and constant.

    Parameters
    ----------
    alpha : float in [0, 1]
    L : float > 0
        Hölder constant of the subgradient map.
    g0 : float >= 0, required iff alpha == 0
        A bound on ||df(0; z)||; enters c1 only in the alpha = 0 case.

    L and g0 may also be arrays of per-example constants; c1, c2 and c3 are
    then arrays of the same shape.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InvalidArgument(f"alpha must lie in [0, 1], got {alpha}")
    if not np.all(np.asarray(L) > 0.0):
        raise InvalidArgument(f"L must be positive, got {L}")
    if alpha == 0.0:
        if g0 is None:
            raise InvalidArgument("g0 is required at alpha = 0")
        if np.any(np.asarray(g0) < 0.0):
            raise InvalidArgument(f"g0 must be nonnegative, got {g0}")
        c1 = g0 + L
    else:
        c1 = (1.0 + 1.0 / alpha) ** (alpha / (1.0 + alpha)) * L ** (1.0 / (1.0 + alpha))

    if alpha == 1.0:
        c2 = None
        c3 = None
    elif alpha == 0.0:
        c2 = c1 * c1
        c3 = L  # sqrt((1-a)/(1+a)) * (2^-a L)^(1/(1-a)) at a = 0
    else:
        c2 = ((1.0 - alpha) / (1.0 + alpha)) \
            * (2.0 * alpha / (1.0 + alpha)) ** (2.0 * alpha / (1.0 - alpha)) \
            * c1 ** ((2.0 + 2.0 * alpha) / (1.0 - alpha))
        c3 = math.sqrt((1.0 - alpha) / (1.0 + alpha)) \
            * (2.0 ** (-alpha) * L) ** (1.0 / (1.0 - alpha))
    return RegularityConstants(c1=c1, c2=c2, c3=c3)


class SupportConstants(NamedTuple):
    """The constants of a loss on a distribution's support, w in a domain.

    L and g0 are the sups over the support of ``holder_constant`` and of
    ||df(0; z)||; c1 and c3 follow from (alpha, L, g0) by
    ``regularity_constants`` (c3 is None at alpha = 1); G bounds
    ||df(w; z)|| over the domain and the support, and is None where the
    gradient is unbounded.
    """

    L: float
    g0: float
    c1: float
    c3: Optional[float]
    G: Optional[float]


def support_constants(loss: Loss, dist, domain=None) -> SupportConstants:
    """The ``SupportConstants`` of ``loss`` on ``dist``, w in ``domain``.

    The support is ||x|| <= dist.x_bound with |y| <= dist.y_bound, or y = +-1
    for a loss with binary labels; ``domain`` is a centered ball (its
    ``radius``), or None for all of R^d.  The probe x = x_bound e_1 reaches
    each sup that depends on ||x|| and |y| only.  The AUC surrogate's
    constant grows with ||x - mu_y||, which is largest at
    x = -x_bound mu_y / ||mu_y||, where it is x_bound + ||mu_y||.
    """
    if not loss.binary_labels and dist.y_bound is None:
        raise InvalidArgument(f"the {loss.kind} loss needs a bound on |y|")
    ys = (1.0, -1.0) if loss.binary_labels else (dist.y_bound,)
    X, r = dist.x_bound, None if domain is None else domain.radius
    probe = np.zeros((len(ys), dist.dim))   # x = x_bound e_1, once with each label
    probe[:, 0] = X
    g0 = float(loss.grad_norm_at_zero(probe, ys).max())
    G = None
    if isinstance(loss, AucSquare):
        # per label: ||df(w)|| <= ||df(0)|| + L_y ||w||, with df(0; z) = 2 kappa(y) x
        p, nD = loss.p, float(np.linalg.norm(loss.diff))
        per_label = [(2.0 * k * X, 2.0 * k * (X + float(np.linalg.norm(mu))) ** 2
                      + 4.0 * k * X * nD + 2.0 * p * (1.0 - p) * nD * nD)
                     for k, mu in ((1.0 - p, loss.mu_plus), (p, loss.mu_minus))]
        L = max(L_y for _, L_y in per_label)
        if r is not None:
            G = max(g0_y + L_y * r for g0_y, L_y in per_label)
    else:
        L = float(loss.holder_constant(probe, ys).max())
        if isinstance(loss, LeastSquares) and r is not None:
            G = (r * X + ys[0]) * X
        elif isinstance(loss, (QNormHinge, QPowerAbsolute)):
            # ||df(w; z)|| = q s^(q - 1) ||x||, s = the slack or |residual| <= |y| + ||w|| ||x||
            if loss.q == 1.0:
                G = X
            elif r is not None:
                G = loss.q * (ys[0] + r * X) ** (loss.q - 1.0) * X
    c = regularity_constants(loss.alpha, L, g0)
    return SupportConstants(L=L, g0=g0, c1=c.c1, c3=c.c3, G=G)


# ---------------------------------------------------------------------------
# inequality checkers
#
# Each checker takes rows, features X (B, d) and labels y (B,), broadcasts w,
# w2 and eta against them and returns one bool per row.  A loss that misses
# the checker's entry in CHECK_PRECONDITIONS raises PreconditionViolation,
# and so does a step past 2/L on any row of the non-expansiveness check.
# ---------------------------------------------------------------------------

#: checker name -> (what it needs of the loss, whether a loss meets that), in
#: the order the properties battery runs the checkers
CHECK_PRECONDITIONS = {
    "self_bounding": ("a nonnegative loss", lambda loss: loss.nonnegative),
    "gradient_monotonicity": ("a convex loss", lambda loss: loss.convex_per_example),
    "cocoercivity": ("a convex loss", lambda loss: loss.convex_per_example),
    "nonexpansive": ("a convex smooth loss",
                     lambda loss: loss.convex_per_example and loss.alpha == 1.0),
    "expansiveness_slack": ("a convex loss with alpha < 1",
                            lambda loss: loss.convex_per_example and loss.alpha < 1.0),
    "smoothness_upper_bound": ("a smooth loss (alpha = 1)", lambda loss: loss.alpha == 1.0),
}


def _require(name: str, loss: Loss) -> None:
    need, holds = CHECK_PRECONDITIONS[name]
    if not holds(loss):
        raise PreconditionViolation(f"the {name} check requires {need}, not {loss.kind} "
                                    f"with alpha = {loss.alpha}")


def _leq(lhs, rhs):
    # absolute DEFAULT_TOL plus the same tolerance relative to the dominant term
    return lhs <= rhs + DEFAULT_TOL * (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))


def _per_example_constants(loss: Loss, X: np.ndarray, Y: np.ndarray) -> RegularityConstants:
    L = loss.holder_constant(X, Y)
    g0 = loss.grad_norm_at_zero(X, Y) if loss.alpha == 0.0 else None
    return regularity_constants(loss.alpha, L, g0)


def _step_gap(loss: Loss, W, W2, X, Y, eta) -> np.ndarray:
    # (w - eta df(w)) - (w2 - eta df(w2)), one row per example
    e = eta[:, None]
    return (W - e * loss.batch_grad(W, X, Y)) - (W2 - e * loss.batch_grad(W2, X, Y))


def check_self_bounding(loss: Loss, w, X, y) -> np.ndarray:
    """||df(w; z)|| <= c1 * f(w; z)^(alpha/(1+alpha))."""
    _require("self_bounding", loss)
    X, Y, W = _batch(X, y, w)
    c = _per_example_constants(loss, X, Y)
    g = np.linalg.norm(loss.batch_grad(W, X, Y), axis=1)
    f = np.maximum(loss.batch_value(W, X, Y), 0.0)  # guard tiny negative round-off
    expo = loss.alpha / (1.0 + loss.alpha)
    return _leq(g, c.c1 * f ** expo)


def check_gradient_monotonicity(loss: Loss, w, w2, X, y) -> np.ndarray:
    """<w - w2, df(w) - df(w2)> >= 0."""
    _require("gradient_monotonicity", loss)
    X, Y, W, W2 = _batch(X, y, w, w2)
    dg = loss.batch_grad(W, X, Y) - loss.batch_grad(W2, X, Y)
    return _leq(0.0, _rowdot(W - W2, dg))


def check_cocoercivity(loss: Loss, w, w2, X, y) -> np.ndarray:
    """Hölder co-coercivity of a convex loss.

    For alpha > 0:
        <w - w2, df(w) - df(w2)>
            >= (2 L^(-1/alpha) alpha / (1 + alpha)) * ||df(w) - df(w2)||^((1+alpha)/alpha).
    At alpha = 0 the right-hand side degenerates and the inequality reduces to
    plain gradient monotonicity.
    """
    _require("cocoercivity", loss)
    a = loss.alpha
    X, Y, W, W2 = _batch(X, y, w, w2)
    dg = loss.batch_grad(W, X, Y) - loss.batch_grad(W2, X, Y)
    inner = _rowdot(W - W2, dg)
    if a == 0.0:
        return _leq(0.0, inner)
    L = loss.holder_constant(X, Y)
    if not np.all(L > 0.0):
        raise InvalidArgument(f"L must be positive, got {L.min()}")
    rhs = 2.0 * L ** (-1.0 / a) * a / (1.0 + a) * np.linalg.norm(dg, axis=1) ** ((1.0 + a) / a)
    return _leq(rhs, inner)


def check_nonexpansive(loss: Loss, w, w2, X, y, eta) -> np.ndarray:
    """A gradient step with eta <= 2/L is 1-Lipschitz."""
    _require("nonexpansive", loss)
    X, Y, W, W2 = _batch(X, y, w, w2)
    eta = np.broadcast_to(np.asarray(eta, dtype=np.float64), Y.shape)
    with np.errstate(divide="ignore"):
        limit = 2.0 / loss.holder_constant(X, Y)
    over = eta > limit
    if np.any(over):
        k = int(np.argmax(over))
        raise PreconditionViolation(
            f"step size {eta[k]} exceeds 2/L = {limit[k]} for example {k}")
    after = _step_gap(loss, W, W2, X, Y, eta)
    return _leq(np.linalg.norm(after, axis=1), np.linalg.norm(W - W2, axis=1))


def check_expansiveness_slack(loss: Loss, w, w2, X, y, eta) -> np.ndarray:
    """Squared expansion of a gradient step.

    ||(w - eta df(w)) - (w2 - eta df(w2))||^2 <= ||w - w2||^2 + c3^2 eta^(2/(1-alpha)).
    """
    _require("expansiveness_slack", loss)
    X, Y, W, W2 = _batch(X, y, w, w2)
    eta = np.broadcast_to(np.asarray(eta, dtype=np.float64), Y.shape)
    if np.any(eta < 0.0):
        raise InvalidArgument(f"step size must be nonnegative, got {eta.min()}")
    c = _per_example_constants(loss, X, Y)
    after = _step_gap(loss, W, W2, X, Y, eta)
    dw = W - W2
    rhs = _rowdot(dw, dw) + c.c3 ** 2 * eta ** (2.0 / (1.0 - loss.alpha))
    return _leq(_rowdot(after, after), rhs)


def check_smoothness_upper_bound(loss: Loss, w, w2, X, y) -> np.ndarray:
    """Quadratic upper bound f(w2) <= f(w) + <df(w), w2 - w> + L/2 ||w2 - w||^2,
    convex or not."""
    _require("smoothness_upper_bound", loss)
    X, Y, W, W2 = _batch(X, y, w, w2)
    L = loss.holder_constant(X, Y)
    dw = W2 - W
    lhs = loss.batch_value(W2, X, Y)
    rhs = loss.batch_value(W, X, Y) + _rowdot(loss.batch_grad(W, X, Y), dw) \
        + 0.5 * L * _rowdot(dw, dw)
    return _leq(lhs, rhs)
