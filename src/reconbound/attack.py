"""Informed-adversary reconstruction of a single training sample from a
released generalized-linear-model parameter vector.

The adversary knows every training sample except the challenge, plus the
challenge label: the whole training problem but the features of its last
row, so `ThreatModel` holds the problem itself.  When the learner trains
to an exact L2-regularized optimum, the per-sample gradients and
N*lam*theta sum to zero, so the challenge's gradient contribution can be
read off the release:

    g = -N * lam * h - sum of known-sample gradients at h.

For logistic loss that contribution is collinear with the challenge
features, g = c * x with c = -y * sigmoid(-y * h.x), leaving a single
scalar unknown u = h.x pinned by the equation u * c(u) = h.g.  The
reconstruction is g / c.

The scalar equation can have two solutions when the challenge is
classified correctly; the root of smaller magnitude is returned, which
is the true one exactly when the margin y*h.x is at most 1 + W(1/e) =
1.2785 (guaranteed at the optimum when lam > 0.782 on unit-norm rows,
as then ||theta-hat|| <= 1/lam).  Noisy releases can make the equation
unsolvable: `glm_reconstruct` then gives the draw the reason code
`NO_ROOT`, and averaging leaves it out and counts it in the cell's
failures.  Only the one-release `glm_reconstruct_single` raises.

Inversion takes the release stacks of a whole sweep in one call.  Each
stack's known-sample margins and gradient sums come from two matrix
products, its margins and slopes built in two work arrays that all
stacks share, and one vectorized bisection solves the scalar equation
of every release of every stack.

Most failures are certified before the gradient sum, by three bounds
on the target h.g = -N*lam*|h|^2 + sum_i m_i*sigmoid(-m_i), a sum over
the known margins m_i = y_i * x_i.h:

- the norm certificate: m*sigmoid(-m) never exceeds W(1/e) = 0.27846,
  so a release with |h|^2 > W(1/e)/lam has no root, whatever the data;
- the mean-margin certificate: m*sigmoid(-m) - m/2 = -(m/2)*tanh(m/2)
  is never positive, so the target is at most h.s/2 - N*lam*|h|^2, with
  s = sum_i y_i * x_i the adversary's one d-vector of known data
  (`ThreatModel.known_sum`);
- the margin certificate: any other release's target is read off the
  margins of the first matrix product.

A stack whose every release is certified ends without reading the
features, or without the second product.  In any other stack both
products run whole, and only the releases that no certificate rules out
reach the scalar solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mechanisms import LogRegProblem, logistic_grad_sum, sigmoid

# w*sigmoid(w) has a single minimum, -W(1/e) = -0.27846 at
# w = -1 - W(1/e), with W the Lambert function: no target below it has a
# root, and the root of smaller magnitude of a negative target lies
# between that point and 0.  For w > 0, w - W(1/e) <= w*sigmoid(w) < w,
# so every positive target has a root, between the target and the target
# plus W(1/e).
_W_MIN = -1.2784645427610738
_W = -1.0 - _W_MIN

# bisection narrows each bracket to _TOL / 4; the widest bracket is the
# negative targets' [_W_MIN, 0]
_TOL = 1e-12
_BISECTIONS = math.ceil(math.log2(4.0 * -_W_MIN / _TOL))

# reason codes of glm_reconstruct
DEGENERATE, NO_ROOT = 1, 2


class NoRootError(RuntimeError):
    """The release is inconsistent with every candidate challenge."""


class DegenerateGradientError(RuntimeError):
    """The recovered gradient contribution is numerically zero."""


@dataclass(frozen=True)
class ThreatModel:
    """The informed adversary: the training problem, whose last row is the
    challenge.  The attack reads every other row, the challenge label, lam
    and N from the problem; the challenge features are read for scoring
    only.  The problem is held, not copied; ``known_sum`` is formed once
    here, so the inversions of a whole sweep share it.  The query budget,
    the number of releases drawn per trial, is the second axis of the
    releases that `attack_average` takes."""

    problem: LogRegProblem
    known_sum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = self.problem.features
        if np.any(np.all(x[:-1] == x[-1], axis=1)):
            raise ValueError("challenge must not appear in the fixed dataset")
        object.__setattr__(self, "known_sum", self.problem.labels[:-1] @ x[:-1])


def _r(w):
    """w * sigmoid(w); the scalar consistency function."""
    return w * sigmoid(w)


def _solve_scalar(target: np.ndarray) -> tuple:
    """Root of smallest magnitude of w*sigmoid(w) = target, for each
    target at once.

    A negative target's root lies in [_W_MIN, 0], where the function
    increases, and exists when the target is not below the minimum; a
    nonnegative target's lies in [target, target + W(1/e)] and always
    exists.  Returns (roots, found); roots are meaningless where found is
    False.
    """
    target = np.asarray(target, dtype=float)
    neg = target < 0
    lo = np.where(neg, _W_MIN, target)
    hi = np.where(neg, 0.0, target - 1.0 - _W_MIN)
    found = target >= _r(_W_MIN)
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = _r(mid) <= target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi), found


class _WorkArrays:
    """The (N-1, M) margins and slopes of one stack of M releases, held in
    two arrays that every stack of a call reuses: allocated at the first
    stack that needs them, and again only for a stack of more releases."""

    def __init__(self, rows: int):
        self.rows, self.flat = rows, (np.empty(0), np.empty(0))

    def take(self, m: int) -> tuple:
        size = self.rows * m
        if self.flat[0].size < size:
            self.flat = (np.empty(size), np.empty(size))
        return tuple(a[:size].reshape(self.rows, m) for a in self.flat)


def _uncertified(h: np.ndarray, features_minus: np.ndarray, labels_minus: np.ndarray,
                 lam: float, n_total: int, known_sum: np.ndarray, work: _WorkArrays) -> tuple:
    """Step 1 of `glm_reconstruct` on a (M, d) stack: (rows, g, targets,
    degenerate) for the releases that no certificate rules out, with the
    challenge's gradient contribution g, the target h.g and whether g is
    numerically zero.  Every other release has no root."""
    norm_sq = np.einsum("md,md->m", h, h)
    finite = np.isfinite(norm_sq)
    if not finite.all():
        rows, *rest = _uncertified(h[finite], features_minus, labels_minus, lam, n_total,
                                   known_sum, work)
        return np.flatnonzero(finite)[rows], *rest
    # Slack: the margin certificate sums the target as -N*lam*|h|^2 +
    # sum_i m_i*s_i, the inversion as h.g, both from the same margins m_i
    # and slopes s_i.  With rows in the unit ball, |m_i| <= |h| and the
    # gradient sum is worth at most N|h| against h, so the worst-case
    # dot-product error bounds put each form within u*(N + d + 3)*S of
    # the exact target on those slopes, S = N*lam*|h|^2 + 2N|h|, u =
    # 2^-53: a gap below 7e-13*S at N + d = 2 784, and below 1e-9*S
    # while N + d stays under 4 million.  The norm certificate's own
    # rounding is a few u of S, and the constant 1e-9 covers that of
    # W(1/e) and of w*sigmoid(w) at its minimum.
    # A certified release is never DEGENERATE: its |h.g| exceeds the
    # slack, hence 2e-9*N|h|, so |g| > 2e-9*N, far above the threshold
    # 1e-12.
    scale = n_total * lam * norm_sq
    slack = 1e-9 * (scale + 2 * n_total * np.sqrt(norm_sq) + 1)
    # The mean-margin certificate: `sigmoid` rounds to at most 1/2 below 0
    # and to at least 1/2 from 0 up, so m*sigmoid(-m) <= m/2 holds for the
    # computed margins and slopes too, and the target on the inversion's
    # slopes is at most h.s/2 - N*lam*|h|^2 plus 3/2 of the margins' error,
    # under 1.5*gamma_d*N|h| (gamma_k = k*u/(1 - k*u)).  The computed s is
    # within gamma_N*N of s, since rows lie in the unit ball, so its
    # product with h is within gamma_N*N|h| + gamma_d*N|h| of h.s; |h|^2
    # carries gamma_(d+2) of the scale, and the subtraction one more u.
    # The bound as computed is thus within u*(N/4 + 2d + 4)*S of that
    # target, and with the inversion's own u*(N + d + 3)*S the gap is
    # u*(5N/4 + 3d + 7)*S: below 1e-9*S while 5N/4 + 3d stays under 9
    # million, for example while N + d stays under 3 million.
    certified = ((scale > n_total * _W + slack)
                 | (0.5 * (h @ known_sum) - scale < -_W - slack))
    if not certified.all():
        margins, slopes = work.take(len(h))
        np.matmul(features_minus, h.T, out=margins)
        np.multiply(labels_minus[:, None], margins, out=margins)
        np.negative(margins, out=slopes)
        sigmoid(slopes, out=slopes)  # the slopes sigmoid(-margins)
        certified |= np.einsum("nm,nm->m", margins, slopes) - scale < -_W - slack
    if certified.all():
        return np.empty(0, dtype=int), np.empty((0, h.shape[1])), np.empty(0), np.empty(0, bool)
    # the products and sums run over the whole stack, as for a stack
    # inverted alone, so the kept rows have the same bits
    g = -n_total * lam * h - logistic_grad_sum(slopes, features_minus, labels_minus).T
    degenerate = np.sqrt(np.einsum("md,md->m", g, g)) < 1e-12
    targets = np.einsum("md,md->m", h, g)
    keep = ~certified
    return np.flatnonzero(keep), g[keep], targets[keep], degenerate[keep]


def glm_reconstruct(stacks, features_minus: np.ndarray, labels_minus: np.ndarray,
                    y_star: float, lam: float, n_total: int, known_sum: np.ndarray):
    """Invert a sequence of stacks of released parameter vectors, each of
    shape (..., d), in one call.

    Returns an iterator that gives per stack (estimates, reasons): the
    challenge estimates, shaped as the stack, and per release 0 on
    success or the code (`DEGENERATE`, `NO_ROOT`) of the reason it could
    not be inverted, in which case its row is NaN.  ``n_total`` is the
    training-set size including the challenge, and ``known_sum`` is
    ``labels_minus @ features_minus``, the sum s = sum_i y_i * x_i over
    the known rows.

    The call runs in three steps.  Each stack in turn goes through the
    certificates and the two matrix products, its margins and slopes
    built in two (N-1, M) work arrays that all stacks share, and keeps
    only the gradient contributions and targets of the releases no
    certificate rules out.  One bisection then solves the scalar equation
    of every kept release of every stack.  Last, the iterator forms each
    stack's estimates as it reaches it.

    A release whose squared norm is not finite has no root: its row is
    NaN and its reason `NO_ROOT`, set before any matrix product, and the
    rest of its stack is inverted alone.  A stack whose every release is
    certified to have no root (see the module docstring) ends before the
    features are read or before the gradient sum, with the rows and
    reasons inverting it would give.
    """
    work = _WorkArrays(len(features_minus))
    kept, targets = [], []
    for stack in stacks:
        h = np.asarray(stack, dtype=float)
        rows, g, target, degenerate = _uncertified(h.reshape(-1, h.shape[-1]), features_minus,
                                                   labels_minus, lam, n_total, known_sum, work)
        kept.append((h.shape, rows, g, degenerate))
        targets.append(target)
    # u = h.x solves u * (-y * sigmoid(-y*u)) = h.g;  substituting w = -y*u
    # turns the left side into w * sigmoid(w) for either label.
    w = found = np.empty(0)
    if any(t.size for t in targets):  # when every release is certified, nothing is solved
        w, found = _solve_scalar(np.concatenate(targets))
    splits = np.cumsum([t.size for t in targets])[:-1]
    return (_estimates(*k, w_k, found_k, y_star)
            for k, w_k, found_k in zip(kept, np.split(w, splits), np.split(found, splits)))


def _estimates(shape: tuple, rows: np.ndarray, g: np.ndarray, degenerate: np.ndarray,
               w: np.ndarray, found: np.ndarray, y_star: float) -> tuple:
    """Step 3 of `glm_reconstruct`: one stack's estimates and reasons,
    from its kept rows and their roots."""
    estimates = np.full(shape, np.nan)
    reasons = np.full(shape[:-1], NO_ROOT)
    if rows.size:
        inverted = g / (-y_star * sigmoid(w))[:, None]
        codes = np.where(degenerate, DEGENERATE, np.where(found, 0, NO_ROOT))
        inverted[codes != 0] = np.nan
        estimates.reshape(-1, shape[-1])[rows] = inverted
        reasons.reshape(-1)[rows] = codes
    return estimates, reasons


def glm_reconstruct_single(h, features_minus: np.ndarray, labels_minus: np.ndarray,
                           y_star: float, lam: float, n_total: int) -> np.ndarray:
    """Invert one released parameter vector into challenge features: the
    one-release case of `glm_reconstruct`, raising its failure reason."""
    (estimates, reasons), = glm_reconstruct([np.atleast_2d(h)], features_minus, labels_minus,
                                            y_star, lam, n_total, labels_minus @ features_minus)
    if reasons[0] == DEGENERATE:
        raise DegenerateGradientError("challenge gradient contribution is numerically zero")
    if reasons[0] == NO_ROOT:
        raise NoRootError("the scalar equation's target lies below the minimum "
                          "of w*sigmoid(w)")
    return estimates[0]


def attack_average(model: ThreatModel, cells) -> list:
    """Run the attack on every cell of a sweep in one call.

    ``cells`` gives each cell's (T, n, d) releases in turn: trial t's n
    draws, n being the adversary's query budget.  Every draw of every
    cell is inverted by one `glm_reconstruct` call, and each trial
    averages the estimates of its draws that inverted.  Returns per cell
    (mse, failures): per trial the squared Euclidean error of the
    average, NaN when every draw failed, and the count of draws that
    failed.  A cell's results are those of the call on that cell alone.
    """
    p = model.problem
    results = []
    for estimates, reasons in glm_reconstruct(cells, p.features[:-1], p.labels[:-1],
                                              float(p.labels[-1]), p.lam, p.n,
                                              model.known_sum):
        n = reasons.shape[1]
        ok = reasons == 0
        counts = ok.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            z_hat = np.where(ok[:, :, None], estimates, 0.0).sum(axis=1) / counts[:, None]
        diff = p.features[-1] - z_hat
        # squaring the norm, rather than summing squares, fixes the rounding
        # of the emitted errors: sweep CSVs are compared byte for byte
        dist = np.sqrt(np.einsum("td,td->t", diff, diff))
        results.append((dist * dist, n - counts))
    return results
