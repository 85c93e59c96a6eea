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
unsolvable; that surfaces as `NoRootError` and averaging drops the draw.

Inversion works on a stack of releases at once: the known-sample
gradient sums come from two matrix products and the scalar equation is
solved for every release in one vectorized bisection.

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

A stack whose every release is certified returns without reading the
features, or without the second product; any other stack is inverted
whole.
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
        object.__setattr__(self, "known_sum", _known_sum(x[:-1], self.problem.labels[:-1]))


def _known_sum(features_minus: np.ndarray, labels_minus: np.ndarray) -> np.ndarray:
    """s = sum_i y_i * x_i over the known rows, the mean-margin
    certificate's statistic: one pass over the features."""
    return labels_minus @ features_minus


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


def glm_reconstruct(releases: np.ndarray, features_minus: np.ndarray,
                    labels_minus: np.ndarray, y_star: float, lam: float,
                    n_total: int, known_sum: np.ndarray) -> tuple:
    """Invert a (M, d) stack of released parameter vectors at once.

    Returns (estimates, reasons): the (M, d) challenge estimates, and per
    release 0 on success or the code (`DEGENERATE`, `NO_ROOT`) of the
    reason it could not be inverted, in which case its row is NaN.
    ``n_total`` is the training-set size including the challenge, and
    ``known_sum`` is `_known_sum` of the known rows.

    A stack whose every release is certified to have no root (see the
    module docstring) returns before the features are read or before
    the gradient sum, with the rows and reasons inverting it would give.
    """
    h = np.asarray(releases, dtype=float)
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
    # 1e-12.  A non-finite h makes the slack inf or NaN: never certified.
    norm_sq = np.einsum("md,md->m", h, h)
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
        margins = labels_minus[:, None] * (features_minus @ h.T)
        slopes = sigmoid(-margins)
        certified |= np.einsum("nm,nm->m", margins, slopes) - scale < -_W - slack
    if certified.all():
        return np.full(h.shape, np.nan), np.full(len(h), NO_ROOT)
    g = -n_total * lam * h - logistic_grad_sum(slopes, features_minus, labels_minus).T
    degenerate = np.sqrt(np.einsum("md,md->m", g, g)) < 1e-12
    # u = h.x solves u * (-y * sigmoid(-y*u)) = h.g;  substituting w = -y*u
    # turns the left side into w * sigmoid(w) for either label.
    w, found = _solve_scalar(np.einsum("md,md->m", h, g))
    estimates = g / (-y_star * sigmoid(w))[:, None]
    reasons = np.where(degenerate, DEGENERATE, np.where(found, 0, NO_ROOT))
    estimates[reasons != 0] = np.nan
    return estimates, reasons


def glm_reconstruct_single(h, features_minus: np.ndarray, labels_minus: np.ndarray,
                           y_star: float, lam: float, n_total: int) -> np.ndarray:
    """Invert one released parameter vector into challenge features: the
    batch-of-one case of `glm_reconstruct`, raising its failure reason."""
    estimates, reasons = glm_reconstruct(np.atleast_2d(h), features_minus, labels_minus,
                                         y_star, lam, n_total,
                                         _known_sum(features_minus, labels_minus))
    if reasons[0] == DEGENERATE:
        raise DegenerateGradientError("challenge gradient contribution is numerically zero")
    if reasons[0] == NO_ROOT:
        raise NoRootError("the scalar equation's target lies below the minimum "
                          "of w*sigmoid(w)")
    return estimates[0]


def attack_average(model: ThreatModel, releases: np.ndarray) -> tuple:
    """Run the attack for T independent trials in one batch.

    ``releases`` is (T, n, d): trial t's n draws, n being the adversary's
    query budget.  All T*n are inverted at once and each trial averages
    the estimates of its draws that inverted.  Returns (mse, failures):
    per trial the squared Euclidean error of the average, NaN when every
    draw failed, and the count of draws that failed.
    """
    trials, n, d = releases.shape
    p = model.problem
    estimates, reasons = glm_reconstruct(releases.reshape(trials * n, d), p.features[:-1],
                                         p.labels[:-1], float(p.labels[-1]), p.lam, p.n,
                                         model.known_sum)
    ok = (reasons == 0).reshape(trials, n)
    counts = ok.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        z_hat = (np.where(ok[:, :, None], estimates.reshape(trials, n, d), 0.0).sum(axis=1)
                 / counts[:, None])
    diff = p.features[-1] - z_hat
    # squaring the norm, rather than summing squares, fixes the rounding
    # of the emitted errors: sweep CSVs are compared byte for byte
    dist = np.sqrt(np.einsum("td,td->t", diff, diff))
    return dist * dist, n - counts
