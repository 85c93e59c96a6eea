"""Informed-adversary reconstruction of a single training sample from a
released generalized-linear-model parameter vector.

The adversary knows every training sample except the challenge, plus the
challenge label.  When the learner trains to an exact L2-regularized
optimum, the per-sample gradients and N*lam*theta sum to zero, so the
challenge's gradient contribution can be read off the release:

    g = -N * lam * h - sum of known-sample gradients at h.

For logistic loss that contribution is collinear with the challenge
features, g = c * x with c = -y * sigmoid(-y * h.x), leaving a single
scalar unknown u = h.x pinned by the equation u * c(u) = h.g.  The
reconstruction is g / c.

The scalar equation can have two solutions when the challenge is
classified correctly; the root of smaller magnitude is returned, which
is provably the true one whenever |h.x| < 1.543 (guaranteed for
||h|| below that, e.g. whenever lam >= 0.65 on unit-norm rows).  Noisy
releases can make the equation unsolvable; that surfaces as
`NoRootError` and averaging simply drops the draw.

Inversion works on a stack of releases at once: the known-sample
gradient sums come from two matrix products and the scalar equation is
solved for every release in one vectorized bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mechanisms import MechanismOutput, logistic_grad_sum, sigmoid

# w*sigmoid(w) has a single minimum, -W(1/e) = -0.27846 at
# w = -1 - W(1/e), with W the Lambert function: no target below it has a
# root, and the root of smaller magnitude of a negative target lies
# between that point and 0
_W_MIN = -1.2784645427610738

# reason codes of glm_reconstruct
DEGENERATE, NO_ROOT = 1, 2


class NoRootError(RuntimeError):
    """The release is inconsistent with every candidate challenge."""


class DegenerateGradientError(RuntimeError):
    """The recovered gradient contribution is numerically zero."""


class AllFailedError(RuntimeError):
    """Every drawn release failed to invert."""


class BudgetError(ValueError):
    """Shadow targets would exhaust the query budget."""


@dataclass(frozen=True)
class ThreatModel:
    """Adversary knowledge: the fixed dataset, the challenge label and
    ground-truth features (held for scoring only), and the query budget
    m split into k shadow trainings and n = m - k output samples."""

    features_minus: np.ndarray
    labels_minus: np.ndarray
    challenge_x: np.ndarray
    challenge_y: float
    query_budget_m: int
    shadow_count_k: int = 0

    def __post_init__(self):
        x = np.array(self.features_minus, dtype=float)
        y = np.array(self.labels_minus, dtype=float)
        cx = np.array(self.challenge_x, dtype=float)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValueError("features_minus must be (N-1, d) with matching labels")
        if cx.shape != (x.shape[1],):
            raise ValueError("challenge_x must match the feature dimension")
        if self.challenge_y not in (-1.0, 1.0):
            raise ValueError("challenge_y must be -1 or +1")
        if self.shadow_count_k < 0:
            raise ValueError("shadow_count_k must be nonnegative")
        if self.shadow_count_k >= self.query_budget_m:
            raise BudgetError(f"k={self.shadow_count_k} leaves no sampling budget "
                              f"out of m={self.query_budget_m}")
        if x.size and bool(np.any(np.all(x == cx[None, :], axis=1))):
            raise ValueError("challenge must not appear in the fixed dataset")
        for arr, name in ((x, "features_minus"), (y, "labels_minus"), (cx, "challenge_x")):
            arr.setflags(write=False)
        object.__setattr__(self, "features_minus", x)
        object.__setattr__(self, "labels_minus", y)
        object.__setattr__(self, "challenge_x", cx)

    @property
    def sample_count_n(self) -> int:
        return self.query_budget_m - self.shadow_count_k

    @property
    def n_total(self) -> int:
        """Training-set size including the challenge."""
        return self.features_minus.shape[0] + 1


@dataclass(frozen=True)
class AttackResult:
    z_hat: np.ndarray
    mse: float
    per_sample_estimates: tuple
    failures: int = 0


def _r(w):
    """w * sigmoid(w); the scalar consistency function."""
    return w * sigmoid(w)


def _solve_scalar(target: np.ndarray, bracket: float, tol: float) -> tuple:
    """Root of smallest magnitude of w*sigmoid(w) = target on
    [-bracket, bracket], for each target at once.

    A negative target's root lies in [_W_MIN, 0], where the function
    increases, and exists when the target is not below the minimum; a
    positive target's lies in (0, bracket] and exists when the target
    does not exceed the function's value at ``bracket``.  Bisection
    narrows each bracket to tol / 4.  Returns (roots, found); roots are
    meaningless where found is False.
    """
    target = np.asarray(target, dtype=float)
    neg = target < 0
    lo = np.where(neg, _W_MIN, 0.0)
    hi = np.where(neg, 0.0, bracket)
    found = np.where(neg, target >= _r(lo), target <= _r(hi))
    for _ in range(math.ceil(math.log2(4.0 * max(bracket, -_W_MIN) / tol))):
        mid = 0.5 * (lo + hi)
        below = _r(mid) <= target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi), found


def glm_reconstruct(releases: np.ndarray, features_minus: np.ndarray,
                    labels_minus: np.ndarray, y_star: float, lam: float, n_total: int,
                    bracket: float = 50.0, tol: float = 1e-12) -> tuple:
    """Invert a (M, d) stack of released parameter vectors at once.

    Returns (estimates, reasons): the (M, d) challenge estimates, and per
    release 0 on success or the code (`DEGENERATE`, `NO_ROOT`) of the
    reason it could not be inverted, in which case its row is NaN.
    ``n_total`` is the training-set size including the challenge.
    """
    h = np.asarray(releases, dtype=float)
    g = -n_total * lam * h - logistic_grad_sum(h.T, features_minus, labels_minus).T
    degenerate = np.sqrt(np.einsum("md,md->m", g, g)) < 1e-12
    # u = h.x solves u * (-y * sigmoid(-y*u)) = h.g;  substituting w = -y*u
    # turns the left side into w * sigmoid(w) for either label.
    w, found = _solve_scalar(np.einsum("md,md->m", h, g), bracket, tol)
    estimates = g / (-y_star * sigmoid(w))[:, None]
    reasons = np.where(degenerate, DEGENERATE, np.where(found, 0, NO_ROOT))
    estimates[reasons != 0] = np.nan
    return estimates, reasons


def _vector(h) -> np.ndarray:
    return np.asarray(h.value if isinstance(h, MechanismOutput) else h, dtype=float)


def glm_reconstruct_single(h, features_minus: np.ndarray, labels_minus: np.ndarray,
                           y_star: float, lam: float, n_total: int,
                           bracket: float = 50.0, tol: float = 1e-12) -> np.ndarray:
    """Invert one released parameter vector into challenge features: the
    batch-of-one case of `glm_reconstruct`, raising its failure reason.

    ``h`` may be a raw vector or a `MechanismOutput`.
    """
    estimates, reasons = glm_reconstruct(_vector(h)[None, :], features_minus,
                                         labels_minus, y_star, lam, n_total, bracket, tol)
    if reasons[0] == DEGENERATE:
        raise DegenerateGradientError("challenge gradient contribution is numerically zero")
    if reasons[0] == NO_ROOT:
        raise NoRootError(f"no root of the scalar equation on [-{bracket}, {bracket}]")
    return estimates[0]


def _average(model: ThreatModel, estimates: np.ndarray, ok: np.ndarray,
             metric: Callable | None) -> tuple:
    """Mean of each trial's surviving estimates and its squared distance
    to the challenge; (T, n, d) estimates with a (T, n) survival mask.
    Trials with no survivor get NaN."""
    counts = ok.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        z_hat = np.where(ok[:, :, None], estimates, 0.0).sum(axis=1) / counts[:, None]
    if metric is None:
        diff = model.challenge_x - z_hat
        dist = np.sqrt(np.einsum("td,td->t", diff, diff))
    else:
        dist = np.array([metric(model.challenge_x, z) for z in z_hat], dtype=float)
    return z_hat, dist * dist


def attack_trials(model: ThreatModel, releases: np.ndarray, lam: float) -> tuple:
    """Run the attack for T independent trials in one batch.

    ``releases`` is (T, n, d): trial t's n draws.  All T*n are inverted
    at once and each trial averages its survivors.  Returns (mse,
    failures): per trial the squared Euclidean error of the average, NaN
    when every draw failed, and the count of draws that failed.
    """
    trials, n, d = releases.shape
    estimates, reasons = glm_reconstruct(releases.reshape(trials * n, d),
                                         model.features_minus, model.labels_minus,
                                         model.challenge_y, lam, model.n_total)
    ok = (reasons == 0).reshape(trials, n)
    _, mse = _average(model, estimates.reshape(trials, n, d), ok, None)
    return mse, n - ok.sum(axis=1)


def attack_average(model: ThreatModel, mechanism: Callable[[np.random.Generator], object],
                   lam: float, rng: np.random.Generator,
                   metric: Callable[[np.ndarray, np.ndarray], float] | None = None) -> AttackResult:
    """Draw n releases, invert them, and average the survivors: one trial.

    ``mechanism(rng)`` must return one release (vector or
    `MechanismOutput`) per call.  Draws whose scalar equation has no
    solution are dropped and counted; the error is the squared metric
    distance between the challenge and the averaged estimate.
    """
    releases = np.stack([_vector(mechanism(rng)) for _ in range(model.sample_count_n)])
    estimates, reasons = glm_reconstruct(releases, model.features_minus,
                                         model.labels_minus, model.challenge_y,
                                         lam, model.n_total)
    ok = reasons == 0
    if not ok.any():
        raise AllFailedError(f"all {model.sample_count_n} draws failed to invert")
    z_hat, mse = _average(model, estimates[None], ok[None], metric)
    return AttackResult(z_hat=z_hat[0], mse=float(mse[0]),
                        per_sample_estimates=tuple(estimates[ok]),
                        failures=int((~ok).sum()))


def shadow_pairs(model: ThreatModel, shadow_targets: Sequence,
                 trainer: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> list:
    """Train one model per shadow target on the fixed dataset plus that
    target, yielding (released model, target) pairs for learned attacks.

    The closed-form inversion above never consumes these; the interface
    exists so trainable attack models can plug into the same budget
    accounting (k trainings leave n = m - k sampling draws).
    """
    if len(shadow_targets) != model.shadow_count_k:
        raise BudgetError(f"got {len(shadow_targets)} shadow targets, "
                          f"budgeted for {model.shadow_count_k}")
    pairs = []
    for x_tilde, y_tilde in shadow_targets:
        feats = np.vstack([model.features_minus, np.asarray(x_tilde, dtype=float)])
        labels = np.append(model.labels_minus, float(y_tilde))
        pairs.append((trainer(feats, labels), (np.asarray(x_tilde, dtype=float), float(y_tilde))))
    return pairs
