"""Private release mechanisms.

Laplace output perturbation for L2-regularized logistic regression and
its Euclidean metric-privacy variant (radial-Laplace noise), with the
exact trainer whose optimum they release.  The trainer takes damped
Newton steps, each solved by conjugate gradients on Hessian-vector
products that read the features twice and never form the d x d
Hessian; one margin product y * (X @ theta) per candidate gives its
gradient, and a step is kept once it shrinks the gradient norm.

Each sampler is a noise law alone, drawn at a finite scale >= 0 that
its caller calibrates (at scale 0 every release is theta itself), from
an explicit numpy Generator, so runs are deterministic per stream.  It
leads with a ``size``: it returns a (*size, d) stack of released
vectors drawn in one call, each all the adversary sees of a release.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# gradient norm the exact trainer must reach; the attack's inversion relies on it
GRAD_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """The trainer did not reach the gradient tolerance within its cap."""


def _frozen(a) -> np.ndarray:
    """``a`` itself when it is a read-only float64 array that owns its
    data, as a builder freezes what it hands over; otherwise a read-only
    copy, which later writes to the caller's array cannot reach."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.owndata and not a.flags.writeable):
        a = np.array(a, dtype=float)
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LogRegProblem:
    """An L2-regularized logistic regression instance.

    Feature rows must be pre-normalized to L2 norm at most 1; labels are
    -1/+1.  Features and labels are held as given when read-only float64
    arrays that own their data, and copied otherwise.
    """

    features: np.ndarray
    labels: np.ndarray
    lam: float

    def __post_init__(self):
        x, y = _frozen(self.features), _frozen(self.labels)
        if x.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if y.shape != (x.shape[0],):
            raise ValueError("labels must match the number of feature rows")
        if not np.all(np.isfinite(x)):
            raise ValueError("features must be finite")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if not 0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite")
        if np.any(np.sqrt(np.einsum("ij,ij->i", x, x)) > 1.0 + 1e-12):
            raise ValueError("feature rows must have L2 norm <= 1")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def sigmoid(t, out=None):
    """Logistic function: 1 / (1 + e) for t >= 0 and e / (1 + e) below,
    with e = exp(-|t|), so exp never overflows.  Built in ``out`` if
    given, which may be ``t`` itself; a scalar gives a 0-d array."""
    t = np.asarray(t, dtype=float)
    nonneg = t >= 0
    e = np.abs(t, out=np.empty_like(t) if out is None else out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = 1.0 + e
    np.copyto(e, 1.0, where=nonneg)
    return np.divide(e, den, out=e)


def logistic_grad_sum(slopes: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Sum of the per-sample loss gradients -y * slope * x, where each
    slope is sigmoid(-margin) at the margin y * theta.x: an (n,) column
    of slopes gives a (d,) sum, an (n, M) stack of them a (d, M) array
    of M sums, from one matrix product."""
    y = labels if slopes.ndim == 1 else labels[:, None]
    return features.T @ (-y * slopes)


# damped Newton ends in a handful of steps on every problem the sweeps
# train; the cap only turns a defect into ConvergenceError
NEWTON_CAP = 100


def _newton_direction(x: np.ndarray, curvature: np.ndarray, lam: float,
                      grad: np.ndarray, tol: float) -> np.ndarray:
    """Solve H p = -grad by conjugate gradients on the products
    H v = X^T (curvature * (X v)) + lam * v, to residual norm ``tol``.

    H is never formed: each product reads the features twice.  In exact
    arithmetic CG ends within d steps, which caps it.
    """
    p = np.zeros_like(grad)
    r = -grad
    direction = r.copy()
    rr = float(r @ r)
    for _ in range(grad.size):
        if rr <= tol * tol:
            break
        hd = x.T @ (curvature * (x @ direction)) + lam * direction
        alpha = rr / float(direction @ hd)
        p += alpha * direction
        r -= alpha * hd
        rr, rr_old = float(r @ r), rr
        direction = r + (rr / rr_old) * direction
    return p


def train_logreg_exact(problem: LogRegProblem) -> np.ndarray:
    """Train to the exact regularized optimum by damped Newton steps,
    each solved by conjugate gradients on Hessian-vector products.

    A step starts at length 1 and halves until it shrinks the gradient
    norm, as a short enough one does, the CG residual being at most half
    of it; by strong convexity the gradient vanishes only at the optimum.
    Returns theta with gradient norm at most `GRAD_TOL` (1e-10), tight
    enough that stationarity-based inversion holds to numeric precision."""
    x, y, n, lam = problem.features, problem.labels, problem.n, problem.lam

    def gradient(t):
        m = y * (x @ t)
        return m, logistic_grad_sum(sigmoid(-m), x, y) / n + lam * t

    theta = np.zeros(problem.dim)
    margins, grad = gradient(theta)
    for _ in range(NEWTON_CAP):
        gnorm = float(np.sqrt(grad @ grad))
        if gnorm <= GRAD_TOL:
            return theta
        # the loss's second derivative at each margin, over n
        curvature = sigmoid(margins) * sigmoid(-margins) / n
        # a forcing term of min(1/2, |grad|) makes the steps converge
        # quadratically near the optimum
        p = _newton_direction(x, curvature, lam, grad, min(0.5, gnorm) * gnorm)
        step = 1.0
        while True:
            cand = theta + step * p
            cmargins, cgrad = gradient(cand)
            if cgrad @ cgrad < gnorm * gnorm:
                break
            step *= 0.5
            if step < 1e-18:
                raise ConvergenceError("line search collapsed before reaching tolerance")
        theta, margins, grad = cand, cmargins, cgrad
    raise ConvergenceError(f"gradient norm {float(np.sqrt(grad @ grad)):.3e} above "
                           f"tolerance after {NEWTON_CAP} Newton steps")


def output_perturb_dp(size: tuple, theta: np.ndarray, scale: float,
                      rng: np.random.Generator) -> np.ndarray:
    """A (*size, d) stack of releases of theta + iid Laplace noise at
    ``scale``, drawn in one call."""
    if not 0 <= scale < np.inf:  # NaN included
        raise ValueError(f"noise scale must be finite and >= 0, got {scale}")
    theta = np.asarray(theta, dtype=float)
    return theta + rng.laplace(0.0, scale, size=(*size, theta.size))


def output_perturb_mdp_euclidean(size: tuple, theta: np.ndarray, scale: float,
                                 rng: np.random.Generator) -> np.ndarray:
    """A (*size, d) stack of Euclidean metric-privacy releases of theta.

    Noise is radial-Laplace: direction uniform on the sphere, radius
    Gamma(d, scale), so the density is proportional to
    exp(-||noise||_2 / scale) and the log-density ratio is exactly
    (1/scale)-Lipschitz in the L2 distance between centers.
    """
    if not 0 <= scale < np.inf:  # NaN included
        raise ValueError(f"noise scale must be finite and >= 0, got {scale}")
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    radius = rng.gamma(shape=d, scale=scale, size=size)
    direction = rng.normal(size=(*size, d))
    direction /= np.sqrt(np.einsum("...i,...i->...", direction, direction))[..., None]
    return theta + radius[..., None] * direction
