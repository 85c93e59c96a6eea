"""Private release mechanisms.

Laplace output perturbation for L2-regularized logistic regression, its
Euclidean metric-privacy variant (radial-Laplace noise), and Gaussian
mechanisms calibrated by global sensitivity (standard privacy) or by
input Lipschitzness (metric privacy).

Every sampler takes an explicit numpy Generator, so runs are
deterministic per stream and safe to execute concurrently.  Released
values travel inside `MechanismOutput` together with the privacy
parameters they were produced under; post-processing never alters that
record.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .divergence import gaussian_logpdf, laplace_logpdf

_EXACT_GUARD = 1e-12  # nudges c strictly above the calibration threshold


class ConvergenceError(RuntimeError):
    """The trainer did not reach the gradient tolerance within its cap."""


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy knobs shared by mechanisms and bounds.

    ``eps``/``delta`` parameterize standard differential privacy,
    ``eps_metric`` is the per-unit-distance budget of metric privacy,
    and ``alpha`` the optional Renyi order.
    """

    eps: float = 0.0
    delta: float = 0.0
    eps_metric: float = 0.0
    alpha: float | None = None

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if not 0 <= self.delta < 1:
            raise ValueError("delta must lie in [0, 1)")
        if self.eps_metric < 0:
            raise ValueError("eps_metric must be nonnegative")
        if self.alpha is not None and self.alpha <= 1:
            raise ValueError("alpha must exceed 1")


@dataclass(frozen=True)
class SensitivitySpec:
    """Worst-case output change over adjacent datasets, in output-norm units."""

    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("sensitivity must be nonnegative")


@dataclass(frozen=True)
class LipschitzSpec:
    """Output change per unit of input-metric distance."""

    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("Lipschitz constant must be nonnegative")


@dataclass(frozen=True)
class LogRegProblem:
    """An L2-regularized logistic regression instance.

    Feature rows must be pre-normalized to L2 norm at most 1; labels are
    -1/+1.  ``tolerance`` is the gradient-norm threshold the trainer must
    reach, which downstream attack code relies on.
    """

    features: np.ndarray
    labels: np.ndarray
    lam: float
    tolerance: float = 1e-10

    def __post_init__(self):
        x = np.array(self.features, dtype=float)
        y = np.array(self.labels, dtype=float)
        if x.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if y.shape != (x.shape[0],):
            raise ValueError("labels must match the number of feature rows")
        if not np.all(np.isfinite(x)):
            raise ValueError("features must be finite")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        norms = np.sqrt(np.sum(x * x, axis=1))
        if np.any(norms > 1.0 + 1e-12):
            raise ValueError("feature rows must have L2 norm <= 1")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class MechanismOutput:
    """A released vector plus the privacy record it was produced under.

    ``log_density`` evaluates the release density at an arbitrary point
    when a closed form exists; post-processing drops it but leaves the
    privacy record untouched.
    """

    value: np.ndarray
    mechanism: str
    params: PrivacyParams
    noise_scale: float
    log_density: Callable[[np.ndarray], float] | None = None
    meta: types.MappingProxyType = field(default_factory=lambda: types.MappingProxyType({}))

    def __post_init__(self):
        v = np.array(self.value, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "value", v)
        if not isinstance(self.meta, types.MappingProxyType):
            object.__setattr__(self, "meta", types.MappingProxyType(dict(self.meta)))


def post_process(output: MechanismOutput, fn: Callable) -> MechanismOutput:
    """Apply a deterministic map to the released value.  The privacy
    record is carried over unchanged; the analytic density is dropped."""
    return MechanismOutput(value=np.asarray(fn(output.value), dtype=float),
                           mechanism=output.mechanism,
                           params=output.params,
                           noise_scale=output.noise_scale,
                           log_density=None,
                           meta=output.meta)


def sigmoid(t):
    """Logistic function: 1 / (1 + e) for t >= 0 and e / (1 + e) below,
    with e = exp(-|t|), so exp never overflows."""
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def logistic_loss(theta: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
    margins = labels * (features @ theta)
    return float(np.sum(np.logaddexp(0.0, -margins)))


def logistic_grad_sum(theta: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Sum over samples of the per-sample loss gradient
    -y * sigmoid(-y * theta.x) * x; for a (d, M) theta, one sum per
    column, from two matrix products."""
    y = labels if theta.ndim == 1 else labels[:, None]
    margins = y * (features @ theta)
    weights = -y * sigmoid(-margins)
    return features.T @ weights


def _objective(theta, problem: LogRegProblem) -> float:
    return (logistic_loss(theta, problem.features, problem.labels) / problem.n
            + 0.5 * problem.lam * float(theta @ theta))


def _gradient(theta, problem: LogRegProblem) -> np.ndarray:
    return (logistic_grad_sum(theta, problem.features, problem.labels) / problem.n
            + problem.lam * theta)


def train_logreg_exact(problem: LogRegProblem, max_iter: int = 200_000) -> np.ndarray:
    """Train to the exact regularized optimum by full-batch gradient
    descent with backtracking line search.

    Returns theta with full-gradient norm at most ``problem.tolerance``
    (1e-10 by default), tight enough that stationarity-based inversion
    holds to numeric precision.
    """
    theta = np.zeros(problem.dim)
    fval = _objective(theta, problem)
    # smoothness of the mean logistic loss is at most 1/4 for unit rows
    safe_step = 1.0 / (0.25 + problem.lam)
    step = safe_step
    for _ in range(max_iter):
        grad = _gradient(theta, problem)
        gnorm = float(np.sqrt(grad @ grad))
        if gnorm <= problem.tolerance:
            return theta
        # near the optimum the Armijo decrease drops below the float
        # resolution of the objective; the smoothness-safe step still
        # contracts the gradient, so skip the search there
        if 1e-4 * safe_step * gnorm * gnorm < 1e-14 * max(1.0, abs(fval)):
            theta = theta - safe_step * grad
            fval = _objective(theta, problem)
            continue
        step = min(step * 2.0, 1e8)
        while True:
            cand = theta - step * grad
            cval = _objective(cand, problem)
            if cval <= fval - 1e-4 * step * gnorm * gnorm:
                break
            step *= 0.5
            if step < 1e-18:
                raise ConvergenceError("line search collapsed before reaching tolerance")
        theta, fval = cand, cval
    raise ConvergenceError(f"gradient norm {gnorm:.3e} above tolerance after {max_iter} iterations")


def output_perturb_dp(theta: np.ndarray, params: PrivacyParams, n_train: int,
                      lam: float, rng: np.random.Generator,
                      noiseless: bool = False) -> MechanismOutput:
    """Release theta + iid Laplace noise with scale 2 / (N * eps * lam).

    ``noiseless`` stands in for the eps -> infinity limit and releases
    theta exactly.
    """
    theta = np.asarray(theta, dtype=float)
    if noiseless:
        return MechanismOutput(theta, "output_perturb_dp", params, 0.0,
                               meta={"noiseless": True})
    if params.eps <= 0:
        raise ValueError("eps must be positive (infinite noise otherwise)")
    if n_train < 1 or lam <= 0:
        raise ValueError("need n_train >= 1 and lam > 0")
    b = 2.0 / (n_train * params.eps * lam)
    value = theta + rng.laplace(0.0, b, size=theta.shape)
    center = theta.copy()

    def log_density(h):
        return float(np.sum(laplace_logpdf(np.asarray(h, dtype=float), center, b)))

    return MechanismOutput(value, "output_perturb_dp", params, b,
                           log_density=log_density)


def output_perturb_mdp_euclidean(theta: np.ndarray, params: PrivacyParams,
                                 n_train: int, lam: float, rng: np.random.Generator,
                                 noiseless: bool = False) -> MechanismOutput:
    """Euclidean metric-privacy output perturbation.

    Noise is radial-Laplace: direction uniform on the sphere, radius
    Gamma(d, rate) with rate N * eps_metric * lam / 2, so the density is
    proportional to exp(-rate * ||noise||_2) and the log-density ratio is
    exactly rate-Lipschitz in the L2 distance between centers.
    """
    theta = np.asarray(theta, dtype=float)
    if noiseless:
        return MechanismOutput(theta, "output_perturb_mdp", params, 0.0,
                               meta={"noiseless": True})
    if params.eps_metric <= 0:
        raise ValueError("eps_metric must be positive")
    if n_train < 1 or lam <= 0:
        raise ValueError("need n_train >= 1 and lam > 0")
    d = theta.size
    rate = n_train * params.eps_metric * lam / 2.0
    radius = rng.gamma(shape=d, scale=1.0 / rate)
    direction = rng.normal(size=d)
    direction /= np.sqrt(direction @ direction)
    value = theta + radius * direction
    center = theta.copy()
    log_norm = (d * math.log(rate) + math.lgamma(d / 2.0)
                - math.log(2.0) - (d / 2.0) * math.log(math.pi) - math.lgamma(d))

    def log_density(h):
        diff = np.asarray(h, dtype=float) - center
        return float(log_norm - rate * math.sqrt(diff @ diff))

    return MechanismOutput(value, "output_perturb_mdp", params, 1.0 / rate,
                           log_density=log_density)


def gaussian_mechanism_dp(f_value: np.ndarray, sens: SensitivitySpec,
                          params: PrivacyParams, rng: np.random.Generator) -> MechanismOutput:
    """Gaussian mechanism with sigma = c * sensitivity / eps and
    c^2 > 2 ln(1.25/delta); valid for 0 < eps < 1 only."""
    if not 0 < params.eps < 1:
        raise ValueError("the Gaussian mechanism calibration requires 0 < eps < 1")
    if params.delta <= 0:
        raise ValueError("delta must be positive")
    f_value = np.asarray(f_value, dtype=float)
    c = math.sqrt(2.0 * math.log(1.25 / params.delta)) + _EXACT_GUARD
    sigma = c * sens.value / params.eps
    value = f_value if sigma == 0 else f_value + rng.normal(0.0, sigma, size=f_value.shape)
    center = f_value.copy()

    def log_density(h):
        if sigma == 0:
            raise ValueError("degenerate (noiseless) release has no density")
        return float(np.sum(gaussian_logpdf(np.asarray(h, dtype=float) - center, 0.0, sigma)))

    return MechanismOutput(value, "gaussian_dp", params, sigma,
                           log_density=None if sigma == 0 else log_density)


def gaussian_mechanism_mdp(f_value: np.ndarray, lip: LipschitzSpec,
                           params: PrivacyParams, rng: np.random.Generator,
                           rho_inputs: float = 0.0,
                           classic_constant: bool = False) -> MechanismOutput:
    """Gaussian mechanism calibrated by input Lipschitzness:
    sigma = c * L_input / eps_metric with c^2 > ln(1.25/delta).

    The threshold on c is half the classic Gaussian-mechanism constant;
    set ``classic_constant`` to use 2 ln(1.25/delta) instead.  The input
    distance ``rho_inputs`` is recorded in the audit metadata since the
    guarantee scales with it.
    """
    if params.eps_metric <= 0:
        raise ValueError("eps_metric must be positive")
    if params.delta <= 0:
        raise ValueError("delta must be positive")
    if rho_inputs < 0:
        raise ValueError("rho_inputs must be nonnegative")
    f_value = np.asarray(f_value, dtype=float)
    factor = 2.0 if classic_constant else 1.0
    c = math.sqrt(factor * math.log(1.25 / params.delta)) + _EXACT_GUARD
    sigma = c * lip.value / params.eps_metric
    value = f_value if sigma == 0 else f_value + rng.normal(0.0, sigma, size=f_value.shape)
    center = f_value.copy()

    def log_density(h):
        if sigma == 0:
            raise ValueError("degenerate (noiseless) release has no density")
        return float(np.sum(gaussian_logpdf(np.asarray(h, dtype=float) - center, 0.0, sigma)))

    return MechanismOutput(value, "gaussian_mdp", params, sigma,
                           log_density=None if sigma == 0 else log_density,
                           meta={"rho_inputs": rho_inputs})
