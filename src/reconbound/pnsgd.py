"""Single-pass projected noisy stochastic gradient descent.

One pass over the dataset in order, a fresh Gaussian perturbation of each
gradient, an L2-ball projection after every step, and only the final
iterate released.  Because later samples receive less subsequent noise,
the Renyi noise calibrations below depend on the sample position t: a
target privacy level at position t needs variance proportional to
1/(n - t + 1).

Two calibrations are provided: the standard one driven by a global
gradient bound G, and the metric-privacy one driven by the gradients'
input Lipschitz constant and the diameter of the data domain.  Their
ratio is diam * (L_input / G)^2, which is how the metric variant ends up
cheaper for losses whose G itself scales with the domain diameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Renyi orders scanned when converting to (eps, delta) guarantees
DEFAULT_ALPHAS = (1.5, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class StepSizeError(ValueError):
    """Learning rate violates the contractivity requirement eta <= 2/beta."""


# noise is drawn per chain in blocks of steps, holding at most this many
# floats at once across all chains
NOISE_BLOCK_FLOATS = 1 << 17


@dataclass(frozen=True)
class PNSGDConfig:
    """Pass settings.  ``sigma`` is one noise scale, or one per chain when
    several chains run in lockstep."""

    eta: float
    sigma: float | np.ndarray
    w0: np.ndarray
    constraint_radius: float
    beta: float

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.eta > 2.0 / self.beta + 1e-15:
            raise StepSizeError(f"eta={self.eta} exceeds 2/beta={2.0 / self.beta}")
        sigma = np.array(self.sigma, dtype=float)
        if sigma.ndim > 1 or np.any(sigma < 0):
            raise ValueError("sigma must be nonnegative, a scalar or one per chain")
        if self.constraint_radius <= 0:
            raise ValueError("constraint_radius must be positive")
        w = np.array(self.w0, dtype=float)
        if math.sqrt(float(w @ w)) > self.constraint_radius + 1e-12:
            raise ValueError("w0 must lie in the constraint ball")
        for arr, name in ((sigma, "sigma"), (w, "w0")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def project_l2(v: np.ndarray, radius: float) -> np.ndarray:
    """L2 projection onto the centered ball of the given radius, of one
    vector or of each row of a stack."""
    v = np.asarray(v, dtype=float)
    norms = np.sqrt(np.einsum("...i,...i->...", v, v))
    return v * (radius / np.maximum(norms, radius))[..., None]


def pnsgd_run(config: PNSGDConfig, dataset: Sequence, loss_grad: Callable,
              rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Run one pass of B chains in lockstep from ``w0``, one per generator
    in ``rngs``, and return their final iterates as a (B, d) array.

    Chain b draws its noise from its own generator at its own
    ``config.sigma``, in the same order as a pass run alone, so its
    result does not depend on which chains share the pass; a chain with
    sigma 0 draws nothing.
    ``loss_grad(w, sample)`` must return the per-sample loss gradient at
    every row of the (B, d) state.  Intermediate iterates are never
    exposed.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("dataset must be nonempty")
    chains, d = len(rngs), config.w0.size
    sigmas = np.zeros(chains) + config.sigma
    w = np.zeros((chains, d)) + config.w0
    block = max(1, min(n, NOISE_BLOCK_FLOATS // (chains * d)))
    noise = np.zeros((block, chains, d))
    noisy = [(b, rngs[b], float(sigmas[b])) for b in np.flatnonzero(sigmas > 0)]
    eta, radius = config.eta, config.constraint_radius
    for i, sample in enumerate(dataset):
        k = i % block
        if k == 0:
            steps = min(block, n - i)
            for b, gen, s in noisy:
                noise[:steps, b] = gen.normal(0.0, s, size=(steps, d))
        grad = np.asarray(loss_grad(w, sample), dtype=float)
        w = project_l2(w - eta * (grad + noise[k]), radius)
    return w


def noise_for_renyi_dp(alpha: float, eps: float, G: float, n: int, t: int) -> float:
    """Variance 2*alpha*G^2 / (eps*(n-t+1)) giving an order-alpha Renyi
    privacy level eps for the sample at position t."""
    _check_position(n, t)
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if eps <= 0 or G <= 0:
        raise ValueError("eps and G must be positive")
    return 2.0 * alpha * G * G / (eps * (n - t + 1))


def noise_for_renyi_mdp(alpha: float, eps_metric: float, L_input: float,
                        domain_diam: float, n: int, t: int) -> float:
    """Variance 2*alpha*L_input^2*diam / (eps_metric*(n-t+1)) for the
    metric-privacy calibration."""
    _check_position(n, t)
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if eps_metric <= 0 or L_input <= 0:
        raise ValueError("eps_metric and L_input must be positive")
    if not math.isfinite(domain_diam) or domain_diam <= 0:
        raise ValueError("domain_diam must be finite and positive")
    return 2.0 * alpha * L_input * L_input * domain_diam / (eps_metric * (n - t + 1))


def _check_position(n: int, t: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= t <= n:
        raise ValueError(f"position t={t} outside [1, {n}]")


def rdp_to_dp(alpha: float, eps_renyi: float, delta: float) -> float:
    """Standard conversion eps = eps_renyi + ln(1/delta)/(alpha - 1)."""
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if eps_renyi < 0:
        raise ValueError("eps_renyi must be nonnegative")
    return eps_renyi + math.log(1.0 / delta) / (alpha - 1.0)


def noise_for_target_dp(eps: float, delta: float, G: float, n: int,
                        t: int) -> tuple[float, float]:
    """Smallest variance on the `DEFAULT_ALPHAS` grid whose converted
    guarantee meets a target (eps, delta): at each order the Renyi budget
    is eps less the `rdp_to_dp` offset of a zero Renyi level.  Returns
    (sigma_squared, alpha_used)."""
    _check_position(n, t)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    best = (math.inf, math.nan)
    for alpha in DEFAULT_ALPHAS:
        budget = eps - rdp_to_dp(alpha, 0.0, delta)
        if budget <= 0:
            continue
        sigma_sq = noise_for_renyi_dp(alpha, budget, G, n, t)
        if sigma_sq < best[0]:
            best = (sigma_sq, alpha)
    if not math.isfinite(best[0]):
        raise ValueError(f"target eps={eps} unreachable at delta={delta} on the alpha grid")
    return best
