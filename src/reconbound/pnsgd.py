"""Single-pass projected noisy stochastic gradient descent.

One pass of L2-regularized logistic regression over the dataset in
order, from 0, a fresh Gaussian perturbation of each gradient, an L2-ball
projection after every step, and only the final iterate released.
Because later samples receive less subsequent noise (privacy
amplification by iteration, Feldman et al. 2018), a target privacy level
for the sample at position t of n needs variance proportional to
1/(n - t + 1).  The last sample gets no later noise, so it is the worst
case: the Renyi noise calibrations below are made for it, and so protect
every sample of the pass.

The standard calibration is driven by a global gradient bound G: at
variance sigma^2 the pass's Renyi levels are alpha*rho at every order
alpha, with slope rho = 2*G^2/sigma^2 (Mironov 2017), so one number meets
an (eps, delta) target and bounds the pass's KL.  The metric-privacy one
is driven by the gradients' input Lipschitz constant and the diameter of
the data domain.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .mechanisms import sigmoid

# noise is drawn per cell in blocks of steps, holding at most this many
# floats at once across all chains
NOISE_BLOCK_FLOATS = 1 << 17


def project_l2(v: np.ndarray, radius: float) -> np.ndarray:
    """L2 projection onto the centered ball of the given radius, of one
    vector or of each row of a stack."""
    v = np.asarray(v, dtype=float)
    norms = np.sqrt(np.einsum("...i,...i->...", v, v))
    return v * (radius / np.maximum(norms, radius))[..., None]


def pnsgd_run(sigmas: np.ndarray, signed: np.ndarray, lam: float, radius: float,
              rngs: Sequence[np.random.Generator], trials: int) -> np.ndarray:
    """Run one pass of ``trials`` chains per cell in lockstep from 0 over
    the signed rows y*x of ``signed``, cell c at noise level ``sigmas[c]``
    with its noise from ``rngs[c]``, and return the final iterates as a
    (cells, trials, d) array.

    The step is 1/(1/4 + lam), the inverse of the smoothness of the
    lam-regularized logistic loss, so every step is contractive.  A noisy
    cell draws its noise in (steps, trials, d) blocks, step by step in
    the order of one whole (n, trials, d) draw, so its result depends on
    its generator, trials, n and d, and not on the block size or the
    other cells of the pass; a cell with sigma 0 draws nothing, and one
    with sigma inf draws nothing and releases NaN, as it carries no
    information.  Intermediate iterates are never exposed.
    """
    n, d = signed.shape
    if n == 0:
        raise ValueError("dataset must be nonempty")
    sigmas = np.asarray(sigmas, dtype=float)
    cells = len(rngs)
    if sigmas.shape != (cells,) or not np.all(sigmas >= 0):  # NaN included
        raise ValueError("sigmas must be nonnegative, one per cell")
    w = np.zeros((cells, trials, d))
    block = max(1, min(n, NOISE_BLOCK_FLOATS // (cells * trials * d)))
    noise = np.zeros((block, cells, trials, d))
    noisy = [(c, rngs[c], float(s)) for c, s in enumerate(sigmas) if 0 < s < math.inf]
    eta = 1.0 / (0.25 + lam)
    for i, z in enumerate(signed):
        k = i % block
        if k == 0:
            steps = min(block, n - i)
            for c, gen, s in noisy:
                noise[:steps, c] = gen.normal(0.0, s, size=(steps, trials, d))
        grad = -sigmoid(-np.einsum("ctd,d->ct", w, z))[..., None] * z + lam * w
        w = project_l2(w - eta * (grad + noise[k]), radius)
    w[sigmas == math.inf] = math.nan
    return w


def noise_for_renyi_mdp(alpha: float, eps_metric: float, L_input: float,
                        domain_diam: float) -> float:
    """Variance 2*alpha*L_input^2*diam / eps_metric for the metric-privacy
    calibration."""
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if eps_metric <= 0 or L_input <= 0:
        raise ValueError("eps_metric and L_input must be positive")
    if not math.isfinite(domain_diam) or domain_diam <= 0:
        raise ValueError("domain_diam must be finite and positive")
    return 2.0 * alpha * L_input * L_input * domain_diam / eps_metric


def renyi_slope_for_dp(eps: float, delta: float) -> float:
    """Largest slope rho whose Renyi levels alpha*rho meet (eps, delta)-DP
    by the standard conversion alpha*rho + L/(alpha - 1), L = ln(1/delta).
    It is least at alpha = 1 + sqrt(L/rho), where it is rho + 2*sqrt(rho*L)
    = eps, so sqrt(rho) = eps/(sqrt(L + eps) + sqrt(L)), free of
    cancellation.  Every eps > 0 gives a rho; below about eps = 1e-161 at
    delta = 1e-5 it underflows to 0, the no-information limit."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    log_inv_delta = math.log(1.0 / delta)
    sqrt_rho = eps / (math.sqrt(log_inv_delta + eps) + math.sqrt(log_inv_delta))
    return sqrt_rho * sqrt_rho
