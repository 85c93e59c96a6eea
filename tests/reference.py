"""Independent verification oracles the tests check the package against:
closed forms for Laplace/Gaussian pairs, a deterministic adaptive
quadrature that verifies them and the KL budget `bounds.kl_bound`, the
total variation of a finite channel's rows, and a grid discretization of
the unit L2 ball.

They import nothing of the package but `metric_space`, whose space the
discretized ball is, so no oracle can come to call the code it checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reconbound.metric_space import FiniteMetricSpace, pairwise_distances

LAPLACE = "laplace"
GAUSSIAN = "gaussian"

_QUAD_DEPTH_CAP = 40
_INITIAL_PANELS = 32
# tail mass of laplace/gaussian beyond 40 scale units is < 1e-15
_SUPPORT_SCALES = 40.0
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


class QuadratureError(RuntimeError):
    """Adaptive refinement exceeded the depth cap without converging."""


@dataclass(frozen=True)
class AnalyticPair:
    """Two location-shifted distributions of a common family and scale,
    used as verification targets for the budget functions."""

    family: str
    loc1: float
    loc2: float
    scale: float

    def __post_init__(self):
        if self.family not in (LAPLACE, GAUSSIAN):
            raise ValueError(f"unknown family {self.family!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def delta(self) -> float:
        return self.loc1 - self.loc2


def laplace_logpdf(x, loc, scale: float):
    x = np.asarray(x, dtype=float)
    return -np.abs(x - loc) / scale - math.log(2.0 * scale)


def gaussian_logpdf(x, loc, scale: float):
    x = np.asarray(x, dtype=float)
    return -0.5 * ((x - loc) / scale) ** 2 - math.log(scale * math.sqrt(2.0 * math.pi))


def analytic_kl(pair: AnalyticPair) -> float:
    """Closed-form KL divergence for an equal-scale pair."""
    d = abs(pair.delta)
    if pair.family == LAPLACE:
        r = d / pair.scale
        return r + math.exp(-r) - 1.0
    return d * d / (2.0 * pair.scale ** 2)


def analytic_renyi(pair: AnalyticPair, alpha: float) -> float:
    """Closed-form Renyi divergence; Gaussian pairs only.  Laplace pairs
    have no elementary closed form here and are routed to `numeric_kl`
    style integration by callers."""
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if pair.family != GAUSSIAN:
        raise ValueError("analytic Renyi divergence is only available for gaussian pairs")
    return alpha * pair.delta ** 2 / (2.0 * pair.scale ** 2)


def _panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return float(half * np.dot(_WEIGHTS, f(mid + half * _NODES)))


def _adaptive(f, a: float, b: float, tol: float, depth: int, whole: float) -> float:
    mid = 0.5 * (a + b)
    left = _panel(f, a, mid)
    right = _panel(f, mid, b)
    if abs(left + right - whole) <= tol:
        return left + right
    if depth >= _QUAD_DEPTH_CAP:
        raise QuadratureError(f"no convergence after depth {depth} on [{a}, {b}]")
    return (_adaptive(f, a, mid, tol / 2.0, depth + 1, left)
            + _adaptive(f, mid, b, tol / 2.0, depth + 1, right))


def integrate(f: Callable[[np.ndarray], np.ndarray], support: tuple[float, float],
              tol: float = 1e-8) -> float:
    """Adaptive bisection with a 15-point Gauss-Legendre rule per panel.

    The support is pre-split into ``_INITIAL_PANELS`` uniform panels before
    refinement so narrow concentrated mass cannot slip between the nodes
    of one huge panel and fake early agreement.
    """
    a, b = float(support[0]), float(support[1])
    if not b > a:
        raise ValueError("support must be a nondegenerate interval")
    edges = np.linspace(a, b, _INITIAL_PANELS + 1)
    sub_tol = tol / _INITIAL_PANELS
    return sum(_adaptive(f, lo, hi, sub_tol, 0, _panel(f, lo, hi))
               for lo, hi in zip(edges[:-1], edges[1:]))


def numeric_kl(p_logpdf: Callable, q_logpdf: Callable,
               support: tuple[float, float]) -> float:
    """KL divergence by quadrature of p * log(p/q) over the support.

    This is the independent oracle the closed forms are checked against;
    q must be positive wherever p is.
    """

    def integrand(x):
        lp = np.asarray(p_logpdf(x), dtype=float)
        lq = np.asarray(q_logpdf(x), dtype=float)
        out = np.where(np.isneginf(lp), 0.0, np.exp(lp) * (lp - lq))
        return out

    return integrate(integrand, support)


def numeric_tv(p_logpdf: Callable, q_logpdf: Callable,
               support: tuple[float, float]) -> float:
    """Total variation distance 0.5 * integral |p - q|."""

    def integrand(x):
        return 0.5 * np.abs(np.exp(p_logpdf(x)) - np.exp(q_logpdf(x)))

    return integrate(integrand, support)


def pair_support(pair: AnalyticPair) -> tuple[float, float]:
    """Truncated integration window covering both locations; the omitted
    tail mass is below 1e-15."""
    lo = min(pair.loc1, pair.loc2) - _SUPPORT_SCALES * pair.scale
    hi = max(pair.loc1, pair.loc2) + _SUPPORT_SCALES * pair.scale
    return lo, hi


def pair_logpdfs(pair: AnalyticPair) -> tuple[Callable, Callable]:
    logpdf = laplace_logpdf if pair.family == LAPLACE else gaussian_logpdf
    return (lambda x: logpdf(x, pair.loc1, pair.scale),
            lambda x: logpdf(x, pair.loc2, pair.scale))


def numeric_kl_pair(pair: AnalyticPair) -> float:
    p, q = pair_logpdfs(pair)
    return numeric_kl(p, q, pair_support(pair))


def bh_tv_bound(kl: float) -> float:
    """Total-variation cap 1 - 0.5*exp(-KL) implied by a KL value."""
    if kl < 0:
        raise ValueError("kl must be nonnegative")
    return 1.0 - 0.5 * math.exp(-kl)


def channel_tv(mech, i: int, j: int) -> float:
    """Total variation between rows i and j of an `oracle.FiniteMechanism`."""
    return float(0.5 * np.sum(np.abs(mech.channel[i] - mech.channel[j])))


def discretize_unit_ball(dim: int, spacing: float) -> FiniteMetricSpace:
    """Axis-aligned grid restricted to the unit L2 ball."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    k = int(math.floor(1.0 / spacing + 1e-9))
    axis = spacing * np.arange(-k, k + 1)
    pts = [p for p in itertools.product(axis, repeat=dim)
           if np.sqrt(np.sum(np.square(p))) <= 1.0 + 1e-9]
    return FiniteMetricSpace(points=tuple(map(tuple, pts)), dist=pairwise_distances(pts))
