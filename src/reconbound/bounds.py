"""Lower bounds on the reconstruction error achievable by any adversary
that draws n samples from a private learner's output distribution.

All bounds are exact closed forms with their proof constants pinned
(two-point reduction constant `LECAM_CONSTANT` = 1/16; the Fano bound
keeps the maximized form of its quadratic rather than a loose Omega).
`two_point_bound` alone evaluates the two-point form; the DP and Renyi
bounds are it at sep = diam, with KL budgets from `divergence`.

Division-by-zero privacy levels yield +inf, meaning perfect privacy
forbids consistent reconstruction; CSV emitters translate that into an
explicit INFINITE flag instead of serializing bare infinities without
context.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .divergence import kl_bound, renyi_bound
from .mechanisms import PrivacyParams

LECAM_CONSTANT = 1.0 / 16.0


class DegenerateDimensionError(ValueError):
    """Effective dimension too small for the multi-hypothesis bound."""


class Validity(enum.Enum):
    VALID = "VALID"
    VACUOUS = "VACUOUS"
    INFINITE = "INFINITE"


@dataclass(frozen=True)
class BoundQuery:
    """Everything a bound evaluation can consume.

    ``n`` counts the adversary's samples from the output distribution,
    not the training-set size.  ``d_eff`` is the log covering number of
    the domain's unit ball (see `metric_space.effective_dimension`).
    """

    params: PrivacyParams
    n: int = 1
    diam: float = math.nan
    coord_diam_sq_sum: float = math.nan
    d_eff: float = math.nan

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")


def two_point_bound(sep: float, kl: float, n: int, delta: float = 0.0) -> float:
    """Le Cam's two-point bound C * sep^2 * exp(-n * kl) * (1 - delta) for
    a pair at distance sep whose output laws are within KL kl per draw."""
    # sep * sep, not sep ** 2: float ** raises OverflowError past 1.3e154
    return LECAM_CONSTANT * sep * sep * math.exp(-n * kl) * (1.0 - delta)


def dp_lecam_bound(q: BoundQuery) -> float:
    """Two-point bound for (eps, delta)-DP learners at sep = diam, with
    the KL budget eps * tanh(eps/2)."""
    if not math.isfinite(q.diam) or q.diam < 0:
        raise ValueError("diam must be finite and nonnegative")
    return two_point_bound(q.diam, kl_bound(q.params.eps), q.n, q.params.delta)


def renyi_dp_lecam_bound(q: BoundQuery) -> float:
    """Two-point bound for order-alpha Renyi DP at sep = diam, with the
    KL budget min(eps, 3*alpha*eps^2/2)."""
    if not math.isfinite(q.diam) or q.diam < 0:
        raise ValueError("diam must be finite and nonnegative")
    return two_point_bound(q.diam, renyi_bound(q.params.eps, q.params.alpha), q.n)


def mdp_lecam_bound(q: BoundQuery) -> float:
    """Two-point bound for (eps, delta) metric-private learners, eps per
    unit of distance: (1 - delta) / (2 * n * e * eps^2).  Infinite where
    eps^2 underflows to 0, the correctly rounded value of a bound beyond
    the float range."""
    e = q.params.eps
    if e * e == 0:
        return math.inf
    return (1.0 - q.params.delta) / (2.0 * q.n * math.e * e * e)


def mdp_fano_bound(q: BoundQuery) -> float:
    """Multi-hypothesis bound for metric privacy in the high-dimensional
    regime, eps per unit of distance, in its maximized closed form
    (d_eff - ln2)^2 / (8 * n * eps^2 * d_eff) * (1 - delta).  Infinite
    where eps^2 underflows to 0.

    Requires d_eff > ln 2 (at least two distinguishable hypotheses).
    """
    d_eff = q.d_eff
    if not d_eff > math.log(2.0):
        raise DegenerateDimensionError(f"d_eff={d_eff} must exceed ln 2")
    e = q.params.eps
    if e * e == 0:
        return math.inf
    gap = d_eff - math.log(2.0)
    # gap * gap, not gap ** 2: float ** raises OverflowError past 1.3e154
    return gap * gap / (8.0 * q.n * e * e * d_eff) * (1.0 - q.params.delta)


def unbiased_rdp_bound(q: BoundQuery) -> float:
    """Restated prior bound for unbiased attacks on order-2 Renyi-DP
    learners: sum_i diam_i^2 / (4 * (e^eps - 1)), with e^eps - 1 from
    `math.expm1`, which keeps its relative precision at small eps.
    Infinite at eps=0."""
    if not q.coord_diam_sq_sum >= 0:
        raise ValueError("coord_diam_sq_sum must be nonnegative")
    eps = q.params.eps
    if eps == 0:
        return math.inf
    try:
        return q.coord_diam_sq_sum / (4.0 * math.expm1(eps))
    except OverflowError:  # e^eps beyond the float range: 0 is still a lower bound
        return 0.0


def unbiased_rdp_validity_threshold(d: int) -> float:
    """Privacy level below which `unbiased_rdp_bound` exceeds the trivial
    upper bound on the unit-ball construction: ln(1 + d/4)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return math.log(1.0 + d / 4.0)


def validity_check(bound_value: float, trivial_upper: float) -> Validity:
    """Compare a bound against the trivial upper bound diam^2 on any
    reconstruction error; bounds exceeding it are vacuous."""
    if trivial_upper < 0:
        raise ValueError("trivial_upper must be nonnegative")
    if math.isinf(bound_value):
        return Validity.INFINITE
    return Validity.VACUOUS if bound_value > trivial_upper else Validity.VALID
