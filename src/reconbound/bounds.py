"""Lower bounds on the reconstruction error achievable by any adversary
that draws n samples from a private learner's output distribution.

Each bound takes the privacy numbers it reads as plain floats (eps
first, delta last), n and only the geometry its hypotheses read: a
diameter (DP, Renyi and metric two-point forms) or an effective
dimension (metric Fano form).  Callers check eps, delta, alpha and
n >= 1 where they enter the program (`harness.SweepConfig`, the
`bounds` command).

All bounds are exact closed forms with their proof constants pinned
(two-point reduction constant `LECAM_CONSTANT` = 1/16; the Fano bound
keeps the maximized form of its quadratic rather than a loose Omega).
`two_point_bound` alone evaluates the two-point form and checks its
separation; the DP and Renyi bounds are it at sep = diam and the metric
one at a closed-form sep <= diam, with KL budgets from `divergence`.

The metric Fano and prior unbiased bounds yield +inf at eps = 0 and
wherever they exceed the float range, meaning perfect privacy forbids
consistent reconstruction; CSV emitters translate that into an explicit
INFINITE flag instead of serializing bare infinities without context.
"""

from __future__ import annotations

import enum
import math
import sys

from .divergence import kl_bound, renyi_bound

LECAM_CONSTANT = 1.0 / 16.0


class DegenerateDimensionError(ValueError):
    """Effective dimension outside (ln 2, inf), where the multi-hypothesis
    bound is defined."""


class Validity(enum.Enum):
    VALID = "VALID"
    VACUOUS = "VACUOUS"
    INFINITE = "INFINITE"


def two_point_bound(sep: float, kl: float, n: int, delta: float = 0.0) -> float:
    """Le Cam's two-point bound C * sep^2 * exp(-n * kl) * (1 - delta) for
    a pair at distance sep whose output laws are within KL kl per draw."""
    if not 0 <= sep < math.inf:
        raise ValueError(f"separation {sep} must be finite and nonnegative")
    # sep * sep, not sep ** 2: float ** raises OverflowError past 1.3e154
    return LECAM_CONSTANT * sep * sep * math.exp(-n * kl) * (1.0 - delta)


def dp_lecam_bound(eps: float, n: int, diam: float, delta: float = 0.0) -> float:
    """Two-point bound for (eps, delta)-DP learners at sep = diam, with
    the KL budget eps * tanh(eps/2)."""
    return two_point_bound(diam, kl_bound(eps), n, delta)


def renyi_dp_lecam_bound(eps: float, alpha: float, n: int, diam: float) -> float:
    """Two-point bound for order-alpha Renyi DP at sep = diam, with the
    KL budget min(eps, 3*alpha*eps^2/2)."""
    return two_point_bound(diam, renyi_bound(eps, alpha), n)


def mdp_lecam_bound(eps: float, n: int, diam: float, delta: float = 0.0) -> float:
    """Two-point bound for (eps, delta) metric-private learners, eps per
    unit of distance, on a domain of diameter diam: inputs sep apart have
    KL at most `kl_bound(eps, sep)`, so every sep in (0, diam] is valid.
    This one, diam capped at sqrt(2/n)/eps, maximizes the form under
    kl <= (eps*sep)^2/2; at eps = 0 the pair still costs diam^2/16."""
    reach = math.sqrt(2.0 / n)
    # a NaN eps * diam keeps sep = diam, which two_point_bound rejects
    sep = diam if not eps * diam > reach else reach / eps
    return two_point_bound(sep, kl_bound(eps, sep), n, delta)


def mdp_fano_bound(eps: float, n: int, d_eff: float, delta: float = 0.0) -> float:
    """Multi-hypothesis bound for metric privacy in the high-dimensional
    regime, eps per unit of distance, in its maximized closed form
    (d_eff - ln2)^2 / (8 * n * eps^2 * d_eff) * (1 - delta).  Infinite
    at eps = 0 and wherever the bound is beyond the float range.

    ``d_eff`` is the log covering number of the domain's unit ball (see
    `metric_space.effective_dimension`); it must be finite and exceed
    ln 2 (at least two distinguishable hypotheses).
    """
    if not math.log(2.0) < d_eff < math.inf:
        raise DegenerateDimensionError(f"d_eff={d_eff} must be finite and exceed ln 2")
    if eps == 0:
        return math.inf
    gap = d_eff - math.log(2.0)
    # gap * gap, not gap ** 2: float ** raises OverflowError past 1.3e154
    denominator = 8.0 * n * eps * eps * d_eff
    if (eps * eps < sys.float_info.min or math.isinf(gap * gap)
            or math.isinf(denominator)):
        # eps^2 subnormal (few significant bits) or a product past the
        # float range: gap / d_eff <= 1, so no quotient below overflows
        # unless the bound does, and dividing by eps last cannot
        # underflow before the bound does
        return gap / d_eff * gap / (8.0 * n) / eps / eps * (1.0 - delta)
    return gap * gap / denominator * (1.0 - delta)


def unbiased_rdp_bound(eps: float, coord_diam_sq_sum: float) -> float:
    """Restated prior bound for unbiased attacks on order-2 Renyi-DP
    learners: sum_i diam_i^2 / (4 * (e^eps - 1)), with e^eps - 1 from
    `math.expm1`, which keeps its relative precision at small eps.
    Infinite at eps=0."""
    if not 0 <= coord_diam_sq_sum < math.inf:
        raise ValueError("coord_diam_sq_sum must be finite and nonnegative")
    if eps == 0:
        return math.inf
    try:
        return coord_diam_sq_sum / (4.0 * math.expm1(eps))
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
