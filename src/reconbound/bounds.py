"""Lower bounds on the reconstruction error achievable by any adversary
that draws n samples from a private learner's output distribution.

Each bound takes the privacy numbers it reads as plain floats (eps or a
KL slope first, delta last), n and only the geometry its hypotheses
read: a diameter, and for the metric Fano forms an effective dimension
too.
Callers check eps, delta and n >= 1 where they enter the program
(`harness.SweepConfig`, the `bounds` command).

All bounds are exact closed forms with their proof constants pinned,
each one routine at a closed-form separation, with KL budgets from
`kl_bound`: `two_point_bound` (Le Cam, `LECAM_CONSTANT` = 1/16) at
sep = diam for DP and at a sep <= diam for metric privacy,
and `fano_bound` at a quarter of diameters <= diam for metric privacy.
A metric learner whose KL at inputs r apart is kappa * r^2, as a
Gaussian pass's is, has its two-point and Fano bounds at that KL.

The prior unbiased bound yields +inf at eps = 0, meaning perfect
privacy forbids consistent unbiased reconstruction; CSV emitters
translate that into an explicit INFINITE flag.

The KL budget ``t * tanh(t/2)`` is computed by `kl_bound` and nowhere
else, so the bounds the sweep audits use the very function that the
tests' quadrature oracles verify.
"""

from __future__ import annotations

import enum
import math

LECAM_CONSTANT = 1.0 / 16.0


class DegenerateDimensionError(ValueError):
    """Effective dimension outside (ln 2, inf), where Fano's bound is defined."""


class Validity(enum.Enum):
    VALID = "VALID"
    VACUOUS = "VACUOUS"
    INFINITE = "INFINITE"


def kl_bound(eps: float, dist: float = 1.0) -> float:
    """KL budget t * tanh(t/2), t = eps * dist, between output laws of an
    eps-per-unit-distance private learner at dataset distance dist
    (dist = 1 recovers plain DP)."""
    if eps < 0 or dist < 0:
        raise ValueError("eps and dist must be nonnegative")
    t = eps * dist
    return t * math.tanh(t / 2.0)


def two_point_bound(sep: float, kl: float, n: int, delta: float = 0.0) -> float:
    """Le Cam's two-point bound C * sep^2 * exp(-n * kl) * (1 - delta) for
    a pair at distance sep whose output laws are within KL kl per draw."""
    if not 0 <= sep < math.inf:
        raise ValueError(f"separation {sep} must be finite and nonnegative")
    # sep * sep, not sep ** 2: float ** raises OverflowError past 1.3e154
    return LECAM_CONSTANT * sep * sep * math.exp(-n * kl) * (1.0 - delta)


def fano_bound(sep: float, kl: float, n: int, d_eff: float, delta: float = 0.0) -> float:
    """Fano's bound (sep/2)^2 * (d_eff - ln 2 - n * kl) / d_eff * (1 - delta)
    for at least e^d_eff hypotheses pairwise at least sep apart whose
    output laws are within KL kl per draw."""
    if not 0 <= sep < math.inf:
        raise ValueError(f"separation {sep} must be finite and nonnegative")
    return (sep / 2.0) * (sep / 2.0) * ((_fano_gap(d_eff) - n * kl) / d_eff) * (1.0 - delta)


def _fano_gap(d_eff: float) -> float:
    """d_eff - ln 2, formed first: exact near d_eff = ln 2 (Sterbenz)."""
    if not math.log(2.0) < d_eff < math.inf:
        raise DegenerateDimensionError(f"d_eff={d_eff} must be finite and exceed ln 2")
    return d_eff - math.log(2.0)


def _capped(eps: float, diam: float, reach: float) -> float:
    """diam capped at reach/eps; a NaN eps * diam keeps diam."""
    return diam if not eps * diam > reach else reach / eps


def dp_lecam_bound(eps: float, n: int, diam: float, delta: float = 0.0) -> float:
    """Two-point bound for (eps, delta)-DP learners at sep = diam, with
    the KL budget eps * tanh(eps/2)."""
    return two_point_bound(diam, kl_bound(eps), n, delta)


def mdp_lecam_bound(eps: float, n: int, diam: float, delta: float = 0.0) -> float:
    """Two-point bound for (eps, delta) metric-private learners, eps per
    unit of distance, on a domain of diameter diam: inputs sep apart have
    KL at most `kl_bound(eps, sep)`, so every sep in (0, diam] is valid.
    This one, diam capped at sqrt(2/n)/eps, maximizes the form under
    kl <= (eps*sep)^2/2; at eps = 0 the pair still costs diam^2/16."""
    sep = _capped(eps, diam, math.sqrt(2.0 / n))
    return two_point_bound(sep, kl_bound(eps, sep), n, delta)


def mdp_fano_bound(eps: float, n: int, diam: float, d_eff: float,
                   delta: float = 0.0) -> float:
    """Fano bound for (eps, delta) metric-private learners on a domain of
    diameter diam whose unit ball has log covering number d_eff at 1/2: a
    ball of diameter D <= diam holds a D/4-packing of e^d_eff points within
    KL `kl_bound(eps, D)`.  The larger value at D = diam capped at
    sqrt(gap/n)/eps and at 2*gap/(3n*eps), gap = d_eff - ln 2, the
    maximizers under kl <= (eps*D)^2/2 and kl <= eps*D; <= diam^2/64."""
    gap = _fano_gap(d_eff)
    sizes = (_capped(eps, diam, math.sqrt(gap / n)), _capped(eps, diam, 2.0 * gap / (3.0 * n)))
    return max(fano_bound(D / 4.0, kl_bound(eps, D), n, d_eff, delta) for D in sizes)


def gaussian_mdp_lecam_bound(kappa: float, n: int, diam: float) -> float:
    """Two-point bound for learners whose output laws at inputs r apart
    are within KL kappa * r^2 per draw, as a Gaussian pass's are, on a
    domain of diameter diam.  At sep = diam capped at 1/sqrt(n*kappa),
    the maximizer of sep^2 * exp(-n*kappa*sep^2); kappa = 0 keeps diam."""
    sep = _capped(math.sqrt(kappa), diam, math.sqrt(1.0 / n))
    return two_point_bound(sep, kappa * sep * sep, n)


def gaussian_mdp_fano_bound(kappa: float, n: int, diam: float, d_eff: float) -> float:
    """Fano bound for learners within KL kappa * r^2 per draw at inputs r
    apart, on a domain of diameter diam whose unit ball has log covering
    number d_eff at 1/2: a D/4-packing of e^d_eff points within KL
    kappa * D^2, at D = diam capped at sqrt(gap/(2n*kappa)), gap =
    d_eff - ln 2, the maximizer of D^2 * (gap - n*kappa*D^2)."""
    size = _capped(math.sqrt(kappa), diam, math.sqrt(_fano_gap(d_eff) / (2.0 * n)))
    return fano_bound(size / 4.0, kappa * size * size, n, d_eff)


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


def validity_check(bound_value: float, trivial_upper: float) -> Validity:
    """Compare a bound against the trivial risk, that of the domain's
    Chebyshev centre: (diam/2)^2 on any ball or two-point space, so 1 on
    the unit ball.  Bounds exceeding it are vacuous."""
    if trivial_upper < 0:
        raise ValueError("trivial_upper must be nonnegative")
    if math.isinf(bound_value):
        return Validity.INFINITE
    return Validity.VACUOUS if bound_value > trivial_upper else Validity.VALID
