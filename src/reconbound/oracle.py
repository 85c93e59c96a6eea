"""Exact Bayes computations on finite channels, by enumerating the
outcome type classes of n draws.  This is the ground truth the
closed-form lower bounds are certified against on tiny instances.

The product likelihood of n ordered outcomes depends only on how many
times each outcome occurs, so every sum over the n_outcomes^n ordered
tuples is computed over the C(n + n_outcomes - 1, n) type classes
(multisets of n outcomes), each weighted by its number of orderings
n!/prod(c_o!).  A class's likelihood is the product of its n channel
entries, as for any one of its orderings, so zero entries stay exact
zeros and only the order of the floating-point operations changes.
Instances whose ordered tuple count n_outcomes^n exceeds the cap are
refused rather than sampled.

The type-class index (the classes' outcomes, position-major, and their
sizes) depends only on (n_outcomes, n), not on the channel, and so does
the plan that multiplies it out.  Classes come in lexicographic order,
so they share prefixes: the plan takes one `np.prod` over the first j0
positions of each distinct j0-prefix, then one level per further
position, taking each distinct prefix's product to its children times
the channel entry of each child's new outcome.  Every class's entries
are still multiplied left to right in draw order, so the bits are those
of one product per class.  A level is used only where it at least
doubles the prefix count.  Growing prefixes from j - 1 to j positions
multiplies their count by (j + n_outcomes - 1)/j, which falls with j, so
every level pays when n < n_outcomes (j0 = 1); otherwise the last one
does not, and each class is one product (j0 = n).  Index, sizes
and plan are built once per key and kept in a bounded module-level LRU
cache of `_TYPE_CLASS_CACHE_SIZE` entries, as read-only arrays, so a
certificate and every point of an eps grid share them.  The products are
built class-major and handed out transposed, as a column-major
n_inputs x classes matrix, and the last such matrix is kept, read-only,
for the next sum of the same mechanism object and n, so each certificate
enumerates once (110 kB at 8 inputs and n = 6, 8 MB at 1000 inputs and
n = 1).  The cap is checked, at its current value, before the cache or
the memo is consulted.

Why the certificates are sound: the closed-form bounds are proved by
reducing estimation to testing under the uniform prior on the channel
inputs (Le Cam's two-point method, Fano's inequality), so each bounds
that prior's Bayes risk from below, over all estimators.  The Bayes
estimator here is restricted to the metric space's own points, which
can only raise that risk.  The restricted risk must therefore dominate
every certified bound, and a value below one is a defect.  Because it is
an upper envelope of the unrestricted Bayes risk (an estimator could,
e.g., output midpoints), a certificate against it is weaker than one
against the unrestricted risk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .bounds import dp_lecam_bound, two_point_bound
from .metric_space import FiniteMetricSpace

ENUMERATION_CAP = 1_000_000
# keys (n_outcomes, n) kept by `_type_classes`; an entry holds at most
# (n + 6) * ENUMERATION_CAP numbers: n + 1 per class for the index and
# sizes, fewer than 4 per class for the plan's levels, as each at least
# doubles the prefix count, and at most 1 for a head other than the index;
# a run uses one or two keys
_TYPE_CLASS_CACHE_SIZE = 8
# (mech, n, likelihoods, class sizes) of the last `_type_likelihoods` call
_last_likelihoods = None


class EnumerationCapError(ValueError):
    """outcome^n tuples exceed the enumeration cap."""


class CertificateError(RuntimeError):
    """An exact risk fell below a bound it must dominate."""


@dataclass(frozen=True)
class FiniteMechanism:
    """A finite channel: row-stochastic matrix of P(outcome | input).

    Input i stands for point i of the `FiniteMetricSpace` that a risk
    computation takes.
    """

    channel: np.ndarray

    def __post_init__(self):
        c = np.array(self.channel, dtype=float)
        if c.ndim != 2 or c.size == 0:
            raise ValueError("channel must be a nonempty 2-D matrix")
        if not np.all((c >= 0) & (c <= 1)):  # NaN included
            raise ValueError("channel entries must be finite and lie in [0, 1]")
        if np.any(np.abs(c.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("channel rows must sum to 1 within 1e-12")
        c.setflags(write=False)
        # a read-only view cannot be made writable again, as the memo needs
        object.__setattr__(self, "channel", c.view())

    @property
    def n_inputs(self) -> int:
        return self.channel.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.channel.shape[1]


def randomized_response(eps: float, k: int = 2) -> FiniteMechanism:
    """The canonical eps-private finite channel on k symbols: keep the
    input with probability e^eps/(e^eps + k - 1), else flip uniformly."""
    if not eps >= 0:  # NaN included
        raise ValueError(f"eps {eps} must be nonnegative")
    if k < 2:
        raise ValueError("k must be >= 2")
    # built from e^-eps, which cannot overflow at any eps
    stay = 1.0 / (1.0 + (k - 1) * math.exp(-eps))
    flip = math.exp(-eps) * stay
    c = np.full((k, k), flip)
    np.fill_diagonal(c, stay)
    return FiniteMechanism(channel=c)


def dp_epsilon_of(mech: FiniteMechanism) -> float:
    """Largest absolute log-likelihood ratio across input pairs and
    outcomes; +inf when any entry is zero."""
    c = mech.channel
    if np.any(c == 0.0):
        return math.inf
    logs = np.log(c)
    return float(np.max(logs.max(axis=0) - logs.min(axis=0)))


@lru_cache(maxsize=_TYPE_CLASS_CACHE_SIZE)
def _type_classes(k: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """The channel-independent index of the type classes of n draws from
    k outcomes, with its multiplication plan: an (n, classes) array, one
    row per draw position and one nondecreasing outcome sequence per
    column; the number of ordered tuples in each class; the head, the
    outcomes of each distinct j0-prefix, position-major; and the levels,
    one (parent, outcome) pair per further position, naming each distinct
    prefix's parent prefix and new outcome.  Every array is read-only,
    because every caller with the same (k, n) shares them."""
    # a class's size is the multinomial n!/prod(c_o!), built over
    # prefixes: growing a prefix to length j + 1 with an outcome it then
    # holds r times multiplies the prefix's multinomial by (j + 1)/r.
    # Every step is an integer at most n * k^n, so the float arithmetic
    # is exact below 2^53.
    index = np.array(list(combinations_with_replacement(range(k), n)), dtype=np.intp).T.copy()
    mult = run = np.ones(index.shape[1])
    for j in range(1, n):
        run = np.where(index[j] == index[j - 1], run + 1.0, 1.0)
        mult = mult * (j + 1) / run
    # levels run from j0 to n and each must at least double the prefix
    # count, which the step to j positions multiplies by (j + k - 1)/j
    j0 = 1 if n < k else n
    # the position at which each class first differs from the one before:
    # the classes differing before position j start the distinct j-prefixes
    first = np.zeros(index.shape[1], dtype=np.intp)
    first[1:] = np.argmax(index[:, 1:] != index[:, :-1], axis=0)
    starts = np.flatnonzero(first < j0)
    head = index if j0 == n else index[:j0, starts]
    levels = []
    for j in range(j0, n):
        child = np.flatnonzero(first <= j)
        levels.append((np.searchsorted(starts, child, side="right") - 1, index[j, child]))
        starts = child
    for array in (index, mult, head, *(a for level in levels for a in level)):
        array.setflags(write=False)
    return index, mult, head, tuple(levels)


def _type_likelihoods(mech: FiniteMechanism, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Product likelihoods of the outcome type classes of n draws, each
    class's entries multiplied in draw order along the cached plan: the
    (n_inputs, n_types) matrix, column-major and read-only, and the number
    of ordered tuples in each class.  The cap applies to the ordered tuple
    count, checked on every call before the memo or the cached index is
    looked up; past the cap's bit length 2^n alone exceeds it, so k^n is
    formed only for n below that.  The last result is kept, with its
    mechanism, as the module docstring says."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k, cap = mech.n_outcomes, ENUMERATION_CAP
    if (k > 1 and n > cap.bit_length()) or k ** n > cap:
        raise EnumerationCapError(f"{k}^{n} tuples exceed cap {cap}")
    global _last_likelihoods
    last = _last_likelihoods
    if last is not None and last[0] is mech and last[1] == n:
        return last[2], last[3]
    _, mult, head, levels = _type_classes(k, n)
    # class-major rows, handed out transposed: the sums over inputs read
    # this column-major layout, and their bits depend on it
    rows = mech.channel.T
    like = np.prod(rows.take(head, axis=0), axis=0)
    for parent, outcome in levels:
        like = like.take(parent, axis=0)
        like *= rows.take(outcome, axis=0)
    like.setflags(write=False)
    like = like.T
    _last_likelihoods = (mech, n, like, mult)
    return like, mult


def _check_space(mech: FiniteMechanism, space: FiniteMetricSpace) -> None:
    """Refuse a space without a point for every channel input."""
    if len(space) < mech.n_inputs:
        raise ValueError(f"space has {len(space)} point{'s' * (len(space) != 1)}, "
                         f"fewer than the channel's {mech.n_inputs} inputs")


def exact_bayes_risk(mech: FiniteMechanism, space: FiniteMetricSpace, n: int = 1) -> float:
    """Exact Bayes risk under a uniform prior over the mechanism inputs,
    squared-distance loss, and estimates restricted to the space's points.

    The closed-form bounds lower-bound this prior's Bayes risk over all
    estimators, and the restriction can only raise it, so this value
    must dominate each of them (see the module docstring).  A squared
    distance beyond the float range is refused: an infinite risk would
    dominate every bound and certify nothing.
    """
    _check_space(mech, space)
    like, mult = _type_likelihoods(mech, n)
    with np.errstate(over="ignore"):
        sq = space.dist[:mech.n_inputs] ** 2
    if not np.all(np.isfinite(sq)):
        raise ValueError("squared distances overflow the float range")
    cost = sq.T @ like          # candidate x type class: posterior-weighted loss
    return float(reduce(np.minimum, cost) @ mult / mech.n_inputs)


def exact_identification_error(mech: FiniteMechanism, n: int = 1) -> float:
    """Bayes error of identifying the input from n draws (uniform prior)."""
    like, mult = _type_likelihoods(mech, n)
    # a row fold is exact (max and min do not round) and beats axis 0 on this
    # column-major matrix; sums stay on axis 0, as a fold reorders additions
    return float(1.0 - reduce(np.maximum, like) @ mult / mech.n_inputs)


def mutual_information(mech: FiniteMechanism, n: int = 1) -> float:
    """Mutual information in nats between a uniform input and n draws."""
    like, mult = _type_likelihoods(mech, n)
    marginal = like.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(like > 0, like * (np.log(like) - np.log(marginal)), 0.0)
    return float(terms.sum(axis=0) @ mult / mech.n_inputs)


def channel_kl(mech: FiniteMechanism, i: int, j: int) -> float:
    p, q = mech.channel[i], mech.channel[j]
    if np.any((p > 0) & (q == 0)):
        return math.inf
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def product_tv(mech: FiniteMechanism, n: int) -> tuple[float, float]:
    """Exact total variation between the n-fold products of a two-input
    channel's rows, and their overlap sum(min(p, q)) = 1 - TV, summed
    from the same enumeration so it keeps its precision where TV is
    near 1."""
    if mech.n_inputs != 2:
        raise ValueError("product TV requires exactly two inputs")
    like, mult = _type_likelihoods(mech, n)
    return (float(0.5 * (np.abs(like[0] - like[1]) @ mult)),
            float(np.minimum(like[0], like[1]) @ mult))


class LeCamReport(NamedTuple):
    separation: float
    n: int
    epsilon: float
    kl_single: float
    tv_product: float
    lecam_bound: float
    bh_bound: float
    dp_bound: float
    exact_risk: float


def lecam_certificate(mech: FiniteMechanism, space: FiniteMetricSpace,
                      n: int = 1) -> LeCamReport:
    """Exact two-point certificate chain.

    Computes the exact Bayes risk, the two-point testing bound
    (t^2/2)(1 - TV_n) at t = separation/2 (with 1 - TV_n the products'
    overlap, free of cancellation), its relaxation `two_point_bound` at
    the channel's KL, and the closed form the sweep audits,
    `dp_lecam_bound` (the same routine at the eps budget, diam = sep),
    then asserts the chain exact >= testing >= relaxation >= closed form.
    """
    if mech.n_inputs != 2:
        raise ValueError("the two-point certificate requires exactly two inputs")
    _check_space(mech, space)
    sep = float(space.dist[0, 1])
    t = sep / 2.0
    tv_n, overlap = product_tv(mech, n)
    kl = channel_kl(mech, 0, 1)
    eps = dp_epsilon_of(mech)
    lecam = (t * t / 2.0) * overlap
    bh = two_point_bound(sep, kl, n)
    dp_bound = dp_lecam_bound(eps, n, sep)
    exact = exact_bayes_risk(mech, space, n)
    slack = 1e-12 * max(1.0, exact)
    if not (exact + slack >= lecam and lecam + slack >= bh and bh + slack >= dp_bound):
        raise CertificateError(
            f"certificate chain violated: exact={exact} lecam={lecam} "
            f"bh={bh} dp={dp_bound}")
    return LeCamReport(separation=sep, n=n, epsilon=eps, kl_single=kl,
                       tv_product=tv_n, lecam_bound=lecam, bh_bound=bh,
                       dp_bound=dp_bound, exact_risk=exact)


class FanoReport(NamedTuple):
    n_inputs: int
    n: int
    mutual_info: float
    fano_error_bound: float
    exact_error: float


def fano_certificate(mech: FiniteMechanism, space: FiniteMetricSpace,
                     n: int = 1) -> FanoReport:
    """Multi-hypothesis certificate: exact identification error versus
    the mutual-information bound 1 - (I + ln 2)/ln M."""
    m = mech.n_inputs
    if m < 3:
        raise ValueError("the multi-hypothesis certificate needs at least 3 inputs")
    _check_space(mech, space)
    info = mutual_information(mech, n)
    fano = 1.0 - (info + math.log(2.0)) / math.log(m)
    exact = exact_identification_error(mech, n)
    if exact + 1e-12 < fano:
        raise CertificateError(f"exact error {exact} below information bound {fano}")
    return FanoReport(n_inputs=m, n=n, mutual_info=info,
                      fano_error_bound=fano, exact_error=exact)
