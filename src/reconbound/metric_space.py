"""Data domains for the audit: finite metric spaces, covering bounds for
unit balls, and exact covering/packing search.

Spaces built from vectors are Euclidean, as are the sweeps' unit-ball
domain and the metric-privacy guarantees; a distance-matrix file may
carry any metric.  The triangle inequality is checked up to a slack
relative to the largest distance, so rounding at any scale passes.

Covering and packing numbers are computed over the space's own points
(internal covers), exactly, by branch-and-bound over bitmasks of points.
An external cover with arbitrary centers can be smaller, but only by at
most a factor-two change of radius, and internal covers keep the search
exact.  Spaces larger than the search cap are rejected outright rather
than approximated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Largest space the exact searches accept.  Both branch-and-bounds are
# exponential in the number of points in the worst case; on planar
# clouds of 20-25 points they take milliseconds.  Each recurses once per
# point, about 21 frames at 20 points, far inside the recursion limit.
SEARCH_CAP = 20

# Boundary slack for distance comparisons, relative to eta or to the
# largest distance.  Grid coordinates carry float rounding of order 1e-16,
# so points at distance exactly eta must not fall out of a cover by one ulp.
_SLACK = 1e-9


class SizeCapError(ValueError):
    """The space exceeds the exhaustive-search cap."""


def pairwise_distances(vectors: np.ndarray) -> np.ndarray:
    """All-pairs Euclidean distance matrix for row vectors."""
    x = np.atleast_2d(np.asarray(vectors, dtype=float))
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite point set with an explicit pairwise distance matrix.

    ``points`` are opaque identifiers; all geometry lives in ``dist``.
    Validated on construction: finiteness, nonnegativity, zero diagonal,
    symmetry, and the triangle inequality over all triples up to a slack
    relative to the largest distance, many middle points per array pass.
    """

    points: tuple
    dist: np.ndarray

    def __post_init__(self):
        d = np.array(self.dist, dtype=float)
        n = len(self.points)
        if n == 0:
            raise ValueError("a metric space needs at least one point")
        if d.shape != (n, n):
            raise ValueError(f"distance matrix shape {d.shape} != ({n}, {n})")
        if not np.all(np.isfinite(d)):
            raise ValueError("distance matrix has non-finite entries")
        if np.any(d < 0):
            raise ValueError("distances must be nonnegative")
        if np.any(np.abs(np.diagonal(d)) > 1e-12):
            raise ValueError("diagonal of a distance matrix must be zero")
        if np.any(np.abs(d - d.T) > 1e-12):
            raise ValueError("distance matrix must be symmetric")
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        # triangle inequality d[i,k] <= d[i,j] + d[j,k], over blocks of j
        # whose (n, block, n) sums stay near 2^16 entries
        slack = _SLACK * max(1.0, d.max())
        step = max(1, 2 ** 16 // (n * n))
        for j in range(0, n, step):
            J = slice(j, j + step)
            if np.any(d[:, None, :] > d[:, J, None] + d[None, J, :] + slack):
                raise ValueError("triangle inequality violated")
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_file(cls, path) -> "FiniteMetricSpace":
        """Load from plain text: whitespace-separated tokens, the point
        count n first, then the n*n distances row by row.  The count is
        read alone, so a count the exact searches refuse (see
        `_check_size`) ends the read before any distance is read."""
        # non-ASCII bytes decode to lone surrogates, which no number holds
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            count = ""
            while (ch := fh.read(1)) and not (count and ch.isspace()):
                count += ch.strip()     # leading whitespace adds nothing
            if not count:
                raise ValueError(f"{path}: empty distance-matrix file")
            try:
                n = int(count)
            except ValueError:
                raise ValueError(f"{path}: point count {count!r} is not an integer") from None
            if n < 1:
                raise ValueError(f"{path}: point count {n} must be >= 1")
            _check_size(n)
            vals = fh.read().split()
        if len(vals) != n * n:
            raise ValueError(f"{path}: expected {n * n} entries, found {len(vals)}")
        try:
            d = np.array(vals, dtype=float).reshape(n, n)
        except ValueError as exc:
            raise ValueError(f"{path}: a distance entry is not a number ({exc})") from None
        return cls(points=tuple(range(n)), dist=d)


def two_point_space(separation: float) -> FiniteMetricSpace:
    d = np.array([[0.0, separation], [separation, 0.0]])
    return FiniteMetricSpace(points=(0, 1), dist=d)


def _check_size(n: int) -> None:
    """Refuse a space of n points above the search cap."""
    if n > SEARCH_CAP:
        raise SizeCapError(f"{n} points exceeds exhaustive-search cap {SEARCH_CAP}")


def _point_masks(space: FiniteMetricSpace, eta: float, near: bool) -> list[int]:
    """Per point, the bitmask of the points within eta of it, itself
    included (near), or at least eta from it, itself excluded (not near),
    up to a slack relative to eta; after refusing a bad eta or size."""
    if not eta > 0:
        raise ValueError(f"eta={eta} must be positive")
    _check_size(len(space))
    slack = _SLACK * max(1.0, eta)
    related = space.dist <= eta + slack if near else space.dist >= eta - slack
    np.fill_diagonal(related, near)
    return [sum(1 << j for j, hit in enumerate(row) if hit) for row in related.tolist()]


def covering_number(space: FiniteMetricSpace, eta: float) -> int:
    """Minimum number of centers (from the point set) covering every point
    within eta.  Exact, by branch-and-bound over cover bitmasks: some
    chosen center must cover the lowest uncovered point, so the search
    branches over the centers that do."""
    masks = _point_masks(space, eta, near=True)
    n = len(masks)
    full = (1 << n) - 1
    best = n

    def expand(covered: int, size: int) -> None:
        nonlocal best
        if covered == full:
            best = size
            return
        if size + 1 >= best:
            return
        free = full & ~covered
        p = (free & -free).bit_length() - 1
        centers = masks[p]      # distances are symmetric: p's mask lists its coverers
        while centers:
            c = (centers & -centers).bit_length() - 1
            centers &= centers - 1
            expand(covered | masks[c], size + 1)

    expand(0, 0)
    return best


def packing_number(space: FiniteMetricSpace, eta: float) -> int:
    """Maximum number of points with pairwise distances >= eta.  Exact,
    by branch-and-bound over compatibility bitmasks."""
    compat = _point_masks(space, eta, near=False)
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            expand(cand & compat[v], size + 1)

    expand((1 << len(compat)) - 1, 0)
    return best


def norm_ball_covering_bounds_log(dim: int, eta: float) -> tuple[float, float]:
    """Logs of the lower and upper bounds (1/eta)^d and (1+2/eta)^d on the
    covering number of a unit norm ball: (d ln(1/eta), d ln(1 + 2/eta)).
    The bounds themselves overflow a float for large dim."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return dim * math.log(1.0 / eta), dim * math.log(1.0 + 2.0 / eta)


def discretize_unit_ball(dim: int, spacing: float) -> FiniteMetricSpace:
    """Axis-aligned grid restricted to the unit L2 ball."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    k = int(math.floor(1.0 / spacing + 1e-9))
    axis = spacing * np.arange(-k, k + 1)
    pts = [p for p in itertools.product(axis, repeat=dim)
           if np.sqrt(np.sum(np.square(p))) <= 1.0 + 1e-9]
    return FiniteMetricSpace(points=tuple(map(tuple, pts)), dist=pairwise_distances(pts))
