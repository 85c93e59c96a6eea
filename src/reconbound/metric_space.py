"""Data domains for the audit: finite metric spaces, covering bounds for
unit balls, and exact covering/packing search.

Spaces built from vectors are Euclidean, as are the sweeps' unit-ball
domain and the metric-privacy guarantees; a distance-matrix file may
carry any metric.

Covering and packing numbers are computed over the space's own points
(internal covers), exactly, by branch-and-bound over bitmasks of points.
An external cover with arbitrary centers can be smaller, but only by at
most a factor-two change of radius, and internal covers keep the search
exact.  Spaces larger than the search cap, or than the searches'
recursion can reach, are rejected outright rather than approximated.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

# Largest space the exact searches accept.  Both branch-and-bounds are
# exponential in the number of points in the worst case; on planar
# clouds of 20-25 points they take milliseconds.
DEFAULT_SEARCH_CAP = 20

# Boundary slack for eta comparisons.  Grid coordinates carry float
# rounding of order 1e-16, so points at distance exactly eta must not
# fall out of a cover by one ulp.
_ETA_SLACK = 1e-9


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
    Validated on construction: symmetry, zero diagonal, nonnegativity,
    finiteness, and the triangle inequality over all triples.
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
        if not np.allclose(d, d.T, rtol=0, atol=1e-12):
            raise ValueError("distance matrix must be symmetric")
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        # triangle inequality: d[i,k] <= d[i,j] + d[j,k] for every j
        for j in range(n):
            if np.any(d > d[:, j, None] + d[None, j, :] + 1e-9):
                raise ValueError("triangle inequality violated")
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_file(cls, path, cap: int = DEFAULT_SEARCH_CAP) -> "FiniteMetricSpace":
        """Load from plain text: first line n, then n rows of n distances.
        A count the exact searches refuse at ``cap`` (see `_check_size`)
        is refused before the distances are parsed or validated."""
        with open(path, "r", encoding="ascii") as fh:
            tokens = fh.read().split()
        if not tokens:
            raise ValueError(f"{path}: empty distance-matrix file")
        n = int(tokens[0])
        _check_size(n, cap)
        vals = tokens[1:]
        if len(vals) != n * n:
            raise ValueError(f"{path}: expected {n * n} entries, found {len(vals)}")
        d = np.array(vals, dtype=float).reshape(n, n)
        return cls(points=tuple(range(n)), dist=d)


def two_point_space(separation: float) -> FiniteMetricSpace:
    d = np.array([[0.0, separation], [separation, 0.0]])
    return FiniteMetricSpace(points=(0, 1), dist=d)


def _cover_masks(space: FiniteMetricSpace, eta: float) -> list[int]:
    slack = _ETA_SLACK * max(1.0, eta)
    within = space.dist <= eta + slack
    return [int(sum(1 << j for j in range(len(space)) if within[i, j]))
            for i in range(len(space))]


def _check_size(n: int, cap: int) -> None:
    """Refuse a space of n points above the cap or above half the
    recursion limit: both searches recurse once per point, and the other
    half is left to their callers."""
    if n > cap:
        raise SizeCapError(f"{n} points exceeds exhaustive-search cap {cap}")
    depth = sys.getrecursionlimit() // 2
    if n > depth:
        raise SizeCapError(f"{n} points exceeds the searches' recursion depth {depth}")


def _check_search(space: FiniteMetricSpace, eta: float, cap: int) -> int:
    """Number of points in ``space``, after refusing an eta that is not
    positive and a size `_check_size` refuses."""
    if not eta > 0:
        raise ValueError(f"eta={eta} must be positive")
    n = len(space)
    _check_size(n, cap)
    return n


def covering_number(space: FiniteMetricSpace, eta: float,
                    cap: int = DEFAULT_SEARCH_CAP) -> int:
    """Minimum number of centers (from the point set) covering every point
    within eta.  Exact, by branch-and-bound over cover bitmasks: some
    chosen center must cover the lowest uncovered point, so the search
    branches over the centers that do."""
    n = _check_search(space, eta, cap)
    masks = _cover_masks(space, eta)
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


def packing_number(space: FiniteMetricSpace, eta: float,
                   cap: int = DEFAULT_SEARCH_CAP) -> int:
    """Maximum number of points with pairwise distances >= eta.  Exact,
    by branch-and-bound over compatibility bitmasks."""
    n = _check_search(space, eta, cap)
    slack = _ETA_SLACK * max(1.0, eta)
    apart = space.dist >= eta - slack
    compat = [int(sum(1 << j for j in range(n) if j != i and apart[i, j]))
              for i in range(n)]
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

    expand((1 << n) - 1, 0)
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
