import itertools
import math
import sys

import numpy as np
import pytest

from reconbound.metric_space import (FiniteMetricSpace, SizeCapError,
                                     covering_number, discretize_unit_ball,
                                     effective_dimension,
                                     norm_ball_covering_bounds_log, packing_number,
                                     pairwise_distances, two_point_space)


def euclidean(vectors):
    """The space of row vectors under the Euclidean distance."""
    dist = pairwise_distances(vectors)
    return FiniteMetricSpace(points=tuple(range(len(dist))), dist=dist)


def unit_square_corners():
    return euclidean([[0, 0], [0, 1], [1, 0], [1, 1]])


def collinear(vals):
    return euclidean([[v] for v in vals])


def brute_covering(space, eta):
    # independent oracle: test every subset, smallest covering wins
    n = len(space)
    within = space.dist <= eta + 1e-9 * max(1.0, eta)
    best = n
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            if np.all(within[list(combo)].any(axis=0)):
                best = min(best, k)
                break
        if best == k:
            break
    return best


def retired_covering(space, eta):
    # the subset enumeration that covering_number used before its
    # branch-and-bound, kept as the reference
    n = len(space)
    within = space.dist <= eta + 1e-9 * max(1.0, eta)
    masks = [int(sum(1 << j for j in range(n) if within[i, j])) for i in range(n)]
    full = (1 << n) - 1
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            m = 0
            for i in combo:
                m |= masks[i]
            if m == full:
                return k
    return n


def brute_packing(space, eta):
    n = len(space)
    apart = space.dist >= eta - 1e-9 * max(1.0, eta)
    best = 1
    for k in range(n, 0, -1):
        for combo in itertools.combinations(range(n), k):
            if all(apart[i, j] for i, j in itertools.combinations(combo, 2)):
                return k
    return best


class TestDiameter:
    # the diameter of a domain, read off the distances: dist.max() for a
    # finite space, the norm of the main diagonal for a box

    def test_box_784_l2(self):
        corners = np.array([np.zeros(784), np.ones(784)])
        assert pairwise_distances(corners).max() == pytest.approx(28.0, abs=1e-12)

    def test_two_point(self):
        # one center covers the space exactly from the diameter on
        sp = two_point_space(3.0)
        assert sp.dist.max() == 3.0
        assert covering_number(sp, 3.0) == 1
        assert covering_number(sp, 2.99) == 2
        assert packing_number(sp, 3.0) == 2

    def test_scaling(self):
        # scaling every distance by c scales the diameter and every
        # covering and packing radius by c
        rng = np.random.default_rng(0)
        sp = euclidean(rng.normal(size=(6, 3)))
        etas = np.quantile(sp.dist[sp.dist > 0], [0.1, 0.4, 0.7]) * 1.01
        for c in (0.5, 2.0, 7.25):
            scaled = FiniteMetricSpace(points=sp.points, dist=sp.dist * c)
            assert scaled.dist.max() == pytest.approx(c * sp.dist.max(), rel=1e-12)
            for eta in etas:
                assert covering_number(scaled, c * eta) == covering_number(sp, eta)
                assert packing_number(scaled, c * eta) == packing_number(sp, eta)


class TestCovering:
    def test_collinear_center(self):
        assert covering_number(collinear([0, 1, 2]), 1.0) == 1

    def test_unit_square_half(self):
        sp = unit_square_corners()
        assert covering_number(sp, 0.5) == 4
        assert brute_covering(sp, 0.5) == 4

    def test_eta_above_diameter(self):
        sp = unit_square_corners()
        assert covering_number(sp, sp.dist.max() + 0.1) == 1

    def test_cap(self):
        rng = np.random.default_rng(1)
        sp = euclidean(rng.normal(size=(25, 2)))
        with pytest.raises(SizeCapError):
            covering_number(sp, 0.5)
        assert covering_number(sp, 0.5, cap=25) >= 1

    def test_bad_eta(self):
        for search in (covering_number, packing_number):
            for eta in (0.0, math.nan):
                with pytest.raises(ValueError):
                    search(two_point_space(1.0), eta)

    def test_recursion_depth_caps_the_search(self):
        # one recursion level per point: past half the interpreter's limit
        # the space is refused, however large the cap
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            for search in (covering_number, packing_number):
                with pytest.raises(SizeCapError, match="recursion"):
                    search(collinear(range(101)), 1e-3, cap=1000)
        finally:
            sys.setrecursionlimit(old)


class TestCoveringMatchesSubsetEnumeration:
    def test_random_clouds(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            n = int(rng.integers(10, 17))
            sp = euclidean(rng.uniform(size=(n, 2)))
            for eta in (0.15, 0.3, 0.5, 0.8):
                cov = covering_number(sp, eta)
                assert cov == retired_covering(sp, eta), (n, eta)
                assert cov <= packing_number(sp, eta)

    def test_benchmark_style_clouds(self):
        # 20 points drawn uniformly on a 5 x 5 square, covered at eta=0.5
        rng = np.random.default_rng(np.random.SeedSequence(20240817))
        for _ in range(3):
            sp = FiniteMetricSpace(points=tuple(range(20)), dist=pairwise_distances(
                rng.uniform(0.0, 5.0, size=(20, 2))))
            cov = covering_number(sp, 0.5)
            assert cov == retired_covering(sp, 0.5)
            assert cov <= packing_number(sp, 0.5)


class TestPacking:
    def test_collinear(self):
        assert packing_number(collinear([0, 1, 2]), 2.0) == 2

    def test_unit_square_diagonals(self):
        sp = unit_square_corners()
        # between side length 1 and diagonal sqrt(2), only a diagonal pair packs
        assert packing_number(sp, 1.2) == brute_packing(sp, 1.2) == 2
        # beyond the diagonal no pair qualifies at all
        assert packing_number(sp, 1.5) == brute_packing(sp, 1.5) == 1

    def test_eta_above_diameter(self):
        sp = unit_square_corners()
        assert packing_number(sp, 5.0) == 1

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            sp = euclidean(rng.uniform(size=(8, 2)))
            eta = float(rng.uniform(0.05, 1.2))
            assert packing_number(sp, eta) == brute_packing(sp, eta)
            assert covering_number(sp, eta) == brute_covering(sp, eta)


class TestSandwich:
    def test_sandwich_random_spaces(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 11))
            sp = euclidean(rng.uniform(size=(n, 2)))
            eta = float(rng.uniform(0.1, 1.0))
            cov = covering_number(sp, eta)
            assert packing_number(sp, 2 * eta) <= cov <= packing_number(sp, eta)

    def test_monotone_in_eta(self):
        sp = unit_square_corners()
        etas = [0.3, 0.6, 1.0, 1.4, 2.0]
        covs = [covering_number(sp, e) for e in etas]
        packs = [packing_number(sp, e) for e in etas]
        assert covs == sorted(covs, reverse=True)
        assert packs == sorted(packs, reverse=True)


def exp_covering_bounds(dim, eta):
    return tuple(map(math.exp, norm_ball_covering_bounds_log(dim, eta)))


class TestNormBallBounds:
    def test_dim1_half(self):
        lo, hi = exp_covering_bounds(1, 0.5)
        assert lo == pytest.approx(2.0) and hi == pytest.approx(5.0)

    def test_dim2_one(self):
        lo, hi = exp_covering_bounds(2, 1.0)
        assert lo == pytest.approx(1.0) and hi == pytest.approx(9.0)

    def test_log_space_784(self):
        lo, hi = norm_ball_covering_bounds_log(784, 0.5)
        assert lo == pytest.approx(784 * math.log(2.0), rel=1e-12)
        assert hi == pytest.approx(784 * math.log(5.0), rel=1e-12)

    def test_sandwich_on_grid_discretizations(self):
        # exhaustive covering of grid-discretized unit balls stays inside
        # the analytic bracket for d in {1, 2}
        for d, spacing in ((1, 0.5), (2, 0.5)):
            sp = discretize_unit_ball(d, spacing)
            for eta in (0.5, 1.0):
                lo, hi = exp_covering_bounds(d, eta)
                cov = covering_number(sp, eta, cap=25)
                assert lo <= cov <= hi, (d, eta, cov, lo, hi)


class TestEffectiveDimension:
    def test_single_point(self):
        sp = FiniteMetricSpace(points=("o",), dist=np.zeros((1, 1)), unit_ball=True)
        assert effective_dimension(sp) == 0.0

    def test_interval_grid(self):
        sp = discretize_unit_ball(1, 0.1)
        assert len(sp) == 21
        assert effective_dimension(sp, cap=21) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_untagged_rejected(self):
        with pytest.raises(ValueError):
            effective_dimension(two_point_space(1.0))

    def test_search_cap_propagates(self):
        ball = discretize_unit_ball(2, 0.3)  # 37 points
        assert len(ball) > 20
        with pytest.raises(SizeCapError):
            effective_dimension(ball)


class TestValidation:
    def test_asymmetric(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(points=(0, 1), dist=np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_triangle_violation(self):
        d = np.array([[0, 1, 5.0], [1, 0, 1], [5.0, 1, 0]])
        with pytest.raises(ValueError):
            FiniteMetricSpace(points=(0, 1, 2), dist=d)

    def test_negative(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(points=(0, 1), dist=np.array([[0, -1.0], [-1.0, 0]]))

    def test_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(points=(0, 1), dist=np.array([[0.5, 1.0], [1.0, 0]]))


    def test_box_validation(self):
        # a norm ball needs a positive dimension
        with pytest.raises(ValueError):
            norm_ball_covering_bounds_log(0, 0.5)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        # repr writes each distance with every digit it needs to read back
        rng = np.random.default_rng(4)
        dist = pairwise_distances(rng.uniform(size=(5, 3)))
        path = tmp_path / "space.txt"
        path.write_text("5\n" + "\n".join(" ".join(repr(float(v)) for v in row)
                                         for row in dist) + "\n", encoding="ascii")
        back = FiniteMetricSpace.from_file(path)
        assert back.points == tuple(range(5))
        assert np.allclose(back.dist, dist, rtol=0, atol=0)

    def test_cap_refuses_before_parsing(self, tmp_path):
        # the header alone decides: the distances are never read
        path = tmp_path / "big.txt"
        path.write_text("21\n" + "x " * 441)
        with pytest.raises(SizeCapError, match="cap 20"):
            FiniteMetricSpace.from_file(path, cap=20)
        with pytest.raises(ValueError, match="could not convert"):
            FiniteMetricSpace.from_file(path, cap=21)

    def test_bad_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n")
        with pytest.raises(ValueError):
            FiniteMetricSpace.from_file(path)


def test_pairwise_norms_agree_with_manual():
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert pairwise_distances(x)[0, 1] == pytest.approx(5.0)
