import itertools
import math

import numpy as np
import pytest

from reconbound import metric_space
from reconbound.bounds import norm_ball_covering_bounds_log
from reconbound.metric_space import (FiniteMetricSpace, SizeCapError, covering_number,
                                     packing_number, pairwise_distances, two_point_space)

from reference import discretize_unit_ball


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

    def test_cap(self, monkeypatch):
        rng = np.random.default_rng(1)
        sp = euclidean(rng.normal(size=(25, 2)))
        with pytest.raises(SizeCapError):
            covering_number(sp, 0.5)
        monkeypatch.setattr(metric_space, "SEARCH_CAP", 25)
        assert covering_number(sp, 0.5) >= 1

    def test_bad_eta(self):
        for search in (covering_number, packing_number):
            for eta in (0.0, math.nan):
                with pytest.raises(ValueError):
                    search(two_point_space(1.0), eta)


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
                cov = covering_number(sp, eta)
                assert lo <= cov <= hi, (d, eta, cov, lo, hi)


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


def retired_validation(dist, n):
    """The constructor's checks as they ran before the triangle inequality
    was checked for a block of middle points per pass: one middle point j
    per pass and np.allclose for symmetry, with the relative slack.  The
    stored matrix, or the message of the first check that fails."""
    d = np.array(dist, dtype=float)
    if n == 0:
        return "a metric space needs at least one point"
    if d.shape != (n, n):
        return f"distance matrix shape {d.shape} != ({n}, {n})"
    if not np.all(np.isfinite(d)):
        return "distance matrix has non-finite entries"
    if np.any(d < 0):
        return "distances must be nonnegative"
    if np.any(np.abs(np.diagonal(d)) > 1e-12):
        return "diagonal of a distance matrix must be zero"
    if not np.allclose(d, d.T, rtol=0, atol=1e-12):
        return "distance matrix must be symmetric"
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    slack = 1e-9 * max(1.0, d.max())
    for j in range(n):
        if np.any(d > d[:, j, None] + d[None, j, :] + slack):
            return "triangle inequality violated"
    return d


def validation(dist, n):
    """What the constructor stores, or the message it raises."""
    try:
        return FiniteMetricSpace(points=tuple(range(n)), dist=dist).dist
    except ValueError as exc:
        return str(exc)


def assert_same_validation(dist, n=None):
    n = len(dist) if n is None else n
    got, want = validation(dist, n), retired_validation(dist, n)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()
    return got


def near_equilateral(rng, n):
    """A metric on n points with every distance in [1, 1.1]: any two
    distances sum to more than a third."""
    d = np.triu(rng.uniform(1.0, 1.1, size=(n, n)), 1)
    return d + d.T


class TestValidationMatchesPerPointLoop:
    # n = 100 puts 6 middle points in a block, so blocks split j
    SIZES = (2, 3, 20, 100)

    def test_valid_spaces(self):
        rng = np.random.default_rng(12)
        for n in self.SIZES:
            for scale in (1e-3, 1.0, 1e8):
                sp = assert_same_validation(pairwise_distances(
                    scale * rng.normal(size=(n, 3))))
                assert isinstance(sp, np.ndarray)
            p = rng.normal(size=(n, 2))
            l1 = np.abs(p[:, None, :] - p[None, :, :]).sum(-1)
            for d in (l1, near_equilateral(rng, n)):
                assert isinstance(assert_same_validation(d), np.ndarray)

    def test_planted_violations(self):
        # legs 0.5 + 0.5 under a side of 1.1: only middle point j breaks
        # the inequality, so every block must be reached
        rng = np.random.default_rng(13)
        for n in self.SIZES[1:]:
            for j in range(n):
                i, k = rng.choice([v for v in range(n) if v != j], size=2, replace=False)
                d = near_equilateral(rng, n)
                d[i, j] = d[j, i] = d[j, k] = d[k, j] = 0.5
                d[i, k] = d[k, i] = 1.1
                assert assert_same_validation(d) == "triangle inequality violated"

    def test_violations_at_the_slack(self):
        # a side just above or below the legs' sum plus the slack: both
        # checks round every sum the same way and agree at the boundary
        rng = np.random.default_rng(14)
        for n in self.SIZES[1:]:
            for c in (0.25, 0.9, 1.1, 4.0):
                i, j, k = rng.choice(n, size=3, replace=False)
                d = near_equilateral(rng, n)
                d[i, j] = d[j, i] = d[j, k] = d[k, j] = 0.55
                d[i, k] = d[k, i] = 1.1 + c * 1e-9 * 1.1
                got = assert_same_validation(d)
                assert isinstance(got, str) == (c > 1)

    def test_asymmetry_at_the_tolerance(self):
        d = np.array([[0.0, 0.0], [1e-12, 0.0]])
        kept = assert_same_validation(d)
        assert np.array_equal(kept, [[0.0, 5e-13], [5e-13, 0.0]])
        d[1, 0] = np.nextafter(1e-12, 1.0)
        assert assert_same_validation(d) == "distance matrix must be symmetric"

    def test_checks_in_order(self):
        # each matrix fails its own check and at least one later one
        tri = np.array([[0, 1, 5.0], [1, 0, 1], [5.0, 1, 0]])
        cases = [
            (np.zeros((2, 3)), 2, "shape"),
            (np.where(np.eye(3) > 0, np.inf, -tri), 3, "non-finite"),
            (np.where(np.eye(3) > 0, 0.5, -tri), 3, "nonnegative"),
            (tri + np.triu(tri) + 0.5 * np.eye(3), 3, "diagonal"),
            (tri + np.triu(tri), 3, "symmetric"),
            (tri, 3, "triangle"),
            (np.zeros((0, 0)), 0, "at least one point"),
        ]
        for dist, n, message in cases:
            assert message in assert_same_validation(dist, n)


class TestLargeScale:
    def cloud(self):
        # six collinear points at scale 1e8, sorted: float rounding alone
        # breaks an absolute slack of 1e-9 on this cloud
        x = np.sort(np.random.default_rng(0).uniform(size=6)) * 1e8
        return pairwise_distances(x[:, None])

    def test_collinear_cloud_accepted(self):
        d = self.cloud()
        assert any(np.any(d > d[:, j, None] + d[None, j, :] + 1e-9) for j in range(6))
        sp = FiniteMetricSpace(points=tuple(range(6)), dist=d)
        assert sp.dist.tobytes() == d.tobytes()

    def test_relative_violation_rejected(self):
        d = self.cloud()
        d[0, 2] = d[2, 0] = d[0, 2] * (1 + 1e-6)
        with pytest.raises(ValueError, match="triangle inequality violated"):
            FiniteMetricSpace(points=tuple(range(6)), dist=d)


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

    def test_cap_refuses_before_parsing(self, tmp_path, monkeypatch):
        # the header alone decides: the distances are never read
        path = tmp_path / "big.txt"
        path.write_text("21\n" + "x " * 441)
        with pytest.raises(SizeCapError, match="cap 20"):
            FiniteMetricSpace.from_file(path)
        monkeypatch.setattr(metric_space, "SEARCH_CAP", 21)
        with pytest.raises(ValueError, match="could not convert"):
            FiniteMetricSpace.from_file(path)

    def test_token_layout(self, tmp_path):
        # leading blank lines, a count on the same line as distances, a
        # distance cut by the 4096-character read after the count, and
        # one of 10 001 characters read over three chunks
        path = tmp_path / "space.txt"
        for text in ("\n\n  2\n0 1\n1 0\n", "2 0 1\n1 0", "\t2\t0\r\n1 1 0",
                     "2 " + " " * 4092 + "0 1.0 1 0", "2\n0 " + "0" * 10_000 + "1 1 0"):
            path.write_text(text, encoding="ascii")
            back = FiniteMetricSpace.from_file(path)
            assert back.dist.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_bad_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n")
        with pytest.raises(ValueError):
            FiniteMetricSpace.from_file(path)


def test_pairwise_norms_agree_with_manual():
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert pairwise_distances(x)[0, 1] == pytest.approx(5.0)
