import math
import tracemalloc

import numpy as np
import pytest

from reconbound import attack
from reconbound.attack import (DEGENERATE, NO_ROOT, DegenerateGradientError, NoRootError,
                               ThreatModel, _known_sum, _solve_scalar, attack_average,
                               glm_reconstruct, glm_reconstruct_single)
from reconbound.harness import SweepConfig, generate_synthetic, run_sweep
from reconbound.mechanisms import (LogRegProblem, logistic_grad_sum, output_perturb_dp,
                                   sigmoid, train_logreg_exact)


def trained_instance(seed, n=60, d=4, lam=1.0):
    prob = generate_synthetic(n, d, seed, lam=lam)
    theta = train_logreg_exact(prob)
    return prob, theta


def draw_releases(theta, prob, eps, trials, n, rng):
    """(trials, n, d) output-perturbation draws from one generator."""
    return output_perturb_dp((trials, n), theta, eps, prob.n, prob.lam, rng)


def scan_and_bisect(target, bracket=100.0, tol=1e-12, points=8001):
    """Reference root finder: the scan for sign changes over grid points
    0.025 apart, then a bisection of each, that the vectorized solver
    replaced.  Returns the root of smallest magnitude, or None."""
    r = lambda w: w * sigmoid(w)
    grid = np.linspace(-bracket, bracket, points)
    vals = r(grid) - target
    roots = [float(grid[i]) for i in np.flatnonzero(vals == 0.0)]
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = r(lo) - target
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fmid = r(mid) - target
            if fmid == 0.0:
                lo = hi = mid
                break
            if (flo < 0) != (fmid < 0):
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(0.5 * (lo + hi))
    return min(roots, key=abs) if roots else None


def inversion_as_it_stood(releases, features_minus, labels_minus, y_star, lam, n_total):
    """Reference: `glm_reconstruct` before the no-root certificates, which
    inverted every stack whole.  The certificates must leave its rows and
    reasons unchanged, bit for bit.  Also returns the targets h.g."""
    h = np.asarray(releases, dtype=float)
    y = labels_minus[:, None]
    grad_sum = features_minus.T @ (-y * sigmoid(-(y * (features_minus @ h.T))))
    g = -n_total * lam * h - grad_sum.T
    degenerate = np.sqrt(np.einsum("md,md->m", g, g)) < 1e-12
    w, found = _solve_scalar(np.einsum("md,md->m", h, g))
    estimates = g / (-y_star * sigmoid(w))[:, None]
    reasons = np.where(degenerate, DEGENERATE, np.where(found, 0, NO_ROOT))
    estimates[reasons != 0] = np.nan
    return estimates, reasons, np.einsum("md,md->m", h, g)


class TestScalarSolver:
    def test_matches_scan_and_bisect_on_dense_grid(self):
        # dense over [-0.30, 60], finer near the minimum, near zero and
        # around 50, where an earlier solver's bracket ended; the reference
        # scans to 100, past every target here
        r50 = float(50.0 * sigmoid(50.0))
        targets = np.concatenate([np.linspace(-0.30, 60.0, 2401),
                                  np.linspace(-0.2790, -0.2780, 201),
                                  np.linspace(-1e-3, 1e-3, 201),
                                  np.linspace(49.9, 50.1, 201),
                                  [0.0, r50, np.nextafter(r50, np.inf)]])
        roots, found = _solve_scalar(targets)
        for target, root, ok in zip(targets, roots, found):
            expected = scan_and_bisect(target)
            assert ok == (expected is not None), target
            if ok:
                assert root == pytest.approx(expected, rel=0, abs=1e-12), target
        assert found[targets >= 0].all()
        assert found[(targets < 0) & (targets > -0.2784)].all()

    def test_targets_beyond_any_scan_are_solved(self):
        # w - W(1/e) <= w*sigmoid(w) < w bounds the root of a positive
        # target, so no target is too large to invert
        targets = np.array([72.35, 1e3, 1e6, 1e12])
        roots, found = _solve_scalar(targets)
        assert found.all()
        assert ((roots >= targets) & (roots <= targets + 0.27847)).all()
        np.testing.assert_allclose(roots * sigmoid(roots), targets, rtol=1e-14, atol=0)

    def test_double_root_inside_one_scan_cell(self):
        # just above the minimum both roots fall between two scan points
        # of the retired solver, which saw no sign change; the closed-form
        # bracket still finds the smaller-magnitude root
        target = -0.2784645427610738 + 1e-7
        assert scan_and_bisect(target) is None
        (root,), (ok,) = _solve_scalar(np.array([target]))
        assert ok
        assert float(root * sigmoid(root)) == pytest.approx(target, abs=1e-15)
        assert -1.2784645427610738 < root < 0

    def test_true_root_up_to_the_minimum(self):
        # the root of smaller magnitude is the true w = -y*h.x exactly when
        # w >= -(1 + W(1/e)) = -1.2785: recovered at -1.27, and at -1.29
        # the other root of the same target, -1.267, is returned
        (root,), (ok,) = _solve_scalar(np.array([-1.27 * sigmoid(-1.27)]))
        assert ok and root == pytest.approx(-1.27, abs=1e-9)
        (root,), (ok,) = _solve_scalar(np.array([-1.29 * sigmoid(-1.29)]))
        assert ok and root == pytest.approx(-1.26699, abs=1e-5)
        assert float(root * sigmoid(root)) == pytest.approx(float(-1.29 * sigmoid(-1.29)),
                                                            abs=1e-14)


class TestSingleReconstruction:
    def test_noiseless_recovery(self):
        for seed in range(8):
            prob, theta = trained_instance(seed)
            x_hat = glm_reconstruct_single(theta, prob.features[:-1], prob.labels[:-1],
                                           float(prob.labels[-1]), prob.lam, prob.n)
            rel = np.linalg.norm(x_hat - prob.features[-1]) / np.linalg.norm(prob.features[-1])
            assert rel < 1e-6, (seed, rel)

    def test_scalar_root_matches_dense_grid(self):
        # 1-D instance; two-stage dense grid over the consistency function
        # pins the projection u = h.x to 1e-4.  The equation can have a
        # second, larger-magnitude solution, so the oracle applies the same
        # smallest-|u| selection the attack documents.
        prob, theta = trained_instance(3, n=30, d=1)
        x, labels = prob.features[:-1], prob.labels[:-1]
        slopes = sigmoid(-labels * (x @ theta))
        g = -prob.n * prob.lam * theta - logistic_grad_sum(slopes, x, labels)
        y = float(prob.labels[-1])
        target = float(theta @ g)
        coarse = np.arange(-50.0, 50.0, 1e-3)
        f = -y * coarse * sigmoid(-y * coarse) - target
        crossings = coarse[np.flatnonzero(f[:-1] * f[1:] <= 0.0)]
        roots = []
        for u0 in crossings:
            fine = np.arange(u0 - 2e-3, u0 + 2e-3, 1e-6)
            vals = np.abs(-y * fine * sigmoid(-y * fine) - target)
            roots.append(float(fine[np.argmin(vals)]))
        u_star = min(roots, key=abs)
        x_hat = glm_reconstruct_single(theta, prob.features[:-1], prob.labels[:-1],
                                       y, prob.lam, prob.n)
        assert float(theta @ x_hat) == pytest.approx(u_star, abs=1e-4)
        # and the selected root is the ground-truth one
        assert float(theta @ prob.features[-1]) == pytest.approx(u_star, abs=1e-4)

    def test_reconstruction_parallel_to_gradient(self):
        prob, theta = trained_instance(5)
        x, labels = prob.features[:-1], prob.labels[:-1]
        slopes = sigmoid(-labels * (x @ theta))
        g = -prob.n * prob.lam * theta - logistic_grad_sum(slopes, x, labels)
        x_hat = glm_reconstruct_single(theta, prob.features[:-1], prob.labels[:-1],
                                       float(prob.labels[-1]), prob.lam, prob.n)
        cos = float(g @ x_hat) / (np.linalg.norm(g) * np.linalg.norm(x_hat))
        assert abs(abs(cos) - 1.0) < 1e-12

    def test_no_root_on_wild_release(self):
        prob, theta = trained_instance(2)
        wild = theta + 50.0 * np.ones_like(theta)
        with pytest.raises(NoRootError):
            glm_reconstruct_single(wild, prob.features[:-1], prob.labels[:-1],
                                   float(prob.labels[-1]), prob.lam, prob.n)

    def test_degenerate_gradient(self):
        # symmetric known samples and a zero release make the recovered
        # contribution vanish
        u = np.array([0.5, 0.0])
        feats = np.vstack([u, -u])
        labels = np.array([1.0, 1.0])
        with pytest.raises(DegenerateGradientError):
            glm_reconstruct_single(np.zeros(2), feats, labels, 1.0, 1.0, 3)


class TestAveraging:
    def test_n1_equals_single(self):
        prob, theta = trained_instance(4)
        releases = draw_releases(theta, prob, 3.0, 1, 1, np.random.default_rng(11))
        mse, failures = attack_average(ThreatModel(prob), releases)
        single = glm_reconstruct_single(releases[0, 0], prob.features[:-1], prob.labels[:-1],
                                        float(prob.labels[-1]), prob.lam, prob.n)
        diff = (prob.features[-1] - single)[None]
        assert mse[0] == np.sqrt(np.einsum("td,td->t", diff, diff))[0] ** 2
        assert failures[0] == 0

    def test_noiseless_zero_error(self):
        prob, theta = trained_instance(6)
        mse, failures = attack_average(ThreatModel(prob), np.tile(theta, (1, 5, 1)))
        assert mse[0] < 1e-12
        assert failures[0] == 0

    def test_mean_of_estimates(self):
        prob, theta = trained_instance(7)
        releases = draw_releases(theta, prob, 5.0, 1, 4, np.random.default_rng(1))
        mse, failures = attack_average(ThreatModel(prob), releases)
        estimates, reasons = invert(releases[0], adversary_args(prob))
        ok = reasons == 0
        assert failures[0] == np.count_nonzero(~ok)
        z_hat = np.mean(estimates[ok], axis=0)
        assert mse[0] == pytest.approx(np.sum((prob.features[-1] - z_hat) ** 2), rel=1e-12)

    def test_mse_nonincreasing_in_sample_count(self):
        prob, theta = trained_instance(11)
        means = []
        for n in (1, 4, 16):
            rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(n,)))
            mse, _ = attack_average(ThreatModel(prob), draw_releases(theta, prob, 4.0, 200, n, rng))
            means.append(float(np.mean(mse[~np.isnan(mse)])))
        assert means[0] >= means[1] >= means[2], means

    def test_median_error_degrades_with_privacy(self):
        # stronger privacy (smaller eps) must not help the attack; one
        # inversion is tolerated since medians are noisy
        prob, theta = trained_instance(11)
        medians = []
        for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
            rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(int(eps * 10),)))
            mse, _ = attack_average(ThreatModel(prob), draw_releases(theta, prob, eps, 50, 1, rng))
            mses = mse[~np.isnan(mse)]
            medians.append(float(np.median(mses)) if mses.size else math.inf)
        inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a * (1 + 1e-9))
        assert inversions <= 1, medians

    def test_all_failed(self):
        # a trial none of whose draws inverts has no error to report
        prob, theta = trained_instance(2)
        wild = theta + 50.0 * np.ones_like(theta)
        mse, failures = attack_average(ThreatModel(prob), np.tile(wild, (1, 3, 1)))
        assert np.isnan(mse[0])
        assert failures[0] == 3


class TestBatchInversion:
    def test_batch_size_does_not_change_results(self):
        # a cell's trials inverted as one batch and as batches of one give
        # the same failure set and estimates; both levels mix failed draws
        # and survivors, and eps=1 has trials in which every draw fails
        prob, theta = trained_instance(12, n=300, d=6, lam=1e-2)
        model = ThreatModel(prob)
        for eps in (1.0, 3.0):
            releases = draw_releases(theta, prob, eps, 8, 3, np.random.default_rng(5))
            args = (prob.features[:-1], prob.labels[:-1], float(prob.labels[-1]),
                    prob.lam, prob.n)
            est, reasons = invert(releases.reshape(24, -1), args)
            alone = [invert(h[None], args) for h in releases.reshape(24, -1)]
            assert list(reasons) == [int(r[0]) for _, r in alone]
            for row, (one, _) in zip(est, alone):
                np.testing.assert_allclose(row, one[0], rtol=1e-12, atol=0)
            mse, failures = attack_average(model, releases)
            for t in range(8):
                mse_t, failures_t = attack_average(model, releases[t:t + 1])
                assert failures[t] == failures_t[0]
                np.testing.assert_allclose(mse[t], mse_t[0], rtol=1e-12, atol=0)
            assert failures.sum() == np.count_nonzero(reasons == NO_ROOT)
            assert 0 < failures.sum() < 24

    def test_single_is_batch_of_one(self):
        # the matrix products of a batch may sum in another order than
        # those of a single release, so agreement is to rounding
        prob, theta = trained_instance(13)
        wild = theta + 50.0 * np.ones_like(theta)
        est, reasons = invert(np.stack([theta, wild]), adversary_args(prob))
        single = glm_reconstruct_single(theta, prob.features[:-1], prob.labels[:-1],
                                        float(prob.labels[-1]), prob.lam, prob.n)
        np.testing.assert_allclose(est[0], single, rtol=1e-12, atol=0)
        assert list(reasons) == [0, NO_ROOT]
        assert np.isnan(est[1]).all()


class TestThreatModelAndShadows:
    def test_holds_the_problem_without_copying(self):
        # at image width the features are 12.5 MB; the threat model adds a
        # view of them and the transient row comparison, nothing full size
        prob = generate_synthetic(2000, 784, seed=20240817)
        ThreatModel(generate_synthetic(20, 784, seed=1))
        tracemalloc.start()
        try:
            model = ThreatModel(prob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.shares_memory(model.problem.features, prob.features)
        assert peak <= 0.25 * prob.features.nbytes

    def test_sweep_forms_the_known_sum_once(self, monkeypatch):
        # every cell's stack has a release inside the norm radius, so each
        # reaches the mean-margin bound; all share the threat model's sum
        sums = count_calls(monkeypatch, "_known_sum")
        stacks = []
        original = attack.glm_reconstruct

        def recorded(releases, *args):
            stacks.append((releases, args))
            return original(releases, *args)

        monkeypatch.setattr(attack, "glm_reconstruct", recorded)
        cfg = SweepConfig(eps_grid=(0.5, 1.0, 2.0, 4.0), mechanism_kind="OUTPUT_PERTURB_DP",
                          seed=20240817, trials=3, n_samples=2, train_size=200, dim=4)
        run_sweep(cfg)
        assert len(sums) == 1
        assert len(stacks) == len(cfg.eps_grid)
        for releases, (_, _, _, lam, _, known_sum) in stacks:
            assert (np.einsum("md,md->m", releases, releases) <= W_E / lam).any()
            assert known_sum is stacks[0][1][-1]

    def test_challenge_not_in_fixed_dataset(self):
        prob, _ = trained_instance(0)
        feats = np.vstack([prob.features, prob.features[3]])
        labels = np.append(prob.labels, prob.labels[3])
        repeated = LogRegProblem(features=feats, labels=labels, lam=prob.lam)
        with pytest.raises(ValueError, match="challenge must not appear"):
            ThreatModel(repeated)


class TestExactnessSweep:
    def test_random_instances_exact_at_infinite_budget(self):
        # mirrors the headline exactness property on a handful of sizes;
        # the acceptance suite runs the full 50-instance version
        rng = np.random.default_rng(123)
        for _ in range(8):
            n = int(rng.integers(20, 201))
            d = int(rng.integers(1, 33))
            lam = float(rng.uniform(0.7, 2.0))
            prob = generate_synthetic(n, d, seed=int(rng.integers(1 << 31)), lam=lam)
            theta = train_logreg_exact(prob)
            x_hat = glm_reconstruct_single(theta, prob.features[:-1], prob.labels[:-1],
                                           float(prob.labels[-1]), prob.lam, prob.n)
            rel = (np.linalg.norm(x_hat - prob.features[-1])
                   / np.linalg.norm(prob.features[-1]))
            assert rel < 1e-6


# W(1/e): the maximum of m*sigmoid(-m), and minus the minimum of w*sigmoid(w)
W_E = 0.2784645427610738


def adversary_args(prob):
    return (prob.features[:-1], prob.labels[:-1], float(prob.labels[-1]),
            prob.lam, prob.n)


def invert(releases, args):
    """`glm_reconstruct` on (features, labels, y_star, lam, n_total), with
    the known sum formed from those features."""
    return glm_reconstruct(releases, *args, _known_sum(args[0], args[1]))


def count_calls(monkeypatch, name) -> list:
    """Record each call the attack makes to its helper ``name``."""
    calls = []
    original = getattr(attack, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(attack, name, counted)
    return calls


def assert_as_it_stood(releases, args):
    est, reasons = invert(releases, args)
    ref_est, ref_reasons, _ = inversion_as_it_stood(releases, *args)
    assert np.array_equal(est, ref_est, equal_nan=True)
    assert np.array_equal(reasons, ref_reasons)
    return reasons


class TestNoRootCertificates:
    def test_matches_inversion_as_it_stood(self, monkeypatch):
        # noise norms from 0.05 to 20 times sqrt(W(1/e)/lam), the radius
        # beyond which every release is norm-certified; stacks drawn from
        # all scales mix certified draws with ones that invert.  A stack
        # inverted without a sigmoid was certified before its margins: by
        # the norm alone, or with the mean margin's help
        calls = count_calls(monkeypatch, "logistic_grad_sum")
        sigmoids = count_calls(monkeypatch, "sigmoid")
        rng = np.random.default_rng(2024)
        seen = {"norm": 0, "mean": 0, "margin": 0, "mixed": 0}
        for d in (2, 16, 64):
            for lam in (1e-2, 1.0):
                prob, theta = trained_instance(d, n=120, d=d, lam=lam)
                args = adversary_args(prob)
                radius = math.sqrt(W_E / lam)
                for multiples in ([0.05, 0.3, 1.0, 3.0, 20.0], [0.3, 1.0, 3.0], [20.0]):
                    for _ in range(6):
                        scales = radius / math.sqrt(2 * d) * rng.choice(multiples, size=8)
                        releases = theta + rng.laplace(size=(8, d)) * scales[:, None]
                        before, sigmoids_before = len(calls), len(sigmoids)
                        invert(releases, args)
                        no_margins = len(sigmoids) == sigmoids_before
                        reasons = assert_as_it_stood(releases, args)
                        beyond = np.einsum("md,md->m", releases, releases) > W_E / lam
                        if no_margins:
                            assert (reasons == NO_ROOT).all()
                            seen["norm" if beyond.all() else "mean"] += 1
                        elif len(calls) == before:
                            assert (reasons == NO_ROOT).all()
                            seen["margin"] += 1
                        elif beyond.any() and (reasons == 0).any():
                            seen["mixed"] += 1
        assert min(seen.values()) >= 5, seen

    def test_non_finite_releases_are_never_certified(self, monkeypatch):
        # an infinite or NaN release, or one whose squared norm overflows,
        # takes the full inversion and fails there
        calls = count_calls(monkeypatch, "logistic_grad_sum")
        prob, theta = trained_instance(24, n=40, d=3, lam=1.0)
        args = adversary_args(prob)
        with np.errstate(invalid="ignore", over="ignore"):
            for bad in (np.inf, -np.inf, np.nan, 1e200):
                release = theta + np.array([bad, 0.0, 0.0])
                assert list(assert_as_it_stood(release[None], args)) == [NO_ROOT]
        assert len(calls) == 4

    def test_ray_across_the_boundary(self, monkeypatch):
        # bisect along a ray to releases whose targets lie within 1e-7 of
        # -W(1/e) on either side: the side with a root is never certified
        calls = count_calls(monkeypatch, "logistic_grad_sum")
        prob, theta = trained_instance(21, n=80, d=8, lam=1.0)
        args = adversary_args(prob)
        ray = np.random.default_rng(3).normal(size=8)
        lo, hi = 0.0, 10.0
        assert inversion_as_it_stood(hi * ray[None], *args)[1][0] == NO_ROOT
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            _, (reason,), (target,) = inversion_as_it_stood(mid * ray[None], *args)
            if reason == 0:
                lo, t_lo = mid, target
            else:
                hi, t_hi = mid, target
            if lo > 0 and hi < 10.0 and max(abs(t_lo + W_E), abs(t_hi + W_E)) < 1e-7:
                break
        else:
            pytest.fail("bisection did not close on the boundary")
        assert t_hi < -W_E < t_lo
        assert list(assert_as_it_stood(lo * ray[None], args)) == [0]
        assert len(calls) == 1
        assert list(assert_as_it_stood(hi * ray[None], args)) == [NO_ROOT]

    def test_norm_radius_is_tight(self, monkeypatch):
        # every known margin at the maximizer 1 + W(1/e) of m*sigmoid(-m)
        # makes the known sum (N - 1)*W(1/e), so a release with
        # N*lam*|h|^2 = (N - 1/2)*W(1/e), just inside the radius, has the
        # target -W(1/e)/2 and a root
        calls = count_calls(monkeypatch, "logistic_grad_sum")
        n_total, h = 20, np.array([[1.5, 0.0, 0.0]])
        labels = np.where(np.arange(n_total - 1) % 2, 1.0, -1.0)
        features = np.outer(labels, (1.0 + W_E) / 1.5 * np.array([1.0, 0.0, 0.0]))
        lam = (n_total - 0.5) * W_E / (n_total * 2.25)
        args = (features, labels, 1.0, lam, n_total)
        assert inversion_as_it_stood(h, *args)[2][0] == pytest.approx(-0.5 * W_E, rel=1e-12)
        assert list(assert_as_it_stood(h, args)) == [0]
        assert len(calls) == 1

    def test_degenerate_release_is_never_certified(self):
        # |h| = 1e12 with margins -0.3: the target is -0.64, below the
        # minimum, yet |g| is 6.4e-13, so the reason is DEGENERATE; the
        # slack, which grows with N|h|, keeps the margins from certifying it
        h = np.array([[1e12, 0.0]])
        features = np.array([[-3e-13, 0.5], [-3e-13, -0.5]])
        args = (features, np.ones(2), 1.0, 1e-25, 3)
        assert inversion_as_it_stood(h, *args)[2][0] < -W_E
        assert list(assert_as_it_stood(h, args)) == [DEGENERATE]

    def test_margin_certified_stack_skips_the_gradient_sum(self, monkeypatch):
        # inside the norm radius, so only the margins can certify them
        prob, theta = trained_instance(22, n=60, d=6, lam=1.0)
        args = adversary_args(prob)
        rays = np.random.default_rng(4).normal(size=(5, 6))
        releases = 0.9 * math.sqrt(W_E) * rays / np.linalg.norm(rays, axis=1)[:, None]

        def unreachable(*args):
            raise AssertionError("gradient sum of a certified stack")

        monkeypatch.setattr(attack, "logistic_grad_sum", unreachable)
        assert (assert_as_it_stood(releases, args) == NO_ROOT).all()

    def test_norm_certified_stack_never_reads_the_features(self):
        # any matrix product with features one column too wide would raise
        prob, theta = trained_instance(23, n=60, d=6, lam=1e-2)
        args = adversary_args(prob)
        releases = theta + np.random.default_rng(5).laplace(0.0, 50.0, size=(4, 6))
        ref_est, ref_reasons, _ = inversion_as_it_stood(releases, *args)
        wide = np.zeros((prob.n - 1, 7))
        est, reasons = glm_reconstruct(releases, wide, *args[1:], _known_sum(*args[:2]))
        assert np.array_equal(est, ref_est, equal_nan=True)
        assert np.array_equal(reasons, ref_reasons)
        assert (reasons == NO_ROOT).all()

    def test_mean_certified_stack_never_reads_the_features(self):
        # inside the norm radius and nearly against s, so h.s/2 alone is
        # below -W(1/e); a margin product with features one column too
        # wide would raise
        prob, theta = trained_instance(25, n=60, d=6, lam=1.0)
        args = adversary_args(prob)
        s = _known_sum(*args[:2])
        rays = -s / np.linalg.norm(s) + 0.1 * np.random.default_rng(6).normal(size=(4, 6))
        releases = 0.9 * math.sqrt(W_E) * rays / np.linalg.norm(rays, axis=1)[:, None]
        assert (np.einsum("md,md->m", releases, releases) < W_E / prob.lam).all()
        ref_est, ref_reasons, _ = inversion_as_it_stood(releases, *args)
        wide = np.zeros((prob.n - 1, 7))
        est, reasons = glm_reconstruct(releases, wide, *args[1:], s)
        assert np.array_equal(est, ref_est, equal_nan=True)
        assert np.array_equal(reasons, ref_reasons)
        assert (reasons == NO_ROOT).all()

    def test_mean_margin_bound_is_tight(self, monkeypatch):
        # h orthogonal to every known row makes every margin 0, where
        # m*sigmoid(-m) = m/2, so the bound h.s/2 - N*lam*|h|^2 is the
        # target itself: a release with the target just above -W(1/e)
        # inverts, and one just below is certified before its margins
        sigmoids = count_calls(monkeypatch, "sigmoid")
        n_total = 20
        labels = np.where(np.arange(n_total - 1) % 2, 1.0, -1.0)
        angles = np.arange(n_total - 1) * 0.3
        features = 0.8 * np.stack([np.cos(angles), np.sin(angles), np.zeros(n_total - 1)], 1)
        s = _known_sum(features, labels)
        lam = 1.0 / n_total
        for factor, reason in ((1 - 1e-6, 0), (1 + 1e-6, NO_ROOT)):
            h = np.array([[0.0, 0.0, math.sqrt(factor * W_E)]])
            args = (features, labels, 1.0, lam, n_total)
            target = inversion_as_it_stood(h, *args)[2][0]
            assert target == pytest.approx(0.5 * float(h[0] @ s) - n_total * lam * factor * W_E,
                                           rel=1e-15)
            assert target == pytest.approx(-factor * W_E, rel=1e-15)
            before = len(sigmoids)
            _, reasons = glm_reconstruct(h, *args, s)
            assert list(reasons) == [reason]
            assert (len(sigmoids) == before) == (reason == NO_ROOT)
            assert list(assert_as_it_stood(h, args)) == [reason]
