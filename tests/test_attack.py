import math

import numpy as np
import pytest

from reconbound.attack import (NO_ROOT, AllFailedError, BudgetError,
                               DegenerateGradientError, NoRootError, ThreatModel,
                               _solve_scalar, attack_average, attack_trials,
                               glm_reconstruct, glm_reconstruct_single, shadow_pairs)
from reconbound.harness import generate_synthetic
from reconbound.mechanisms import (PrivacyParams, output_perturb_dp, sigmoid,
                                   train_logreg_exact)


def trained_instance(seed, n=60, d=4, lam=1.0):
    prob = generate_synthetic(n, d, seed, lam=lam)
    theta = train_logreg_exact(prob)
    return prob, theta


def threat_model(prob, m=1, k=0):
    return ThreatModel(features_minus=prob.features[:-1],
                       labels_minus=prob.labels[:-1],
                       challenge_x=prob.features[-1],
                       challenge_y=float(prob.labels[-1]),
                       query_budget_m=m, shadow_count_k=k)


def scan_and_bisect(target, bracket=50.0, tol=1e-12, points=4001):
    """Reference root finder: the scan over 4001 grid points for sign
    changes, then a bisection of each, that the vectorized solver
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


class TestScalarSolver:
    def test_matches_scan_and_bisect_on_dense_grid(self):
        # dense over [-0.30, 60], finer near the minimum, near zero and
        # around the bracket end, where targets above r(50) have no root
        r50 = float(50.0 * sigmoid(50.0))
        targets = np.concatenate([np.linspace(-0.30, 60.0, 2401),
                                  np.linspace(-0.2790, -0.2780, 201),
                                  np.linspace(-1e-3, 1e-3, 201),
                                  np.linspace(49.9, 50.1, 201),
                                  [0.0, r50, np.nextafter(r50, np.inf)]])
        roots, found = _solve_scalar(targets, 50.0, 1e-12)
        for target, root, ok in zip(targets, roots, found):
            expected = scan_and_bisect(target)
            assert ok == (expected is not None), target
            if ok:
                assert root == pytest.approx(expected, rel=0, abs=1e-12), target
        assert not found[targets > r50].any()
        assert found[(targets < 0) & (targets > -0.2784)].all()

    def test_double_root_inside_one_scan_cell(self):
        # just above the minimum both roots fall between two scan points
        # of the retired solver, which saw no sign change; the closed-form
        # bracket still finds the smaller-magnitude root
        target = -0.2784645427610738 + 1e-7
        assert scan_and_bisect(target) is None
        (root,), (ok,) = _solve_scalar(np.array([target]), 50.0, 1e-12)
        assert ok
        assert float(root * sigmoid(root)) == pytest.approx(target, abs=1e-15)
        assert -1.2784645427610738 < root < 0


class TestSingleReconstruction:
    def test_noiseless_recovery(self):
        for seed in range(8):
            prob, theta = trained_instance(seed)
            x_hat = glm_reconstruct_single(theta, prob.features[:-1], prob.labels[:-1],
                                           float(prob.labels[-1]), prob.lam, prob.n)
            rel = np.linalg.norm(x_hat - prob.features[-1]) / np.linalg.norm(prob.features[-1])
            assert rel < 1e-6, (seed, rel)

    def test_accepts_mechanism_output(self):
        prob, theta = trained_instance(1)
        release = output_perturb_dp(theta, PrivacyParams(eps=1.0), prob.n, prob.lam,
                                    np.random.default_rng(0), noiseless=True)
        x_hat = glm_reconstruct_single(release, prob.features[:-1], prob.labels[:-1],
                                       float(prob.labels[-1]), prob.lam, prob.n)
        assert np.linalg.norm(x_hat - prob.features[-1]) < 1e-6

    def test_scalar_root_matches_dense_grid(self):
        # 1-D instance; two-stage dense grid over the consistency function
        # pins the projection u = h.x to 1e-4.  The equation can have a
        # second, larger-magnitude solution, so the oracle applies the same
        # smallest-|u| selection the attack documents.
        prob, theta = trained_instance(3, n=30, d=1)
        from reconbound.mechanisms import logistic_grad_sum
        g = -prob.n * prob.lam * theta - logistic_grad_sum(theta, prob.features[:-1],
                                                           prob.labels[:-1])
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
        from reconbound.mechanisms import logistic_grad_sum
        g = -prob.n * prob.lam * theta - logistic_grad_sum(theta, prob.features[:-1],
                                                           prob.labels[:-1])
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
        model = threat_model(prob, m=1)
        mech = lambda rng: output_perturb_dp(theta, PrivacyParams(eps=3.0), prob.n,
                                             prob.lam, rng)
        rng = np.random.default_rng(11)
        res = attack_average(model, mech, prob.lam, rng)
        rng2 = np.random.default_rng(11)
        single = glm_reconstruct_single(mech(rng2), prob.features[:-1], prob.labels[:-1],
                                        model.challenge_y, prob.lam, prob.n)
        assert np.allclose(res.z_hat, single, rtol=0, atol=0)
        assert len(res.per_sample_estimates) == 1

    def test_noiseless_zero_error(self):
        prob, theta = trained_instance(6)
        model = threat_model(prob, m=5)
        mech = lambda rng: output_perturb_dp(theta, PrivacyParams(eps=1.0), prob.n,
                                             prob.lam, rng, noiseless=True)
        res = attack_average(model, mech, prob.lam, np.random.default_rng(0))
        assert res.mse < 1e-12
        assert res.failures == 0

    def test_mean_of_estimates(self):
        prob, theta = trained_instance(7)
        model = threat_model(prob, m=4)
        mech = lambda rng: output_perturb_dp(theta, PrivacyParams(eps=5.0), prob.n,
                                             prob.lam, rng)
        res = attack_average(model, mech, prob.lam, np.random.default_rng(1))
        assert np.allclose(res.z_hat, np.mean(np.stack(res.per_sample_estimates), axis=0))

    def test_mse_nonincreasing_in_sample_count(self):
        prob, theta = trained_instance(11)
        means = []
        for n in (1, 4, 16):
            model = threat_model(prob, m=n)
            mses = []
            for trial in range(200):
                rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(n, trial)))
                mech = lambda r: output_perturb_dp(theta, PrivacyParams(eps=4.0),
                                                   prob.n, prob.lam, r)
                try:
                    mses.append(attack_average(model, mech, prob.lam, rng).mse)
                except AllFailedError:
                    pass
            means.append(float(np.mean(mses)))
        assert means[0] >= means[1] >= means[2], means

    def test_median_error_degrades_with_privacy(self):
        # stronger privacy (smaller eps) must not help the attack; one
        # inversion is tolerated since medians are noisy
        prob, theta = trained_instance(11)
        model = threat_model(prob, m=1)
        medians = []
        for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
            mses = []
            for trial in range(50):
                rng = np.random.default_rng(
                    np.random.SeedSequence(7, spawn_key=(int(eps * 10), trial)))
                mech = lambda r: output_perturb_dp(theta, PrivacyParams(eps=eps),
                                                   prob.n, prob.lam, r)
                try:
                    mses.append(attack_average(model, mech, prob.lam, rng).mse)
                except AllFailedError:
                    pass
            medians.append(float(np.median(mses)) if mses else math.inf)
        inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a * (1 + 1e-9))
        assert inversions <= 1, medians

    def test_all_failed(self):
        prob, theta = trained_instance(2)
        model = threat_model(prob, m=3)
        wild = lambda rng: theta + 50.0 * np.ones_like(theta)
        with pytest.raises(AllFailedError):
            attack_average(model, wild, prob.lam, np.random.default_rng(0))

    def test_error_respects_configured_metric(self):
        # the reported error is the squared distance under whatever metric
        # the caller configures, not hard-coded euclidean
        from reconbound.metric_space import NormedSpaceSpec, sample_distance
        prob, theta = trained_instance(9)
        model = threat_model(prob, m=1)
        mech = lambda rng: output_perturb_dp(theta, PrivacyParams(eps=3.0), prob.n,
                                             prob.lam, rng)
        l1_space = NormedSpaceSpec(prob.dim, "l1")
        l1 = lambda a, b: sample_distance(l1_space, a, b)
        res = attack_average(model, mech, prob.lam, np.random.default_rng(2), metric=l1)
        expected = float(np.abs(model.challenge_x - res.z_hat).sum()) ** 2
        assert res.mse == pytest.approx(expected, rel=1e-12)


class TestBatchInversion:
    def test_batch_size_does_not_change_results(self):
        # a cell's trials inverted as one batch and as batches of one give
        # the same failure set and estimates; both levels mix failed draws
        # and survivors, and eps=1 has trials in which every draw fails
        prob, theta = trained_instance(12, n=300, d=6, lam=1e-2)
        model = threat_model(prob, m=3)
        for eps in (1.0, 3.0):
            rngs = [np.random.default_rng(np.random.SeedSequence(5, spawn_key=(t,)))
                    for t in range(8)]
            releases = np.array([[output_perturb_dp(theta, PrivacyParams(eps=eps), prob.n,
                                                    prob.lam, rng).value
                                  for _ in range(3)] for rng in rngs])
            args = (prob.features[:-1], prob.labels[:-1], float(prob.labels[-1]),
                    prob.lam, prob.n)
            est, reasons = glm_reconstruct(releases.reshape(24, -1), *args)
            alone = [glm_reconstruct(h[None], *args) for h in releases.reshape(24, -1)]
            assert list(reasons) == [int(r[0]) for _, r in alone]
            for row, (one, _) in zip(est, alone):
                np.testing.assert_allclose(row, one[0], rtol=1e-12, atol=0)
            mse, failures = attack_trials(model, releases, prob.lam)
            for t in range(8):
                mse_t, failures_t = attack_trials(model, releases[t:t + 1], prob.lam)
                assert failures[t] == failures_t[0]
                np.testing.assert_allclose(mse[t], mse_t[0], rtol=1e-12, atol=0)
            assert failures.sum() == np.count_nonzero(reasons == NO_ROOT)
            assert 0 < failures.sum() < 24

    def test_single_is_batch_of_one(self):
        # the matrix products of a batch may sum in another order than
        # those of a single release, so agreement is to rounding
        prob, theta = trained_instance(13)
        wild = theta + 50.0 * np.ones_like(theta)
        est, reasons = glm_reconstruct(np.stack([theta, wild]), prob.features[:-1],
                                       prob.labels[:-1], float(prob.labels[-1]),
                                       prob.lam, prob.n)
        single = glm_reconstruct_single(theta, prob.features[:-1], prob.labels[:-1],
                                        float(prob.labels[-1]), prob.lam, prob.n)
        np.testing.assert_allclose(est[0], single, rtol=1e-12, atol=0)
        assert list(reasons) == [0, NO_ROOT]
        assert np.isnan(est[1]).all()


class TestThreatModelAndShadows:
    def test_budget_split(self):
        prob, _ = trained_instance(0)
        model = threat_model(prob, m=10, k=3)
        assert model.sample_count_n == 7

    def test_budget_exhausted(self):
        prob, _ = trained_instance(0)
        with pytest.raises(BudgetError):
            threat_model(prob, m=3, k=3)

    def test_challenge_not_in_fixed_dataset(self):
        prob, _ = trained_instance(0)
        feats = np.vstack([prob.features[:-1], prob.features[-1]])
        labels = np.append(prob.labels[:-1], prob.labels[-1])
        with pytest.raises(ValueError):
            ThreatModel(features_minus=feats, labels_minus=labels,
                        challenge_x=prob.features[-1],
                        challenge_y=float(prob.labels[-1]), query_budget_m=1)

    def test_zero_shadows_empty_set(self):
        prob, _ = trained_instance(0)
        model = threat_model(prob, m=4, k=0)
        assert shadow_pairs(model, [], trainer=lambda f, l: None) == []
        assert model.sample_count_n == 4

    def test_shadow_training_reproducible(self):
        prob, _ = trained_instance(0, n=30, d=2)
        model = threat_model(prob, m=5, k=2)
        rng = np.random.default_rng(21)
        targets = [(rng.normal(size=2) * 0.1, 1.0), (rng.normal(size=2) * 0.1, -1.0)]
        calls = []

        def trainer(feats, labels):
            calls.append(feats.shape)
            return feats.sum(axis=0) + labels.sum()

        pairs_a = shadow_pairs(model, targets, trainer)
        pairs_b = shadow_pairs(model, targets, trainer)
        assert len(pairs_a) == 2
        assert all(f == (prob.n, 2) for f in calls)
        for (ha, _), (hb, _) in zip(pairs_a, pairs_b):
            assert np.array_equal(ha, hb)

    def test_shadow_count_mismatch(self):
        prob, _ = trained_instance(0)
        model = threat_model(prob, m=5, k=2)
        with pytest.raises(BudgetError):
            shadow_pairs(model, [(np.zeros(4), 1.0)], trainer=lambda f, l: None)


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
