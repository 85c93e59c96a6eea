import math
import tracemalloc

import numpy as np
import pytest

from reconbound import attack
from reconbound.attack import (DEGENERATE, NO_ROOT, DegenerateGradientError, NoRootError,
                               ThreatModel, _solve_scalar, attack_average,
                               glm_reconstruct, glm_reconstruct_single)
from reconbound.harness import SweepConfig, generate_synthetic, run_sweep
from reconbound.mechanisms import (LogRegProblem, logistic_grad_sum, output_perturb_dp,
                                   output_perturb_mdp_euclidean, sigmoid, train_logreg_exact)


def trained_instance(seed, n=60, d=4, lam=1.0):
    prob = generate_synthetic(n, d, seed, lam=lam)
    theta = train_logreg_exact(prob)
    return prob, theta


def draw_releases(theta, prob, eps, trials, n, rng):
    """(trials, n, d) output-perturbation draws from one generator, at the
    sweep's scale 2 / (N * eps * lam)."""
    return output_perturb_dp((trials, n), theta, 2.0 / (prob.n * eps * prob.lam), rng)


def scan_and_bisect(targets, bracket=100.0, tol=1e-12, points=8001):
    """Reference root finder: the scan for sign changes over grid points
    0.025 apart, then a bisection of each, that the vectorized solver
    replaced.  The brackets of all targets bisect in lockstep, each
    stopping as the scalar loop did: once ``hi - lo <= tol`` or at an
    exact zero.  Returns per target the root of smallest magnitude, NaN
    where there is none."""
    r = lambda w: w * sigmoid(w)
    grid = np.linspace(-bracket, bracket, points)
    r_grid = r(grid)
    targets = np.asarray(targets, dtype=float)
    zeros, brackets = [], []  # per target: its exact grid zeros, its brackets' indices
    lo, hi, owner = [], [], []
    for target in targets:
        vals = r_grid - target
        zeros.append(grid[vals == 0.0])
        changes = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        brackets.append(np.arange(len(lo), len(lo) + len(changes)))
        lo.extend(grid[changes])
        hi.extend(grid[changes + 1])
        owner.extend([target] * len(changes))
    lo, hi, owner = np.array(lo), np.array(hi), np.array(owner)
    flo = r(lo) - owner
    active = hi - lo > tol
    while active.any():
        mid = 0.5 * (lo + hi)
        fmid = r(mid) - owner
        zero = active & (fmid == 0.0)
        lo[zero] = hi[zero] = mid[zero]
        step = active & ~zero
        left = step & ((flo < 0) != (fmid < 0))
        right = step & ~left
        hi[left] = mid[left]
        lo[right], flo[right] = mid[right], fmid[right]
        active = step & (hi - lo > tol)
    bisected = 0.5 * (lo + hi)
    out = np.full(len(targets), np.nan)
    for k, (zero, bracket_rows) in enumerate(zip(zeros, brackets)):
        candidates = np.concatenate([zero, bisected[bracket_rows]])
        if candidates.size:
            out[k] = candidates[np.argmin(np.abs(candidates))]
    return out


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
        expected = scan_and_bisect(targets)
        assert np.array_equal(found, ~np.isnan(expected)), targets[found == np.isnan(expected)]
        off = np.abs(roots[found] - expected[found]) > 1e-12
        assert not off.any(), targets[found][off]
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
        assert np.isnan(scan_and_bisect([target])).all()
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
        (mse, failures), = attack_average(ThreatModel(prob), [releases])
        single = glm_reconstruct_single(releases[0, 0], prob.features[:-1], prob.labels[:-1],
                                        float(prob.labels[-1]), prob.lam, prob.n)
        diff = (prob.features[-1] - single)[None]
        assert mse[0] == np.sqrt(np.einsum("td,td->t", diff, diff))[0] ** 2
        assert failures[0] == 0

    def test_noiseless_zero_error(self):
        prob, theta = trained_instance(6)
        (mse, failures), = attack_average(ThreatModel(prob), [np.tile(theta, (1, 5, 1))])
        assert mse[0] < 1e-12
        assert failures[0] == 0

    def test_mean_of_estimates(self):
        prob, theta = trained_instance(7)
        releases = draw_releases(theta, prob, 5.0, 1, 4, np.random.default_rng(1))
        (mse, failures), = attack_average(ThreatModel(prob), [releases])
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
            (mse, _), = attack_average(ThreatModel(prob),
                                       [draw_releases(theta, prob, 4.0, 200, n, rng)])
            means.append(float(np.mean(mse[~np.isnan(mse)])))
        assert means[0] >= means[1] >= means[2], means

    def test_median_error_degrades_with_privacy(self):
        # stronger privacy (smaller eps) must not help the attack; one
        # inversion is tolerated since medians are noisy
        prob, theta = trained_instance(11)
        medians = []
        for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
            rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(int(eps * 10),)))
            (mse, _), = attack_average(ThreatModel(prob),
                                       [draw_releases(theta, prob, eps, 50, 1, rng)])
            mses = mse[~np.isnan(mse)]
            medians.append(float(np.median(mses)) if mses.size else math.inf)
        inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a * (1 + 1e-9))
        assert inversions <= 1, medians

    def test_all_failed(self):
        # a trial none of whose draws inverts has no error to report
        prob, theta = trained_instance(2)
        wild = theta + 50.0 * np.ones_like(theta)
        (mse, failures), = attack_average(ThreatModel(prob), [np.tile(wild, (1, 3, 1))])
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
            (mse, failures), = attack_average(model, [releases])
            for t in range(8):
                (mse_t, failures_t), = attack_average(model, [releases[t:t + 1]])
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


def desk_instance():
    """The desk sweep's problem, N = 2000 and d = 16, and its optimum."""
    prob = generate_synthetic(2000, 16, seed=20240817)
    return prob, train_logreg_exact(prob)


class TestSweepInOneCall:
    def test_each_cell_as_if_alone(self):
        # a desk sweep's cells, DP and metric draws at every eps of its
        # grid, then a cell released at infinite scale and one with
        # non-finite rows among finite ones: inverted in one call, each
        # cell's errors and failure counts are those of the call on that
        # cell alone, bit for bit
        prob, theta = desk_instance()
        model = ThreatModel(prob)
        rng = np.random.default_rng(7)
        cells = []
        for eps in 0.1 + 0.35 * np.arange(14):
            scale = 2.0 / (prob.n * eps * prob.lam)
            cells.append(output_perturb_dp((50, 1), theta, scale, rng))
            cells.append(output_perturb_mdp_euclidean((50, 1), theta, scale, rng))
        cells.append(np.full((50, 1, prob.dim), np.nan))
        mixed = output_perturb_dp((10, 3), theta, 2.0 / (prob.n * 4.0 * prob.lam), rng)
        mixed[::3, 1, 0] = np.inf
        cells.append(mixed)
        together = attack_average(model, iter(cells))  # read once, as a sweep's generator is
        assert len(together) == len(cells)
        for cell, (mse, failures) in zip(cells, together):
            (mse_alone, failures_alone), = attack_average(model, [cell])
            assert np.array_equal(mse.view(np.int64), mse_alone.view(np.int64))
            assert np.array_equal(failures, failures_alone)
        draws = [cell.shape[0] * cell.shape[1] for cell in cells]
        failed = [int(failures.sum()) for _, failures in together]
        assert any(0 < f < n for f, n in zip(failed, draws))
        assert any(f == n for f, n in zip(failed, draws[:-2]))
        assert failed[-2] == draws[-2]

    def test_peak_does_not_grow_with_the_cells(self):
        # the margins and slopes live in two (N-1, M) work arrays shared by
        # all cells; what a cell keeps for the joint solve is a few rows
        prob, theta = desk_instance()
        model = ThreatModel(prob)
        rng = np.random.default_rng(3)
        scale = 2.0 / (prob.n * 1.5 * prob.lam)
        cells = [output_perturb_dp((50, 1), theta, scale, rng) for _ in range(12)]
        attack_average(model, cells[:1])
        work = 2 * (prob.n - 1) * 50 * 8
        peaks = []
        for count in (2, 12):
            tracemalloc.start()
            try:
                results = attack_average(model, cells[:count])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert all(0 < failures.sum() < 50 for _, failures in results)
        assert work <= peaks[0] <= 2 * work
        assert peaks[1] <= peaks[0] + 0.1 * work, peaks

    def test_no_feature_sized_array_at_image_width(self, monkeypatch):
        # at d = 784 the known features are 12.5 MB, and every cell here
        # reaches both products; the attack holds (N-1, M) arrays and
        # (M, d) ones, never an (N-1, d) one such as a y * x copy of them
        calls = count_calls(monkeypatch, "logistic_grad_sum")
        prob = generate_synthetic(2000, 784, seed=20240817)
        model = ThreatModel(prob)
        rng = np.random.default_rng(4)
        cells = [rng.normal(0.0, 1e-3, size=(10, 5, 784)) for _ in range(3)]
        tracemalloc.start()
        try:
            attack_average(model, cells)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(calls) == len(cells)
        assert peak < 0.5 * prob.features.nbytes, peak


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
        # one inversion call per sweep takes every cell's stack, so all
        # share the threat model's one sum; each stack has a release inside
        # the norm radius, so each reaches the mean-margin bound that reads it
        calls, models = [], []
        original, original_model = attack.glm_reconstruct, attack.ThreatModel.__post_init__

        def recorded(stacks, *args):
            stacks = list(stacks)
            calls.append((stacks, args))
            return original(stacks, *args)

        def recorded_model(model):
            models.append(model)
            original_model(model)

        monkeypatch.setattr(attack, "glm_reconstruct", recorded)
        monkeypatch.setattr(attack.ThreatModel, "__post_init__", recorded_model)
        cfg = SweepConfig(eps_grid=(0.5, 1.0, 2.0, 4.0), mechanism_kind="OUTPUT_PERTURB_DP",
                          seed=20240817, trials=3, n_samples=2, train_size=200, dim=4)
        run_sweep(cfg)
        (stacks, (_, _, _, lam, _, known_sum)), = calls
        (model,) = models
        assert known_sum is model.known_sum
        assert len(stacks) == len(cfg.eps_grid)
        for releases in stacks:
            flat = releases.reshape(-1, cfg.dim)
            assert (np.einsum("md,md->m", flat, flat) <= W_E / lam).any()

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
    """`glm_reconstruct` of one stack on (features, labels, y_star, lam,
    n_total), with the known sum formed from those features."""
    (estimates, reasons), = glm_reconstruct([releases], *args, args[1] @ args[0])
    return estimates, reasons


def count_calls(monkeypatch, name) -> list:
    """Record each call the attack makes to its helper ``name``."""
    calls = []
    original = getattr(attack, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

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

    def test_non_finite_releases_fail_before_any_product(self, monkeypatch):
        # an infinite or NaN release, or one whose squared norm overflows,
        # is NO_ROOT with a NaN row before any matrix product, so no
        # overflow or invalid value is raised; the finite rows of a mixed
        # stack invert as they would alone
        calls = count_calls(monkeypatch, "logistic_grad_sum")
        prob, theta = trained_instance(24, n=40, d=3, lam=1.0)
        args = adversary_args(prob)
        bad = theta + np.array([[v, 0.0, 0.0] for v in (np.inf, -np.inf, np.nan, 1e200)])
        est, reasons = invert(bad, args)
        assert (reasons == NO_ROOT).all()
        assert np.isnan(est).all()
        assert len(calls) == 0
        good = theta + np.random.default_rng(7).normal(0.0, 0.05, size=(3, 3))
        est, reasons = invert(np.vstack([good[:1], bad, good[1:]]), args)
        ref_est, ref_reasons = invert(good, args)
        assert list(reasons[1:5]) == [NO_ROOT] * 4 and np.isnan(est[1:5]).all()
        assert np.array_equal(est[[0, 5, 6]], ref_est, equal_nan=True)
        assert np.array_equal(reasons[[0, 5, 6]], ref_reasons)
        assert (ref_reasons == 0).any()

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
        (est, reasons), = glm_reconstruct([releases], wide, *args[1:], args[1] @ args[0])
        assert np.array_equal(est, ref_est, equal_nan=True)
        assert np.array_equal(reasons, ref_reasons)
        assert (reasons == NO_ROOT).all()

    def test_mean_certified_stack_never_reads_the_features(self):
        # inside the norm radius and nearly against s, so h.s/2 alone is
        # below -W(1/e); a margin product with features one column too
        # wide would raise
        prob, theta = trained_instance(25, n=60, d=6, lam=1.0)
        args = adversary_args(prob)
        s = args[1] @ args[0]
        rays = -s / np.linalg.norm(s) + 0.1 * np.random.default_rng(6).normal(size=(4, 6))
        releases = 0.9 * math.sqrt(W_E) * rays / np.linalg.norm(rays, axis=1)[:, None]
        assert (np.einsum("md,md->m", releases, releases) < W_E / prob.lam).all()
        ref_est, ref_reasons, _ = inversion_as_it_stood(releases, *args)
        wide = np.zeros((prob.n - 1, 7))
        (est, reasons), = glm_reconstruct([releases], wide, *args[1:], s)
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
        s = labels @ features
        lam = 1.0 / n_total
        for factor, reason in ((1 - 1e-6, 0), (1 + 1e-6, NO_ROOT)):
            h = np.array([[0.0, 0.0, math.sqrt(factor * W_E)]])
            args = (features, labels, 1.0, lam, n_total)
            target = inversion_as_it_stood(h, *args)[2][0]
            assert target == pytest.approx(0.5 * float(h[0] @ s) - n_total * lam * factor * W_E,
                                           rel=1e-15)
            assert target == pytest.approx(-factor * W_E, rel=1e-15)
            before = len(sigmoids)
            (_, reasons), = glm_reconstruct([h], *args, s)
            assert list(reasons) == [reason]
            assert (len(sigmoids) == before) == (reason == NO_ROOT)
            assert list(assert_as_it_stood(h, args)) == [reason]
