import math

import numpy as np
import pytest

import reconbound.pnsgd as pnsgd_mod
from reconbound.mechanisms import sigmoid
from reconbound.pnsgd import noise_for_renyi_mdp, pnsgd_run, project_l2, renyi_slope_for_dp


def gaussian_final_law(eta, sigma, n, t, dx):
    """Mean gap and variance of the final iterate for the 1-D quadratic
    family when datasets differ at position t (no active projection)."""
    gap = eta * (1 - eta) ** (n - t) * dx
    var = eta ** 2 * sigma ** 2 * sum((1 - eta) ** (2 * k) for k in range(n))
    return gap, var


class TestRun:
    def test_noiseless_fixed_point(self):
        # one row repeated: the noiseless pass contracts by 1 - lam*eta =
        # 0.2 a step onto the regularized minimizer c*z, where
        # sigmoid(-c*|z|^2) = lam*c
        lam, z = 1.0, np.array([0.6, -0.8])
        w = pnsgd_run(np.zeros(1), np.tile(z, (60, 1)), lam, 5.0,
                      [np.random.default_rng(0)], 1)[0, 0]
        c = w @ z
        assert np.allclose(w, c * z, rtol=0, atol=1e-15)
        assert float(sigmoid(np.array(-c))) == pytest.approx(lam * c, rel=1e-14)

    def test_projection_identity(self):
        v = np.array([3.0, 4.0])
        w = project_l2(v, 1.0)
        assert np.linalg.norm(w) == pytest.approx(1.0)
        assert np.allclose(w, v / np.linalg.norm(v))
        inside = np.array([0.1, 0.2])
        assert np.array_equal(project_l2(inside, 1.0), inside)

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            pnsgd_run(np.zeros(1), np.zeros((0, 1)), 1.0, 1.0, [np.random.default_rng(0)], 1)

    def test_final_iterate_law_monte_carlo(self):
        # on zero rows the gradient is lam*w, so with noise and a slack
        # radius the final iterate is a centred gaussian whose variance
        # follows the linear recursion
        lam, sigma, n = 0.1, 0.8, 4
        eta = 1.0 / (0.25 + lam)
        s2 = 0.0
        for _ in range(n):
            s2 = (1 - eta * lam) ** 2 * s2 + eta ** 2 * sigma ** 2
        # one cell of 1 000 chains runs in lockstep for 100 passes; each
        # pass continues the cell's generator, so the 100 000 final
        # iterates are independent draws of the law
        rngs = [np.random.default_rng(np.random.SeedSequence(12345))]
        finals = np.concatenate([pnsgd_run(np.array([sigma]), np.zeros((n, 1)), lam, 100.0,
                                           rngs, 1_000)[0, :, 0]
                                 for _ in range(100)])
        assert finals.mean() == pytest.approx(0.0, abs=5 * math.sqrt(s2 / finals.size))
        assert finals.var() == pytest.approx(s2, rel=0.02)

    def test_bit_identical_reruns(self):
        rows = np.tile([0.1, 0.2, 0.3], (10, 1))
        w1 = pnsgd_run(np.ones(1), rows, 1.0, 2.0, [np.random.default_rng(7)], 3)
        w2 = pnsgd_run(np.ones(1), rows, 1.0, 2.0, [np.random.default_rng(7)], 3)
        assert np.array_equal(w1, w2)

    def test_contractive_update_on_random_quadratics(self):
        # for sigma=0 and eta <= 2/beta the update is nonexpansive
        rng = np.random.default_rng(31)
        beta = 2.0
        for _ in range(1000):
            d = int(rng.integers(1, 5))
            a = rng.normal(size=(d, d))
            hess = a.T @ a
            hess *= beta / max(np.linalg.eigvalsh(hess).max(), beta)
            x = rng.normal(size=d)
            eta = float(rng.uniform(0.05, 2.0 / beta))
            radius = 50.0
            w1, w2 = rng.normal(size=d), rng.normal(size=d)
            u1 = project_l2(w1 - eta * (hess @ (w1 - x)), radius)
            u2 = project_l2(w2 - eta * (hess @ (w2 - x)), radius)
            assert np.linalg.norm(u1 - u2) <= np.linalg.norm(w1 - w2) * (1 + 1e-12)


def per_sample_pass(lam, radius, samples, noise):
    """Reference: one chain from 0 at step 1/(1/4 + lam), one labelled
    sample at a time, adding row i of ``noise`` to the i-th gradient, as
    the pass ran before chains were batched."""
    eta = 1.0 / (0.25 + lam)
    w = np.zeros(len(samples[0][0]))
    for (x_i, y_i), noise_i in zip(samples, noise):
        grad = -y_i * float(sigmoid(np.array(-y_i * float(w @ x_i)))) * x_i + lam * w
        v = w - eta * (grad + noise_i)
        norm = math.sqrt(float(v @ v))
        w = v if norm <= radius else v * (radius / norm)
    return w


class TestLockstep:
    SIGMAS = (0.5, 0.0, 1.3, 0.2)
    LAM, RADIUS = 0.1, 1.5

    def _logistic(self, seed, n=9, d=3):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * 0.4
        y = rng.choice([-1.0, 1.0], size=n)
        return list(zip(x, y)), y[:, None] * x

    TRIALS = 2

    def test_matches_per_sample_loop(self, monkeypatch):
        # noise blocks of two steps, so the pass crosses block edges and
        # ends on a partial block; chain t of a cell takes column t of
        # one whole (n, trials, d) draw from the cell's generator, and a
        # cell at sigma 0 draws nothing
        cells, d = len(self.SIGMAS), 3
        monkeypatch.setattr(pnsgd_mod, "NOISE_BLOCK_FLOATS", 2 * cells * self.TRIALS * d)
        samples, signed = self._logistic(3, d=d)
        rngs = [np.random.default_rng(100 + c) for c in range(cells)]
        batched = pnsgd_run(np.array(self.SIGMAS), signed, self.LAM, self.RADIUS, rngs,
                            self.TRIALS)
        assert batched.shape == (cells, self.TRIALS, d)
        for c, sigma in enumerate(self.SIGMAS):
            noise = np.random.default_rng(100 + c).normal(
                0.0, sigma, size=(len(samples), self.TRIALS, d))
            for t in range(self.TRIALS):
                ref = per_sample_pass(self.LAM, self.RADIUS, samples, noise[:, t])
                np.testing.assert_allclose(batched[c, t], ref, rtol=1e-12, atol=1e-15)
        untouched = np.random.default_rng(101).bit_generator.state
        assert rngs[1].bit_generator.state == untouched

    def test_chain_does_not_depend_on_its_company(self, monkeypatch):
        # a cell run with the others and run alone gives the same bytes,
        # though the noise blocks differ: 2 steps together, 8 alone
        cells, d = len(self.SIGMAS), 3
        monkeypatch.setattr(pnsgd_mod, "NOISE_BLOCK_FLOATS", 2 * cells * self.TRIALS * d)
        _, signed = self._logistic(4, n=40, d=d)
        together = pnsgd_run(np.array(self.SIGMAS), signed, self.LAM, self.RADIUS,
                             [np.random.default_rng(c) for c in range(cells)], self.TRIALS)
        for c, sigma in enumerate(self.SIGMAS):
            alone = pnsgd_run(np.array([sigma]), signed, self.LAM, self.RADIUS,
                              [np.random.default_rng(c)], self.TRIALS)[0]
            assert np.array_equal(together[c], alone)

    def test_sigma_per_chain_validated(self):
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        for sigmas in (np.array([0.1, -0.1]), np.array([0.1]), np.array(0.1)):
            with pytest.raises(ValueError, match="sigmas"):
                pnsgd_run(sigmas, np.ones((3, 1)), 1.0, 1.0, rngs, self.TRIALS)


def standard_noise(alpha, eps, G):
    """The standard order-alpha Renyi rule: variance 2*alpha*G^2/eps gives
    every sample of the pass the level eps at order alpha."""
    return 2.0 * alpha * G * G / eps


class TestNoiseRules:
    def test_dp_plugin(self):
        # at delta = 1/e, L = 1, and eps = 3: sqrt(rho) = 3/(2 + 1) = 1
        assert renyi_slope_for_dp(3.0, 1.0 / math.e) == pytest.approx(1.0, rel=1e-15)

    def test_mdp_plugin(self):
        assert noise_for_renyi_mdp(2.0, 1.0, 1.0, 1.0) == pytest.approx(4.0)

    def test_mdp_needs_finite_diameter(self):
        with pytest.raises(ValueError):
            noise_for_renyi_mdp(2.0, 1.0, 1.0, math.inf)

    def test_mean_estimation_noise_ratio(self):
        # for gradients w - x the global bound G equals the domain diameter
        # while the input Lipschitz constant is 1, so the standard rule
        # needs exactly diam times more variance
        for diam in (2.0, 3.5, 10.0):
            dp = standard_noise(4.0, 0.7, G=diam)
            mdp = noise_for_renyi_mdp(4.0, 0.7, L_input=1.0, domain_diam=diam)
            assert dp / mdp == pytest.approx(diam, rel=1e-12)
            assert mdp < dp

    def test_ratio_identity_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            alpha = float(rng.uniform(1.1, 8.0))
            eps = float(rng.uniform(0.05, 3.0))
            g = float(rng.uniform(0.2, 5.0))
            lip = float(rng.uniform(0.2, 5.0))
            diam = float(rng.uniform(0.5, 20.0))
            ratio = noise_for_renyi_mdp(alpha, eps, lip, diam) / standard_noise(alpha, eps, g)
            assert ratio == pytest.approx(diam * (lip / g) ** 2, rel=1e-12)


def converted(alpha, rho, delta):
    """The standard RDP -> DP conversion of the Renyi level alpha*rho:
    alpha*rho + ln(1/delta)/(alpha - 1)."""
    return alpha * rho + math.log(1.0 / delta) / (alpha - 1.0)


class TestConversion:
    def test_grid_minimization_matches_dense_oracle(self):
        # no order of a dense grid meets the target with less variance than
        # 2*G^2/rho, and the grid comes within 1e-6 of it
        delta, g = 1e-5, 2.0
        log_inv_delta = math.log(1.0 / delta)
        alphas = np.arange(1.001, 300.0, 1e-3)
        for eps in (0.1, 0.45, 1.0, 3.0, 8.0):
            sigma_sq = 2.0 * g * g / renyi_slope_for_dp(eps, delta)
            # independent scan of the standard rule at the budget that
            # each order leaves after the conversion's offset
            budget = eps - log_inv_delta / (alphas - 1.0)
            dense = np.min(standard_noise(alphas[budget > 0], budget[budget > 0], g))
            assert sigma_sq <= dense * (1 + 1e-12), eps
            assert dense <= sigma_sq * (1 + 1e-6), eps

    def test_target_inversion_meets_budget(self):
        # at alpha* = 1 + sqrt(L/rho) the Renyi levels alpha * rho convert
        # to exactly the target, and no other order converts to less
        delta = 1e-5
        log_inv_delta = math.log(1.0 / delta)
        for eps in (1e-6, 0.1, 0.18, 1.0, 3.0, 8.0):
            rho = renyi_slope_for_dp(eps, delta)
            alpha_star = 1.0 + math.sqrt(log_inv_delta / rho)
            assert converted(alpha_star, rho, delta) == pytest.approx(eps, rel=1e-12)
            for a in (1.5, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 1e3):
                assert converted(a, rho, delta) >= eps * (1 - 1e-12)

    def test_target_delta_out_of_range(self):
        for delta in (0.0, 1.0, -1e-5, math.nan):
            with pytest.raises(ValueError, match="delta"):
                renyi_slope_for_dp(1.0, delta)
        for eps in (0.0, -1.0):
            with pytest.raises(ValueError, match="eps"):
                renyi_slope_for_dp(eps, 1e-5)

    def test_small_target_is_reachable(self):
        # below ln(1/delta)/63 no order of the old seven-order grid
        # reached the target; the slope is positive for every such eps
        for eps in (1e-6, 0.1, 0.18):
            rho = renyi_slope_for_dp(eps, 1e-5)
            assert 0 < rho < eps

    def test_every_target_calibrates(self):
        # the slope needs no Renyi order, so it is finite and positive
        # where the order 1 + sqrt(L/rho) rounded to 1 (eps above about
        # 9e32 at delta = 1e-5), and tends to eps as eps dwarfs L
        for eps in 10.0 ** np.arange(-6, 301, 3):
            rho = renyi_slope_for_dp(float(eps), 1e-5)
            assert 0 < rho < math.inf, eps
        assert renyi_slope_for_dp(1e300, 1e-5) == pytest.approx(1e300, rel=1e-15)


class TestRenyiMdpCertificate:
    def test_final_iterate_divergence_within_budget(self):
        # quadratic family, no active projection: the divergence between
        # final-iterate laws for datasets differing at any position t
        # stays under eps_metric times the squared input gap once the noise
        # rule is applied (diam >= 1 keeps the squared-form budget
        # meaningful)
        n, eta, diam, eps_l = 100, 0.7, 2.0, 0.9
        for alpha in (2.0, 8.0):
            sigma_sq = noise_for_renyi_mdp(alpha, eps_l, 1.0, diam)
            for t in (1, n // 2, n):
                for dx in (0.3, 1.0, diam):
                    gap, var = gaussian_final_law(eta, math.sqrt(sigma_sq), n, t, dx)
                    d_alpha = alpha * gap ** 2 / (2 * var)
                    assert d_alpha <= eps_l * dx * dx * (1 + 1e-9)
