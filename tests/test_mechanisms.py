import hashlib

import numpy as np
import pytest

from reconbound import mechanisms
from reconbound.harness import generate_synthetic
from reconbound.mechanisms import (GRAD_TOL, LogRegProblem, logistic_grad_sum,
                                   output_perturb_dp, output_perturb_mdp_euclidean,
                                   sigmoid, train_logreg_exact)

from reference import laplace_logpdf


def small_problem(lam=1.0, seed=0, n=40, d=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    x /= np.maximum(np.sqrt((x * x).sum(axis=1)), 1.0)[:, None]
    y = np.where(x @ np.ones(d) > 0, 1.0, -1.0)
    return LogRegProblem(features=x, labels=y, lam=lam)


class TestValidation:
    def test_grad_sum_of_a_slope_stack_is_column_by_column(self):
        # an (n,) column of slopes gives one (d,) sum; an (n, M) stack
        # gives M, each equal to the sum of its own column
        prob = small_problem()
        thetas = np.random.default_rng(1).normal(size=(prob.dim, 3))
        slopes = sigmoid(-prob.labels[:, None] * (prob.features @ thetas))
        sums = logistic_grad_sum(slopes, prob.features, prob.labels)
        assert sums.shape == (prob.dim, 3)
        for k in range(3):
            one = logistic_grad_sum(slopes[:, k], prob.features, prob.labels)
            assert one.shape == (prob.dim,)
            np.testing.assert_allclose(sums[:, k], one, rtol=1e-13, atol=1e-15)

    def test_logreg_row_norms(self):
        x = np.array([[2.0, 0.0]])
        with pytest.raises(ValueError):
            LogRegProblem(features=x, labels=np.array([1.0]), lam=1.0)

    def test_logreg_labels(self):
        x = np.array([[0.5, 0.0]])
        with pytest.raises(ValueError):
            LogRegProblem(features=x, labels=np.array([0.0]), lam=1.0)

    def test_logreg_lam(self):
        x = np.array([[0.5, 0.0]])
        for lam in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                LogRegProblem(features=x, labels=np.array([1.0]), lam=lam)

    def test_caller_writes_do_not_reach_the_problem(self):
        # a writable array, or a read-only view of a writable base, is
        # copied; a frozen array that owns its data is held as given
        base = np.array([[0.5, 0.0], [0.0, -0.5]])
        labels = np.array([1.0, -1.0])
        view = base.view()
        view.setflags(write=False)
        problems = [LogRegProblem(features=a, labels=labels, lam=1.0) for a in (base, view)]
        base[0, 0] = 0.25
        labels[1] = 1.0
        for prob in problems:
            assert np.array_equal(prob.features, [[0.5, 0.0], [0.0, -0.5]])
            assert np.array_equal(prob.labels, [1.0, -1.0])
            assert not prob.features.flags.writeable
        frozen = base.copy()
        frozen.setflags(write=False)
        assert LogRegProblem(features=frozen, labels=labels, lam=1.0).features is frozen


def sigmoid_as_it_stood(t):
    """Reference: `sigmoid` in the allocating form it had before it could
    build its result in place, on whose bits the golden CSVs were pinned."""
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(np.signbit(a), np.signbit(b))
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSigmoid:
    # signed zeros, infinities and NaNs, where exp(-|t|) underflows (745)
    # or is subnormal (709 to 745), and subnormal and tiny normal inputs
    SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 746.0, -746.0,
               709.0, -709.0, 720.0, -720.0, 5e-324, -5e-324, 1e-310, -1e-310,
               2.2250738585072014e-308, -2.2250738585072014e-308, 1e-17, -1e-17)

    def test_in_place_slopes_match_bit_for_bit(self):
        # the attack builds the slopes sigmoid(-m) of a (1999, 50) margin
        # stack in its own work array: negated there, then the logistic
        # function in place; every form gives the allocating form's bits
        stacks = (np.array(self.SPECIAL),
                  3.0 * np.random.default_rng(20240817).normal(size=(1999, 50)))
        for margins in stacks:
            expected = sigmoid_as_it_stood(-margins)
            assert_same_bits(sigmoid(-margins), expected)
            slopes = np.empty_like(margins)
            np.negative(margins, out=slopes)
            assert sigmoid(slopes, out=slopes) is slopes
            assert_same_bits(slopes, expected)
            separate = np.empty_like(margins)
            assert sigmoid(-margins, out=separate) is separate
            assert_same_bits(separate, expected)
        for t in self.SPECIAL:
            assert_same_bits(sigmoid(t), sigmoid_as_it_stood(t))


class TestTrainer:
    def test_symmetric_instance_stationary(self):
        u = np.array([0.6, 0.0])
        x = np.vstack([u, -u])
        prob = LogRegProblem(features=x, labels=np.array([1.0, -1.0]), lam=1.0)
        theta = train_logreg_exact(prob)
        assert np.linalg.norm(reference_gradient(prob, theta)) <= GRAD_TOL

    def test_postcondition_on_random_instances(self):
        for seed in range(5):
            prob = small_problem(lam=0.5, seed=seed)
            theta = train_logreg_exact(prob)
            assert np.linalg.norm(reference_gradient(prob, theta)) <= GRAD_TOL

    def test_1d_grid_search_oracle(self):
        # four 1-D points, all with margin-1 geometry; dense grid over the
        # objective pins the optimum
        x = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        prob = LogRegProblem(features=x, labels=y, lam=1.0)
        theta = train_logreg_exact(prob)
        grid = np.arange(-10.0, 10.0, 1e-5)
        margins = grid  # all samples contribute log(1+exp(-g)) at margin g
        obj = np.logaddexp(0.0, -margins) + 0.5 * 1.0 * grid ** 2
        best = grid[np.argmin(obj)]
        assert theta[0] == pytest.approx(best, abs=1e-4)

    @pytest.mark.parametrize("n,d,seed,lam", [(50, 784, 20240817, 1e-2),
                                              (2000, 16, 20240817, 1e-6),
                                              (200, 8, 3, 10.0),
                                              (1, 1, 5, 1e-2)])
    def test_stationary_by_reference_gradient(self, n, d, seed, lam):
        # fewer samples than features, a near-vanishing and a dominant
        # regularizer, and the one-sample one-feature problem
        prob = generate_synthetic(n, d, seed=seed, lam=lam)
        theta = train_logreg_exact(prob)
        assert np.linalg.norm(reference_gradient(prob, theta)) <= GRAD_TOL

    def test_backtracks_until_the_gradient_norm_shrinks(self, monkeypatch):
        # unit rows, random labels, fewer samples than features and a
        # vanishing regularizer: some unit Newton step grows the gradient
        # norm and must be halved
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 40))
        x /= np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
        prob = LogRegProblem(features=x, labels=rng.choice([-1.0, 1.0], 30), lam=1e-8)
        calls = {"gradient": 0, "direction": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(mechanisms, "logistic_grad_sum",
                            counted("gradient", logistic_grad_sum))
        monkeypatch.setattr(mechanisms, "_newton_direction",
                            counted("direction", mechanisms._newton_direction))
        theta = train_logreg_exact(prob)
        assert np.linalg.norm(reference_gradient(prob, theta)) <= GRAD_TOL
        # one gradient at the start and one per accepted step; every
        # other one belonged to a rejected candidate
        assert calls["gradient"] - calls["direction"] - 1 >= 1


def reference_gradient(problem, theta):
    """The gradient of the regularized mean loss, coded apart from the
    trainer's gradient-sum helper, `logistic_grad_sum`."""
    x, y = problem.features, problem.labels
    margins = y * (x @ theta)
    weights = -y * sigmoid(-margins)
    return x.T @ weights / problem.n + problem.lam * theta


def two_product_trainer(problem):
    """Gradient descent with backtracking, and safe steps of
    1/(0.25 + lam) once the Armijo decrease is below the objective's
    float resolution; the objective and the gradient each compute
    X @ theta."""
    x, y = problem.features, problem.labels

    def objective(theta):
        margins = y * (x @ theta)
        return (float(np.sum(np.logaddexp(0.0, -margins))) / problem.n
                + 0.5 * problem.lam * float(theta @ theta))

    theta = np.zeros(problem.dim)
    fval = objective(theta)
    safe_step = 1.0 / (0.25 + problem.lam)
    step = safe_step
    for _ in range(200_000):
        grad = reference_gradient(problem, theta)
        gnorm = float(np.sqrt(grad @ grad))
        if gnorm <= GRAD_TOL:
            return theta
        if 1e-4 * safe_step * gnorm * gnorm < 1e-14 * max(1.0, abs(fval)):
            theta = theta - safe_step * grad
            fval = objective(theta)
            continue
        step = min(step * 2.0, 1e8)
        while True:
            cand = theta - step * grad
            cval = objective(cand)
            if cval <= fval - 1e-4 * step * gnorm * gnorm:
                break
            step *= 0.5
            assert step >= 1e-18
        theta, fval = cand, cval
    raise AssertionError("reference trainer did not converge")


# sha256 of the trained theta's bytes, pinned for the problems the
# desk and wide-op sweeps train
THETA_SHA256 = {
    (2000, 784, 20240817, 1e-2): "4aa960679f4284c2dbbe2b1dad227e5b06e6d0729d26dcef78d52a0c8a7b9a53",
    (2000, 16, 20240817, 1e-2): "e1b76dc399a2a90e322cf7eb5534156bc125a87f06944ea414b18184d36f207f",
}


class TestReferenceTrainer:
    @pytest.mark.parametrize("n,d,seed,lam", [(2000, 784, 20240817, 1e-2),
                                              (2000, 16, 20240817, 1e-2),
                                              (200, 8, 3, 1e-2),
                                              (40, 3, 1, 0.5)])
    def test_within_2tol_over_lam(self, n, d, seed, lam):
        # f is lam-strongly convex, so a point with |grad f| <= tol lies
        # within tol/lam of the optimum; two such points lie within 2 tol/lam
        prob = generate_synthetic(n, d, seed=seed, lam=lam)
        theta = train_logreg_exact(prob)
        assert np.linalg.norm(reference_gradient(prob, theta)) <= GRAD_TOL
        if (n, d, seed, lam) in THETA_SHA256:
            assert hashlib.sha256(theta.tobytes()).hexdigest() == THETA_SHA256[n, d, seed, lam]
        gap = np.linalg.norm(theta - two_product_trainer(prob))
        assert gap <= 2.0 * GRAD_TOL / lam


class TestOutputPerturbDP:
    def test_noise_scale_formula(self):
        # the stack is theta plus the generator's own sized Laplace draw
        # at the given scale, bit for bit
        theta = np.array([0.3, -0.2])
        b = 2.0 / 60000
        out = output_perturb_dp((3, 2), theta, b, np.random.default_rng(0))
        assert np.array_equal(out, theta + np.random.default_rng(0).laplace(0, b, size=(3, 2, 2)))

    def test_eps_zero_rejected(self):
        # eps = 0 asks for an infinite scale, which no draw meets; a NaN
        # or negative scale is no noise law either
        for scale in (np.inf, np.nan, -1.0):
            with pytest.raises(ValueError, match="scale"):
                output_perturb_dp((1,), np.zeros(1), scale, np.random.default_rng(0))

    def test_empirical_variance(self):
        rng = np.random.default_rng(5)
        b = 0.04
        draws = output_perturb_dp((25_000,), np.zeros(4), b, rng)
        assert draws.var() == pytest.approx(2 * b * b, rel=0.03)

    def test_seeded_determinism(self):
        a = output_perturb_dp((4, 2), np.ones(3), 0.7, np.random.default_rng(99))
        b = output_perturb_dp((4, 2), np.ones(3), 0.7, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_pointwise_ratio_at_dp_calibration(self):
        # with scale b = ||theta - theta'||_1 / eps the log-density ratio
        # obeys the eps budget pointwise; the densities are the Laplace
        # laws at the sampler's scale b
        rng = np.random.default_rng(3)
        theta = np.array([0.5, -0.1, 0.2])
        delta_vec = np.array([0.2, -0.3, 0.1])
        b = 2.0 / 13.0
        eps_budget = float(np.abs(delta_vec).sum()) / b
        for _ in range(200):
            h = theta + rng.normal(scale=2.0, size=3)
            gap = abs(np.sum(laplace_logpdf(h, theta, b))
                      - np.sum(laplace_logpdf(h, theta + delta_vec, b)))
            assert gap <= eps_budget * (1 + 1e-9)


class TestOutputPerturbMDP:
    def test_d1_reduces_to_laplace(self):
        rng = np.random.default_rng(8)
        b = 0.04
        vals = output_perturb_mdp_euclidean((100_000,), np.zeros(1), b, rng)
        assert vals.var() == pytest.approx(2 * b * b, rel=0.03)

    def test_eps_metric_zero_rejected(self):
        for scale in (np.inf, np.nan, -1.0):
            with pytest.raises(ValueError, match="scale"):
                output_perturb_mdp_euclidean((1,), np.zeros(2), scale, np.random.default_rng(0))

    def test_log_density_ratio_lipschitz(self):
        # the radial-Laplace log-density is -||h - theta|| / scale up to a
        # constant shared by both releases, so the log-density ratio is
        # (1/scale)-Lipschitz in the distance between centres
        rng = np.random.default_rng(17)
        d, scale = 4, 0.5
        for _ in range(1000):
            theta1 = rng.normal(size=d)
            theta2 = rng.normal(size=d)
            h = rng.normal(size=d)
            gap = abs(np.linalg.norm(h - theta1) / scale
                      - np.linalg.norm(h - theta2) / scale)
            assert gap <= np.linalg.norm(theta1 - theta2) / scale * (1 + 1e-12)

    def test_mean_radius_gamma_identity(self):
        rng = np.random.default_rng(2)
        d, scale = 3, 0.04
        out = output_perturb_mdp_euclidean((100_000,), np.zeros(d), scale, rng)
        radii = np.linalg.norm(out, axis=1)
        assert radii.mean() == pytest.approx(d * scale, rel=0.02)


@pytest.mark.parametrize("draw", [output_perturb_dp, output_perturb_mdp_euclidean])
def test_scale_zero_releases_theta(draw):
    # a noiseless sweep draws at scale 0: numpy returns exact zeros there
    theta = np.array([0.3, -0.2, 1e-300, 5.0])
    out = draw((3, 2), theta, 0.0, np.random.default_rng(4))
    assert out.shape == (3, 2, 4)
    assert np.array_equal(out, np.broadcast_to(theta, out.shape))
