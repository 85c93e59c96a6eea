"""Acceptance gate: every release-blocking property, each with its stated
tolerance and runtime budget, printing one PASS/FAIL line per criterion
(run with ``pytest tests/test_acceptance.py -v -s``).
"""

import hashlib
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from reconbound import pnsgd as pnsgd_mod
from reconbound.attack import glm_reconstruct_single
from reconbound.bounds import Validity, dp_lecam_bound, unbiased_rdp_bound, validity_check
from reconbound.divergence import (GAUSSIAN, LAPLACE, AnalyticPair, analytic_kl,
                                   kl_bound, numeric_kl_pair)
from reconbound.harness import SweepConfig, emit_csv, generate_synthetic, run_sweep
from reconbound.mechanisms import train_logreg_exact
from reconbound.metric_space import (covering_number, discretize_unit_ball,
                                     norm_ball_covering_bounds_log, two_point_space)
from reconbound.oracle import exact_bayes_risk, randomized_response
from reconbound.pnsgd import noise_for_renyi_mdp

SWEEP_GRID = tuple(0.1 + 0.35 * k for k in range(14))  # [0.1, 5) step 0.35
SWEEP_SEED = 20240817

# full sha256 of the desk sweeps' CSVs, the bytes `reconbound sweep` writes
# for these configs and perfbench's desk-op prints as its digests
DESK_CSV_SHA256 = {
    "OUTPUT_PERTURB_DP": "9487a364d7508d97904a9f2d49ff1739118a6041040b4e1c3d0f933bb200ba1c",
    "OUTPUT_PERTURB_MDP": "9d68865b3bfc5578239a9ea00791070d73dcec52f4a9b49f5769bc028bfdb464",
}


@contextmanager
def criterion(num, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS ({time.perf_counter() - start:.2f}s) - {description}")


def _sweep_config(kind):
    return SweepConfig(eps_grid=SWEEP_GRID, trials=50, mechanism_kind=kind,
                       seed=SWEEP_SEED, lam=1e-2, train_size=2000, dim=16,
                       n_samples=1)


@pytest.fixture(scope="session")
def dp_sweep():
    start = time.perf_counter()
    result = run_sweep(_sweep_config("OUTPUT_PERTURB_DP"))
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def mdp_sweep():
    start = time.perf_counter()
    result = run_sweep(_sweep_config("OUTPUT_PERTURB_MDP"))
    return result, time.perf_counter() - start


def test_c1_prior_bound_validity_threshold():
    with criterion(1, "prior-bound validity threshold at d=784 and unit-ball flags"):
        start = time.perf_counter()
        # ln(1 + d/4) solves d / (4 * (e^eps - 1)) = 1, the unit ball's trivial risk
        thr = math.log(1 + 784 / 4)
        assert thr == pytest.approx(5.283, abs=0.005)
        assert validity_check(unbiased_rdp_bound(thr - 1e-3, 784.0), 1.0) is Validity.VACUOUS
        assert validity_check(unbiased_rdp_bound(thr + 1e-3, 784.0), 1.0) is Validity.VALID
        for eps in (1.0, 2.0, 3.0, 4.0, 5.0):
            val = unbiased_rdp_bound(eps, 784.0)
            assert validity_check(val, 1.0) is Validity.VACUOUS, eps
        for eps in (5.5, 6.0):
            val = unbiased_rdp_bound(eps, 784.0)
            assert validity_check(val, 1.0) is Validity.VALID, eps
        assert time.perf_counter() - start < 1.0


def test_c2_oracle_dominates_two_point_bound():
    with criterion(2, "exact Bayes risk dominates the two-point bound, no tolerance"):
        start = time.perf_counter()
        space = two_point_space(1.0)
        for eps in np.arange(0.0, 5.0001, 0.25):
            mech = randomized_response(float(eps))
            for n in (1, 2, 3):
                exact = exact_bayes_risk(mech, space, n)
                bound = dp_lecam_bound(float(eps), n, 1.0)
                assert exact >= bound, (eps, n, exact, bound)
        assert time.perf_counter() - start < 10.0


def test_c3_tightness_ratio_at_zero_privacy():
    with criterion(3, "risk-to-bound ratio is exactly 8 at eps=0"):
        for diam in (1.0, 2.0, 0.5):
            space = two_point_space(diam)
            exact = exact_bayes_risk(randomized_response(0.0), space, 1)
            bound = dp_lecam_bound(0.0, 1, diam)
            assert exact / bound == pytest.approx(8.0, abs=1e-10)


def test_c4_divergence_bound_soundness():
    with criterion(4, "calibrated mechanism KL never exceeds the budget"):
        start = time.perf_counter()
        c_gauss = math.sqrt(2.0 * math.log(1.25e5))
        for eps in np.arange(0.1, 5.0001, 0.1):
            eps = float(eps)
            budget = kl_bound(eps, 1.0)
            lap = AnalyticPair(LAPLACE, 1.0, 0.0, 1.0 / eps)
            assert numeric_kl_pair(lap) <= budget + 1e-8
            gau = AnalyticPair(GAUSSIAN, 1.0, 0.0, c_gauss / eps)
            assert numeric_kl_pair(gau) <= budget + 1e-8
        rng = np.random.default_rng(77)
        for _ in range(20):
            family = LAPLACE if rng.random() < 0.5 else GAUSSIAN
            pair = AnalyticPair(family, float(rng.normal()), float(rng.normal()),
                                float(rng.uniform(0.3, 3.0)))
            assert numeric_kl_pair(pair) == pytest.approx(analytic_kl(pair), abs=1e-6)
        assert time.perf_counter() - start < 5.0


def test_c5_attack_exactness_noiseless():
    with criterion(5, "noiseless reconstruction exact on 50 random instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(20, 201))
            d = int(rng.integers(1, 33))
            lam = float(rng.uniform(0.7, 2.0))
            prob = generate_synthetic(n, d, seed=int(rng.integers(1 << 31)), lam=lam)
            theta = train_logreg_exact(prob)
            x_hat = glm_reconstruct_single(theta, prob.features[:-1], prob.labels[:-1],
                                           float(prob.labels[-1]), prob.lam, prob.n)
            rel = (np.linalg.norm(x_hat - prob.features[-1])
                   / np.linalg.norm(prob.features[-1]))
            assert rel < 1e-6, (n, d, lam, rel)
        assert time.perf_counter() - start < 30.0


def test_c6_desk_scale_sweep_dominance(dp_sweep, mdp_sweep):
    with criterion(6, "desk-scale sweep dominates all applicable bounds"):
        dp_result, dp_elapsed = dp_sweep
        mdp_result, mdp_elapsed = mdp_sweep
        for row in dp_result.rows:
            assert row.mean_mse >= row.bound_values["dp_lecam"], row
        for row in mdp_result.rows:
            assert row.mean_mse >= row.bound_values["mdp_lecam"], row
            assert row.mean_mse >= row.bound_values["mdp_fano"], row
        # where both metric bounds cap their diameter, eps * diam >=
        # max(sqrt(gap/n), sqrt(2/n)), mdp_lecam is (2/n)/(16 eps^2) *
        # e^{-n*k(sqrt(2/n))} and mdp_fano is at least its quadratic
        # candidate (gap/n)/(64 eps^2) * (gap - n*k(sqrt(gap/n)))/d_eff, with
        # k = kl_bound and gap = d_eff - ln 2; their ratio C is 2.057 at
        # n = 1 and d_eff = 16 ln 2
        n, d_eff = mdp_result.config.n_samples, mdp_result.config.dim * math.log(2.0)
        gap = d_eff - math.log(2.0)
        ratio = (gap * (gap - n * kl_bound(math.sqrt(gap / n)))
                 * math.exp(n * kl_bound(math.sqrt(2.0 / n))) / (8.0 * d_eff))
        capped = [row for row in mdp_result.rows
                  if row.epsilon * 2.0 >= max(math.sqrt(gap / n), math.sqrt(2.0 / n))]
        assert len(capped) == 9  # eps >= 1.612 on the desk grid
        for row in capped:
            assert row.bound_values["mdp_fano"] >= ratio * row.bound_values["mdp_lecam"], row
        assert dp_elapsed + mdp_elapsed < 180.0, (dp_elapsed, mdp_elapsed)


def test_c6_desk_scale_csv_digests(dp_sweep, mdp_sweep, tmp_path):
    with criterion(6, "desk-scale sweep CSVs keep their pinned sha256"):
        for result, _ in (dp_sweep, mdp_sweep):
            kind = result.config.mechanism_kind
            path = tmp_path / f"{kind}.csv"
            emit_csv(result, path)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == DESK_CSV_SHA256[kind], f"{kind} CSV bytes changed: sha256 {digest}"


def test_c7_pnsgd_metric_privacy_certificate():
    with criterion(7, "single-pass noisy SGD divergence certificate and noise ratio"):
        start = time.perf_counter()
        n, eta, diam = 100, 0.7, 2.0
        for eps_l in (0.5, 1.0):
            for alpha in (2.0, 8.0):
                # one calibration, made for the last position, protects
                # the sample at every position of the pass
                sigma_sq = noise_for_renyi_mdp(alpha, eps_l, 1.0, diam)
                var = eta ** 2 * sigma_sq * sum((1 - eta) ** (2 * k) for k in range(n))
                for t in (1, n // 2, n):
                    for dx in (0.25, 1.0, diam):
                        gap = eta * (1 - eta) ** (n - t) * dx
                        d_alpha = alpha * gap ** 2 / (2.0 * var)
                        assert d_alpha <= eps_l * dx * dx * (1 + 1e-9)
                # the standard order-alpha rule 2*alpha*G^2/eps, at G = diam
                dp_var = 2.0 * alpha * diam * diam / eps_l
                assert dp_var / sigma_sq == pytest.approx(diam, abs=1e-9)
        assert time.perf_counter() - start < 5.0


def test_c8_covering_sandwich_on_grid_balls():
    with criterion(8, "grid-ball covering numbers inside the analytic bracket"):
        start = time.perf_counter()
        for d in (1, 2):
            ball = discretize_unit_ball(d, 0.5)
            for eta in (0.5, 1.0):
                lo, hi = map(math.exp, norm_ball_covering_bounds_log(d, eta))
                cov = covering_number(ball, eta)
                assert lo <= cov <= hi, (d, eta, cov, lo, hi)
        assert time.perf_counter() - start < 20.0


def test_c9_sweep_determinism(dp_sweep, tmp_path):
    with criterion(9, "identical seed reproduces the sweep CSV byte for byte"):
        first, _ = dp_sweep
        again = run_sweep(_sweep_config("OUTPUT_PERTURB_DP"))
        p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        emit_csv(first, p1)
        emit_csv(again, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_c10_desk_scale_pnsgd_sweep(tmp_path, monkeypatch):
    # every PNSGD_MDP draw here fails to invert, so the CSV reads no
    # release; the pass results are compared byte for byte as well
    with criterion(10, "desk-scale PNSGD_MDP sweep within budget, "
                       "CSV and releases byte for byte"):
        passes = []
        run = pnsgd_mod.pnsgd_run

        def recording(*args, **kwargs):
            result = run(*args, **kwargs)
            passes.append(result.tobytes())
            return result

        monkeypatch.setattr(pnsgd_mod, "pnsgd_run", recording)
        start = time.perf_counter()
        first = run_sweep(_sweep_config("PNSGD_MDP"))
        elapsed = time.perf_counter() - start
        again = run_sweep(_sweep_config("PNSGD_MDP"))
        p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        emit_csv(first, p1)
        emit_csv(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        # one pass a run, since n_samples is 1
        assert len(passes) == 2 and passes[0] == passes[1]
        assert len(first.rows) == len(SWEEP_GRID)
        assert elapsed < 10.0, elapsed
