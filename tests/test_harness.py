import math
import struct
import tracemalloc

import numpy as np
import pytest

import reconbound.pnsgd as pnsgd_mod
from reconbound import bounds, harness
from reconbound.divergence import kl_bound
from reconbound.harness import (AUDITED_BOUNDS, MECHANISM_KINDS, ConfigError,
                                DigitAbsentError, DominanceError, IdxFormatError, SweepConfig,
                                SweepResult, SweepRow, audit_dominance, emit_bounds_csv,
                                emit_csv, emit_svg, evaluate_bounds, generate_synthetic,
                                load_idx, parse_config_text, parse_eps_grid, run_sweep)
from reconbound.bounds import Validity


def write_idx_pair(tmp_path, images, labels):
    """images: uint8 array (n, rows, cols); labels: uint8 array (n,)."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
    return img_path, lab_path


def tiny_config(**kw):
    base = dict(eps_grid=(1.0, 3.0), trials=5, mechanism_kind="OUTPUT_PERTURB_DP",
                seed=42, lam=1.0, train_size=60, dim=3)
    base.update(kw)
    return SweepConfig(**base)


class TestSynthetic:
    def test_deterministic_per_seed(self):
        a = generate_synthetic(50, 4, seed=9)
        b = generate_synthetic(50, 4, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = generate_synthetic(50, 4, seed=10)
        assert not np.array_equal(a.features, c.features)

    def test_row_norms_bounded(self):
        prob = generate_synthetic(500, 8, seed=1)
        norms = np.linalg.norm(prob.features, axis=1)
        assert norms.max() <= 1.0 + 1e-12

    def test_class_balance_seed_averaged(self):
        fracs = [np.mean(generate_synthetic(2000, 16, seed=s).labels == 1.0)
                 for s in range(100)]
        assert abs(np.mean(fracs) - 0.5) <= 0.02

    @pytest.mark.parametrize("n,d", [(2000, 784), (2000, 16), (257, 3), (1, 1)])
    def test_equals_whole_array_expression(self, n, d):
        # the dataset as it was built before it was built in place, with
        # full-size temporaries; sizes include ones that are not a
        # multiple of the row block
        rng = np.random.default_rng(np.random.SeedSequence(20240817))
        mu = rng.normal(size=d)
        mu /= math.sqrt(float(mu @ mu))
        labels = rng.choice(np.array([-1.0, 1.0]), size=n)
        x = labels[:, None] * (0.5 * mu)[None, :] + 0.3 * rng.normal(size=(n, d))
        norms = np.sqrt(np.sum(x * x, axis=1))
        x /= np.maximum(norms, 1.0)[:, None]
        prob = generate_synthetic(n, d, seed=20240817)
        assert np.array_equal(prob.features, x)
        assert np.array_equal(prob.labels, labels)

    def test_peak_allocation(self):
        # built in place and held by the problem as given, the features
        # are the only full-size array alive (the peak is about 1.13 of them)
        generate_synthetic(20, 784, seed=1)
        tracemalloc.start()
        try:
            prob = generate_synthetic(2000, 784, seed=20240817)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * prob.features.nbytes


class TestIdxLoader:
    def test_exact_pixels_recovered(self, tmp_path):
        imgs = np.array([[[25, 50], [75, 100]],
                         [[0, 10], [20, 30]]], dtype=np.uint8)
        img_path, lab_path = write_idx_pair(tmp_path, imgs, [0, 1])
        prob = load_idx(img_path, lab_path, digits=(0, 1))
        # rows stay inside the unit ball so normalization is a no-op
        assert np.array_equal(prob.features[0], imgs[0].reshape(-1) / 255.0)
        assert np.array_equal(prob.features[1], imgs[1].reshape(-1) / 255.0)
        assert list(prob.labels) == [-1.0, 1.0]

    def test_filtering_and_dim(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 40, size=(6, 28, 28), dtype=np.uint8)
        img_path, lab_path = write_idx_pair(tmp_path, imgs, [0, 1, 7, 0, 1, 3])
        prob = load_idx(img_path, lab_path, digits=(0, 1))
        assert prob.dim == 784
        assert prob.n == 4

    def test_digit_absent(self, tmp_path):
        imgs = np.zeros((3, 2, 2), dtype=np.uint8)
        img_path, lab_path = write_idx_pair(tmp_path, imgs, [0, 0, 1])
        with pytest.raises(DigitAbsentError):
            load_idx(img_path, lab_path, digits=(2, 7))

    def test_magic_mismatch(self, tmp_path):
        img_path = tmp_path / "bad.idx"
        img_path.write_bytes(struct.pack(">IIII", 0x9999, 1, 2, 2) + b"\x00" * 4)
        lab_path = tmp_path / "lab.idx"
        lab_path.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
        with pytest.raises(IdxFormatError):
            load_idx(img_path, lab_path)

    def test_truncated(self, tmp_path):
        img_path = tmp_path / "short.idx"
        img_path.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 3)
        lab_path = tmp_path / "lab.idx"
        lab_path.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00\x01")
        with pytest.raises(IdxFormatError):
            load_idx(img_path, lab_path)

    def test_count_mismatch(self, tmp_path):
        imgs = np.zeros((2, 2, 2), dtype=np.uint8)
        img_path, _ = write_idx_pair(tmp_path, imgs, [0, 1])
        lab_path = tmp_path / "lab3.idx"
        lab_path.write_bytes(struct.pack(">II", 0x801, 3) + b"\x00\x01\x00")
        with pytest.raises(IdxFormatError):
            load_idx(img_path, lab_path)


class TestConfigParsing:
    def test_happy_path_with_comments(self):
        cfg = parse_config_text("""
            # sweep setup
            eps_grid = 0.5:2:0.5
            trials = 3          # few trials
            mechanism_kind = OUTPUT_PERTURB_MDP
            seed = 7
            lam = 0.5
            noiseless = true
        """)
        assert cfg.eps_grid == (0.5, 1.0, 1.5)
        assert cfg.mechanism_kind == "OUTPUT_PERTURB_MDP"
        assert cfg.noiseless is True

    def test_unknown_key(self):
        # workers was a key until trials ran batched; it is unknown now
        for key in ("bogus", "workers"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config_text("eps_grid = 1\ntrials = 1\nmechanism_kind = PNSGD_DP\n"
                                  f"seed = 1\n{key} = 2\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            parse_config_text("trials = 3\n")

    def test_noiseless_values(self):
        base = "eps_grid = 1\nmechanism_kind = PNSGD_DP\nseed = 1\nnoiseless = "
        for text, value in (("TRUE", True), ("Yes", True), ("1", True),
                            ("false", False), ("NO", False), ("0", False)):
            assert parse_config_text(base + text + "\n").noiseless is value
        for text in ("on", "ture", ""):
            with pytest.raises(ConfigError, match="line 4: bad value for noiseless"):
                parse_config_text(base + text + "\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config_text("eps_grid = 1,2\ntrials = many\n"
                              "mechanism_kind = PNSGD_DP\nseed = 1\n")

    def test_grid_specs(self):
        assert parse_eps_grid("0.1:1.2:0.35") == pytest.approx((0.1, 0.45, 0.8, 1.15))
        assert parse_eps_grid("1,2,4") == (1.0, 2.0, 4.0)
        with pytest.raises(ConfigError):
            parse_eps_grid("5:1:0.5")

    def test_grid_size_capped(self):
        # refused from its spec alone: building its 1e9 points would fill memory
        with pytest.raises(ConfigError, match="points"):
            parse_eps_grid("0:1:1e-9")
        assert parse_eps_grid("0.1:5:0.35") == tuple(0.1 + i * 0.35 for i in range(14))

    def test_non_finite_grid_rejected(self):
        for grid in ((1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ConfigError, match="finite"):
                tiny_config(eps_grid=grid)
        # a non-finite end or step would otherwise never end the grid
        for text in ("1,nan", "1,inf", "0:inf:1", "0:nan:1", "nan:1:0.5", "0:1:inf"):
            with pytest.raises(ConfigError):
                parse_eps_grid(text)

    def test_delta_range(self):
        for delta in (-1e-5, 1.0, math.nan):
            with pytest.raises(ConfigError, match="delta"):
                tiny_config(delta=delta)
        assert tiny_config(delta=0.0).delta == 0.0

    def test_alpha_and_radius_range(self):
        for alpha in (1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="alpha"):
                tiny_config(alpha=alpha)
        for radius in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="constraint_radius"):
                tiny_config(constraint_radius=radius)

    def test_samples_and_digit_pair_range(self):
        # n_samples is the adversary's query budget: at least one release;
        # the synthetic dataset needs a row and a coordinate, and the
        # message names the key, from a file or from the constructor
        for key in ("n_samples", "train_size", "dim"):
            with pytest.raises(ConfigError, match=f"^{key} must be >= 1"):
                tiny_config(**{key: 0})
            with pytest.raises(ConfigError, match=f"^{key} must be >= 1"):
                parse_config_text("eps_grid = 1\nmechanism_kind = OUTPUT_PERTURB_DP\n"
                                  f"seed = 1\n{key} = -1\n")
        # a pair of equal labels would make every row one class, and more
        # than two labels no binary problem
        for pair in ((1, 1), (0, 1, 2), (3,)):
            with pytest.raises(ConfigError, match="digit_pair"):
                tiny_config(digit_pair=pair)
        for text in ("1,1", "0,1,2"):
            with pytest.raises(ConfigError, match="digit_pair"):
                parse_config_text("eps_grid = 1\nmechanism_kind = OUTPUT_PERTURB_DP\n"
                                  f"seed = 1\ndigit_pair = {text}\n")
        assert tiny_config(digit_pair=("7", 2)).digit_pair == (7, 2)

    def test_seed_range(self):
        # the config refuses a negative seed before any dataset is read
        with pytest.raises(ConfigError, match="seed"):
            tiny_config(seed=-3)
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("eps_grid = 1\nmechanism_kind = OUTPUT_PERTURB_DP\nseed = -3\n")
        assert tiny_config(seed=0).seed == 0

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(eps_grid=(2.0, 1.0))
        for grid in ((-1.0, 1.0), (0.0, 1.0)):
            with pytest.raises(ConfigError, match="positive"):
                tiny_config(eps_grid=grid)
        with pytest.raises(ConfigError):
            tiny_config(eps_grid=())
        with pytest.raises(ConfigError):
            tiny_config(trials=0)
        with pytest.raises(ConfigError):
            tiny_config(mechanism_kind="SOMETHING")


class TestRunSweep:
    def test_noiseless_zero_error(self, monkeypatch):
        # a noiseless sweep releases the optimum itself: no sampler is called
        def no_draw(*args, **kwargs):
            raise AssertionError("a noiseless sweep drew a release")
        monkeypatch.setattr(harness, "output_perturb_dp", no_draw)
        monkeypatch.setattr(harness, "output_perturb_mdp_euclidean", no_draw)
        for kind in ("OUTPUT_PERTURB_DP", "OUTPUT_PERTURB_MDP"):
            res = run_sweep(tiny_config(mechanism_kind=kind, trials=2, n_samples=2,
                                        noiseless=True))
            for row in res.rows:
                assert row.mean_mse < 1e-12, kind
                assert row.failures == 0, kind

    def test_two_spawned_generators_per_cell(self, monkeypatch):
        # one generator per cell for the releases, one for the bootstrap,
        # and none per trial
        keys = []
        real_sequence = np.random.SeedSequence

        def recording(*args, **kwargs):
            keys.append(kwargs.get("spawn_key"))
            return real_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", recording)
        for kind in ("OUTPUT_PERTURB_MDP", "PNSGD_MDP"):
            keys.clear()
            run_sweep(tiny_config(mechanism_kind=kind, eps_grid=(1.0, 2.0, 3.0), trials=4,
                                  n_samples=2, train_size=40))
            assert sorted(k for k in keys if k) == [(s, c) for s in (0, 1) for c in range(3)]

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = tiny_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(cfg), p1)
        emit_csv(run_sweep(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_holds_one_copy_of_the_features(self, monkeypatch):
        # the array the dataset build freezes is the one the problem and
        # the threat model hold
        built, models = [], []
        real_problem, real_attack = harness.LogRegProblem, harness.attack_average
        monkeypatch.setattr(harness, "LogRegProblem",
                            lambda **kw: built.append(kw["features"]) or real_problem(**kw))
        monkeypatch.setattr(harness, "attack_average",
                            lambda model, releases: (models.append(model)
                                                     or real_attack(model, releases)))
        run_sweep(tiny_config(trials=2, lam=1e-2, train_size=2000, dim=16))
        assert np.shares_memory(models[0].problem.features, built[0])

    def test_ci_brackets_mean(self):
        res = run_sweep(tiny_config(trials=8))
        for row in res.rows:
            assert row.ci_low <= row.mean_mse <= row.ci_high

    def test_trials_default_is_desk_scale(self):
        cfg = parse_config_text("eps_grid = 1\nmechanism_kind = OUTPUT_PERTURB_DP\n"
                                "seed = 1\n")
        assert cfg.trials == 50

    def test_csv_round_trip(self, tmp_path):
        res = run_sweep(tiny_config())
        path = tmp_path / "sweep.csv"
        emit_csv(res, path)
        header, *lines = path.read_text(encoding="ascii").splitlines()
        cols = header.split(",")
        assert cols == ["epsilon", "mechanism", "mean_mse", "ci_low", "ci_high",
                        *res.bound_names, "failures"]
        assert len(lines) == len(res.rows)
        for row, line in zip(res.rows, lines):
            parsed = dict(zip(cols, line.split(",")))
            assert parsed["mechanism"] == row.mechanism
            assert float(parsed["epsilon"]) == pytest.approx(row.epsilon, abs=1e-12)
            assert float(parsed["mean_mse"]) == pytest.approx(row.mean_mse, abs=1e-12)
            assert float(parsed["ci_low"]) == pytest.approx(row.ci_low, abs=1e-12)
            assert float(parsed["ci_high"]) == pytest.approx(row.ci_high, abs=1e-12)
            for name in res.bound_names:
                assert float(parsed[name]) == pytest.approx(row.bound_values[name],
                                                            abs=1e-12)
            assert int(parsed["failures"]) == row.failures

    def test_all_failed_cell_reports_infinite_mean(self):
        # heavy noise at tiny epsilon makes the inversion unsolvable for
        # every draw; the cell must say so rather than fake a number
        cfg = tiny_config(eps_grid=(0.05,), trials=4, train_size=80, dim=4)
        res = run_sweep(cfg)
        row = res.rows[0]
        assert math.isinf(row.mean_mse)
        assert row.failures == 4
        assert math.isinf(row.ci_low) and math.isinf(row.ci_high)

    def test_ci_width_shrinks_with_trials(self, monkeypatch):
        # the bootstrap interval of a cell's mean error is about 2 * 1.96
        # standard errors s / sqrt(k) wide, over its k surviving errors;
        # these errors are heavy-tailed, so one seed's width need not
        # shrink from 50 trials to 200, but each tracks its own s / sqrt(k)
        survivors = []
        real_attack = harness.attack_average

        def recording(model, releases):
            mse, failures = real_attack(model, releases)
            survivors.append(mse[~np.isnan(mse)])
            return mse, failures

        monkeypatch.setattr(harness, "attack_average", recording)
        for seed in (5, 6, 7):
            for trials in (50, 200):
                row = run_sweep(SweepConfig(eps_grid=(10.0,), trials=trials,
                                            mechanism_kind="OUTPUT_PERTURB_DP", seed=seed,
                                            lam=1.0, train_size=80, dim=4)).rows[0]
                mses = survivors.pop()
                standard_width = 2 * 1.96 * mses.std() / math.sqrt(mses.size)
                assert row.ci_high - row.ci_low == pytest.approx(standard_width, rel=0.1), (
                    seed, trials)

    def test_mdp_kind_bounds_present(self):
        res = run_sweep(tiny_config(mechanism_kind="OUTPUT_PERTURB_MDP", trials=2))
        assert res.bound_names == ("mdp_lecam", "mdp_fano")
        for row in res.rows:
            assert row.bound_values["mdp_fano"] > 0

    def test_pnsgd_kinds_run(self):
        cfg = tiny_config(mechanism_kind="PNSGD_DP", trials=2, train_size=40,
                          eps_grid=(2.0,), delta=1e-3)
        res = run_sweep(cfg)
        assert len(res.rows) == 1
        cfgm = tiny_config(mechanism_kind="PNSGD_MDP", trials=2, train_size=40,
                           eps_grid=(2.0,))
        resm = run_sweep(cfgm)
        assert resm.bound_names == ("mdp_lecam", "mdp_fano")


class TestKindDispatch:
    # per kind: metric privacy, and whether it is a PNSGD pass.  A cell's
    # guarantee carries a PNSGD_DP pass's Renyi slope rho, which has spent
    # delta, and PNSGD_MDP's delta for its bounds; the DP two-point KL is
    # rho where there is one, in place of eps*tanh(eps/2)
    KINDS = {"OUTPUT_PERTURB_DP": (False, False), "OUTPUT_PERTURB_MDP": (True, False),
             "PNSGD_DP": (False, True), "PNSGD_MDP": (True, True)}

    def test_table_keys(self):
        assert set(MECHANISM_KINDS) == set(self.KINDS)

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_bounds_follow_the_kind(self, name, monkeypatch):
        metric, pnsgd = self.KINDS[name]
        eps = 1.5
        cfg = tiny_config(mechanism_kind=name, eps_grid=(eps,), trials=1, train_size=40,
                          delta=1e-3, n_samples=2)
        seen = []

        def recording(guarantee, n, dim):
            seen.append(guarantee)
            return evaluate_bounds(guarantee, n, dim)

        monkeypatch.setattr(harness, "evaluate_bounds", recording)
        result = run_sweep(cfg)
        (guarantee,) = seen
        rho = pnsgd_mod.renyi_slope_for_dp(eps, cfg.delta) if pnsgd and not metric else None
        delta = cfg.delta if metric and pnsgd else 0.0
        assert (guarantee.eps, guarantee.metric, guarantee.rho, guarantee.delta) == (
            eps, metric, rho, delta)
        if metric:
            want = {"mdp_lecam": bounds.mdp_lecam_bound(eps, 2, 2.0, delta),
                    "mdp_fano": bounds.mdp_fano_bound(eps, 2, 2.0, cfg.dim * math.log(2.0),
                                                      delta)}
        else:
            kl = kl_bound(eps) if rho is None else rho
            want = {"dp_lecam": bounds.two_point_bound(2.0, kl, 2),
                    "rdp_unbiased": bounds.unbiased_rdp_bound(eps, float(cfg.dim))}
        got = evaluate_bounds(guarantee, cfg.n_samples, cfg.dim)
        assert list(got) == list(want)
        assert got == want
        assert result.bound_names == tuple(want)

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_one_slope_per_cell(self, name, monkeypatch):
        # the noise and the bounds read the cell's one guarantee, so a
        # PNSGD_DP sweep forms each cell's slope once; the others never
        calls = []
        slope = pnsgd_mod.renyi_slope_for_dp

        def counting(eps, delta):
            calls.append(eps)
            return slope(eps, delta)

        monkeypatch.setattr(pnsgd_mod, "renyi_slope_for_dp", counting)
        cfg = tiny_config(mechanism_kind=name, eps_grid=(0.5, 1.5, 4.0), trials=1,
                          train_size=40, n_samples=2)
        run_sweep(cfg)
        assert calls == (list(cfg.eps_grid) if name == "PNSGD_DP" else [])

    def test_pnsgd_dp_noise_and_bound_read_one_slope(self, monkeypatch):
        # the pass's noise sigma and its audited two-point bound come from
        # the one Renyi slope rho: sigma^2 = 2*G^2/rho, and KL <= rho
        sigmas = []
        run = pnsgd_mod.pnsgd_run

        def recording(sigma, *args, **kwargs):
            sigmas.append(np.array(sigma, dtype=float))
            return run(sigma, *args, **kwargs)

        monkeypatch.setattr(pnsgd_mod, "pnsgd_run", recording)
        cfg = tiny_config(mechanism_kind="PNSGD_DP", eps_grid=(0.1, 1.5, 4.65, 40.0),
                          trials=1, train_size=40, n_samples=2, delta=1e-5,
                          constraint_radius=10.0, lam=0.01)
        result = run_sweep(cfg)
        assert len(sigmas) == cfg.n_samples
        g_bound = 1.0 + cfg.lam * cfg.constraint_radius
        for sigma, row in zip(sigmas[0], result.rows):
            rho = pnsgd_mod.renyi_slope_for_dp(row.epsilon, cfg.delta)
            assert 2.0 * g_bound * g_bound / (sigma * sigma) == pytest.approx(
                rho, rel=4 * np.finfo(float).eps, abs=0)
            assert row.bound_values["dp_lecam"] == bounds.two_point_bound(2.0, rho,
                                                                           cfg.n_samples)
        assert all(np.array_equal(sigmas[0], other) for other in sigmas)


class TestTrivialRisk:
    # the constant estimator 0 has worst-case risk 1 on the unit ball, so
    # no valid lower bound there exceeds 1
    @pytest.mark.parametrize("name", sorted(MECHANISM_KINDS))
    def test_two_point_cells_within_trivial_risk(self, name):
        cfg = tiny_config(mechanism_kind=name, eps_grid=(1e-3, 0.1, 1.0), trials=1,
                          train_size=40, n_samples=1)
        checked = 0
        for row in run_sweep(cfg).rows:
            for bound, value in row.bound_values.items():
                if bound in AUDITED_BOUNDS:
                    assert value <= 1.0, (row.epsilon, bound, value)
                    checked += 1
        # two audited bounds per metric cell (mdp_lecam, mdp_fano), one per DP cell
        per_cell = 2 if MECHANISM_KINDS[name].metric else 1
        assert checked == per_cell * len(cfg.eps_grid)


class TestEmission:
    def test_empty_result_refused(self, tmp_path):
        cfg = tiny_config()
        empty = SweepResult(config=cfg, bound_names=("dp_lecam",), rows=())
        with pytest.raises(ValueError):
            emit_csv(empty, tmp_path / "no.csv")
        with pytest.raises(ValueError):
            emit_svg(empty, tmp_path / "no.svg")

    def test_svg_frames_a_sweep_with_nothing_to_plot(self, tmp_path):
        # every draw failed and every bound underflowed: the axes, the
        # grid's tick and each series' legend entry are drawn, the series
        # themselves are empty
        cfg = tiny_config(eps_grid=(1000.0,), trials=1)
        row = SweepRow(epsilon=1000.0, mechanism="OUTPUT_PERTURB_DP", mean_mse=math.inf,
                       ci_low=math.inf, ci_high=math.inf,
                       bound_values={"dp_lecam": 0.0, "rdp_unbiased": 0.0}, failures=1)
        rigged = SweepResult(config=cfg, bound_names=("dp_lecam", "rdp_unbiased"),
                             rows=(row,))
        path = tmp_path / "empty.svg"
        emit_svg(rigged, path)
        svg = path.read_text()
        assert svg.count('points=""') == 3 and "<polygon" not in svg
        for label in ("empirical", "dp_lecam", "rdp_unbiased", ">1000<", ">epsilon<"):
            assert label in svg
        assert svg.count("<line ") == 2 and svg.endswith("</svg>\n")

    def test_svg_series_count(self, tmp_path):
        res = run_sweep(tiny_config(trials=3))
        path = tmp_path / "plot.svg"
        emit_svg(res, path)
        svg = path.read_text()
        assert svg.count("<polyline") == len(res.bound_names) + 1
        assert svg.count("<polygon") == 1
        assert 'version="1.1"' in svg

    def test_bounds_csv(self, tmp_path):
        rows = [(1.0, "dp_lecam", 0.25, Validity.VALID),
                (1.0, "rdp_unbiased", 114.0, Validity.VACUOUS),
                (0.0, "mdp_fano", math.inf, Validity.INFINITE)]
        path = tmp_path / "bounds.csv"
        emit_bounds_csv(rows, path)
        text = path.read_text().splitlines()
        assert text[0] == "epsilon,bound_name,value,validity_flag"
        assert text[2].endswith("VACUOUS")
        assert "inf" in text[3]


class TestDominanceAudit:
    def test_passes_on_real_sweep(self):
        audit_dominance(run_sweep(tiny_config(trials=4)))

    def test_flags_violation(self):
        cfg = tiny_config()
        row = SweepRow(epsilon=1.0, mechanism="OUTPUT_PERTURB_DP", mean_mse=0.001,
                       ci_low=0.0, ci_high=0.002,
                       bound_values={"dp_lecam": 0.1, "rdp_unbiased": 5.0},
                       failures=0)
        rigged = SweepResult(config=cfg, bound_names=("dp_lecam", "rdp_unbiased"),
                             rows=(row,))
        with pytest.raises(DominanceError):
            audit_dominance(rigged)

    def test_unbiased_prior_bound_not_audited(self):
        # the prior bound assumes unbiased attacks; a mean below it alone
        # must not fail the audit
        cfg = tiny_config()
        row = SweepRow(epsilon=1.0, mechanism="OUTPUT_PERTURB_DP", mean_mse=1.0,
                       ci_low=0.9, ci_high=1.1,
                       bound_values={"dp_lecam": 0.1, "rdp_unbiased": 5.0},
                       failures=0)
        audit_dominance(SweepResult(config=cfg,
                                    bound_names=("dp_lecam", "rdp_unbiased"),
                                    rows=(row,)))
