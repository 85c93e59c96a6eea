import math
import struct

import numpy as np
import pytest

from reconbound.harness import (ConfigError, DigitAbsentError, DominanceError,
                                IdxFormatError, SweepConfig, SweepResult, SweepRow,
                                audit_dominance, emit_bounds_csv, emit_csv, emit_svg,
                                generate_synthetic, load_idx, parse_config_text,
                                parse_eps_grid, parse_sweep_csv, run_sweep)
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

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config_text("eps_grid = 1,2\ntrials = many\n"
                              "mechanism_kind = PNSGD_DP\nseed = 1\n")

    def test_grid_specs(self):
        assert parse_eps_grid("0.1:1.2:0.35") == pytest.approx((0.1, 0.45, 0.8, 1.15))
        assert parse_eps_grid("1,2,4") == (1.0, 2.0, 4.0)
        with pytest.raises(ConfigError):
            parse_eps_grid("5:1:0.5")

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(eps_grid=(2.0, 1.0))
        with pytest.raises(ConfigError):
            tiny_config(eps_grid=())
        with pytest.raises(ConfigError):
            tiny_config(trials=0)
        with pytest.raises(ConfigError):
            tiny_config(mechanism_kind="SOMETHING")


class TestRunSweep:
    def test_noiseless_zero_error(self):
        cfg = tiny_config(trials=1, noiseless=True)
        res = run_sweep(cfg)
        for row in res.rows:
            assert row.mean_mse < 1e-12
            assert row.failures == 0

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = tiny_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(cfg), p1)
        emit_csv(run_sweep(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

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
        back = parse_sweep_csv(path)
        assert len(back) == len(res.rows)
        for row, parsed in zip(res.rows, back):
            assert parsed["epsilon"] == pytest.approx(row.epsilon, abs=1e-12)
            assert parsed["mean_mse"] == pytest.approx(row.mean_mse, abs=1e-12)
            assert parsed["ci_low"] == pytest.approx(row.ci_low, abs=1e-12)
            assert parsed["ci_high"] == pytest.approx(row.ci_high, abs=1e-12)
            for name in res.bound_names:
                assert parsed[name] == pytest.approx(row.bound_values[name], abs=1e-12)
            assert parsed["failures"] == row.failures

    def test_all_failed_cell_reports_infinite_mean(self):
        # heavy noise at tiny epsilon makes the inversion unsolvable for
        # every draw; the cell must say so rather than fake a number
        cfg = tiny_config(eps_grid=(0.05,), trials=4, train_size=80, dim=4)
        res = run_sweep(cfg)
        row = res.rows[0]
        assert math.isinf(row.mean_mse)
        assert row.failures == 4
        assert math.isinf(row.ci_low) and math.isinf(row.ci_high)

    def test_ci_width_shrinks_with_trials(self):
        # concentrated regime: high epsilon, stable inversion
        mk = lambda trials: SweepConfig(eps_grid=(10.0,), trials=trials,
                                        mechanism_kind="OUTPUT_PERTURB_DP", seed=5,
                                        lam=1.0, train_size=80, dim=4)
        w50 = (lambda r: r.rows[0].ci_high - r.rows[0].ci_low)(run_sweep(mk(50)))
        w200 = (lambda r: r.rows[0].ci_high - r.rows[0].ci_low)(run_sweep(mk(200)))
        assert w200 < w50

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


class TestEmission:
    def test_empty_result_refused(self, tmp_path):
        cfg = tiny_config()
        empty = SweepResult(config=cfg, bound_names=("dp_lecam",), rows=())
        with pytest.raises(ValueError):
            emit_csv(empty, tmp_path / "no.csv")
        with pytest.raises(ValueError):
            emit_svg(empty, tmp_path / "no.svg")

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
                (0.0, "mdp_lecam", math.inf, Validity.INFINITE)]
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
