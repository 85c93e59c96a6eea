from reconbound import cli, harness, oracle
from reconbound.harness import SweepConfig, SweepResult, SweepRow
from reconbound.metric_space import FiniteMetricSpace


def run_cli(argv):
    return cli.main(argv)


class TestCovering:
    def test_matrix_file(self, tmp_path, capsys):
        sp = FiniteMetricSpace.from_points([[0.0], [1.0], [2.0]])
        path = tmp_path / "m.txt"
        sp.to_file(path)
        assert run_cli(["covering", "--matrix", str(path), "--eta", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "covering=1" in out and "packing=3" in out

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli(["covering", "--matrix", str(tmp_path / "nope.txt"),
                        "--eta", "1.0"]) == 4

    def test_bad_eta_is_config_error(self, tmp_path):
        sp = FiniteMetricSpace.from_points([[0.0], [1.0]])
        path = tmp_path / "m.txt"
        sp.to_file(path)
        assert run_cli(["covering", "--matrix", str(path), "--eta", "-1"]) == 2


class TestBounds:
    def test_unit_ball_flags(self, tmp_path, capsys):
        out_path = tmp_path / "bounds.csv"
        code = run_cli(["bounds", "--eps-grid", "1,3,5.5", "--diam", "1.0",
                        "--coord-diam-sq-sum", "784", "--d-eff", "11.09",
                        "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "epsilon,bound_name,value,validity_flag"
        prior = [ln for ln in lines if ",rdp_unbiased," in ln]
        assert prior[0].endswith("VACUOUS")   # eps=1 under the threshold
        assert prior[2].endswith("VALID")     # eps=5.5 above it


class TestOracleCommand:
    def test_two_point(self, capsys):
        assert run_cli(["oracle", "--eps-grid", "0.5,1", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 2

    def test_multi_hypothesis(self, capsys):
        assert run_cli(["oracle", "--eps-grid", "1", "--inputs", "4"]) == 0
        assert "info_bound" in capsys.readouterr().out

    def test_certificate_violation_exit_5(self, monkeypatch, capsys):
        # a broken exact risk trips the certificate chain
        monkeypatch.setattr(oracle, "exact_bayes_risk", lambda *a, **k: 0.0)
        assert run_cli(["oracle", "--eps-grid", "1"]) == 5
        assert "certificate violation" in capsys.readouterr().err


class TestSweepCommand:
    def test_config_file_run(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("eps_grid = 1,2\ntrials = 2\n"
                       "mechanism_kind = OUTPUT_PERTURB_DP\nseed = 3\n"
                       "lam = 1.0\ntrain_size = 50\ndim = 3\nnoiseless = true\n")
        out_dir = tmp_path / "out"
        code = run_cli(["sweep", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "sweep_output_perturb_dp.csv").exists()
        assert (out_dir / "sweep_output_perturb_dp.svg").exists()
        assert "dominance audit skipped" in capsys.readouterr().out

    def test_flag_overrides(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("eps_grid = 1\ntrials = 2\n"
                       "mechanism_kind = OUTPUT_PERTURB_DP\nseed = 3\n"
                       "lam = 1.0\ntrain_size = 50\ndim = 3\nnoiseless = true\n")
        out_dir = tmp_path / "out"
        code = run_cli(["sweep", "--config", str(cfg), "--out", str(out_dir),
                        "--mechanism", "OUTPUT_PERTURB_MDP", "--trials", "1"])
        assert code == 0
        assert (out_dir / "sweep_output_perturb_mdp.csv").exists()

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("eps_grid = 1\nbogus = 1\n")
        assert run_cli(["sweep", "--config", str(cfg)]) == 2

    def test_malformed_idx_is_io_error(self, tmp_path, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(b"\x00\x00\x99\x99" + b"\x00" * 12)
        labels.write_bytes(b"\x00\x00\x08\x01\x00\x00\x00\x00")
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("eps_grid = 1\nmechanism_kind = OUTPUT_PERTURB_DP\nseed = 1\n"
                       f"dataset_source = IDX_FILES\nidx_images = {images}\n"
                       f"idx_labels = {labels}\n")
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_flags_required_without_config(self):
        assert run_cli(["sweep", "--trials", "2"]) == 2

    def test_dominance_violation_exit_3(self, tmp_path, monkeypatch):
        cfg_obj = SweepConfig(eps_grid=(1.0,), trials=1,
                              mechanism_kind="OUTPUT_PERTURB_DP", seed=1,
                              train_size=40, dim=2, lam=1.0)
        row = SweepRow(epsilon=1.0, mechanism="OUTPUT_PERTURB_DP", mean_mse=1e-9,
                       ci_low=0.0, ci_high=1e-9,
                       bound_values={"dp_lecam": 0.2, "rdp_unbiased": 1.0},
                       failures=0)
        rigged = SweepResult(config=cfg_obj, bound_names=("dp_lecam", "rdp_unbiased"),
                             rows=(row,))
        monkeypatch.setattr(harness, "run_sweep", lambda config: rigged)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("eps_grid = 1\ntrials = 1\n"
                       "mechanism_kind = OUTPUT_PERTURB_DP\nseed = 1\n"
                       "train_size = 40\ndim = 2\nlam = 1.0\n")
        code = run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
