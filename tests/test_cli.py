import sys
import time
import warnings

import numpy as np
import pytest

from reconbound import cli, harness, oracle
from reconbound.harness import SweepConfig, SweepResult, SweepRow
from reconbound.metric_space import FiniteMetricSpace, pairwise_distances


def run_cli(argv):
    return cli.main(argv)


def write_matrix(path, vectors):
    """The Euclidean distance matrix of row vectors in the covering
    command's file format: the point count, then one row per line."""
    dist = pairwise_distances(vectors)
    rows = (" ".join(repr(float(v)) for v in row) for row in dist)
    path.write_text(f"{len(dist)}\n" + "\n".join(rows) + "\n", encoding="ascii")


class TestCovering:
    def test_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        write_matrix(path, [[0.0], [1.0], [2.0]])
        assert run_cli(["covering", "--matrix", str(path), "--eta", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "covering=1" in out and "packing=3" in out

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli(["covering", "--matrix", str(tmp_path / "nope.txt"),
                        "--eta", "1.0"]) == 4

    def test_bad_eta_is_config_error(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, [[0.0], [1.0]])
        for eta in ("-1", "nan"):
            assert run_cli(["covering", "--matrix", str(path), "--eta", eta]) == 2

    def test_space_beyond_recursion_depth_exit_2(self, tmp_path, capsys):
        # both searches recurse once per point: at a tiny eta on a line, a
        # space as large as the recursion limit would overflow the stack
        limit = 400
        path = tmp_path / "m.txt"
        write_matrix(path, np.arange(float(limit))[:, None])
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            code = run_cli(["covering", "--matrix", str(path), "--eta", "0.001",
                            "--cap", str(2 * limit)])
        finally:
            sys.setrecursionlimit(old)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "recursion" in err


    def test_large_space_refused_before_validation(self, tmp_path, monkeypatch, capsys):
        # the file's point count is checked against --cap and the
        # recursion depth before the distances are parsed, so the
        # all-triples validation of the space never runs
        small, large = tmp_path / "small.txt", tmp_path / "large.txt"
        write_matrix(small, np.arange(30.0)[:, None])
        write_matrix(large, np.arange(250.0)[:, None])

        def unreachable(self):
            raise AssertionError("validated a space the searches refuse")

        monkeypatch.setattr(FiniteMetricSpace, "__post_init__", unreachable)
        assert run_cli(["covering", "--matrix", str(small), "--eta", "1.0"]) == 2
        assert "30 points exceeds exhaustive-search cap 20" in capsys.readouterr().err
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(400)
        try:
            code = run_cli(["covering", "--matrix", str(large), "--eta", "1.0",
                            "--cap", "1000"])
        finally:
            sys.setrecursionlimit(old)
        assert code == 2
        assert "recursion depth 200" in capsys.readouterr().err


class TestBounds:
    def test_unit_ball_flags(self, tmp_path, capsys):
        # the unit ball has diameter 2 and trivial risk 1, which the prior
        # bound crosses at its threshold ln(1 + 784/4) = 5.28
        out_path = tmp_path / "bounds.csv"
        code = run_cli(["bounds", "--eps-grid", "1,3,5.5", "--diam", "2.0",
                        "--coord-diam-sq-sum", "784", "--d-eff", "11.09",
                        "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "epsilon,bound_name,value,validity_flag"
        prior = [ln for ln in lines if ",rdp_unbiased," in ln]
        assert prior[0].endswith("VACUOUS")   # eps=1 under the threshold
        assert prior[2].endswith("VALID")     # eps=5.5 above it

    def test_trivial_risk_is_the_squared_radius(self, tmp_path):
        # on a ball of diameter 2 the trivial risk is 1, not diam^2 = 4:
        # 4 / (4 * (e^0.3 - 1)) = 2.858 is vacuous
        out_path = tmp_path / "bounds.csv"
        assert run_cli(["bounds", "--eps-grid", "0.3", "--diam", "2",
                        "--coord-diam-sq-sum", "4", "--out", str(out_path)]) == 0
        (row,) = [ln for ln in out_path.read_text().splitlines() if ",rdp_unbiased," in ln]
        eps, _, value, flag = row.split(",")
        assert float(value) == pytest.approx(2.858, abs=5e-4)
        assert flag == "VACUOUS"

    def test_fano_square_beyond_float_range(self, tmp_path):
        # (d_eff - ln 2)^2 is past the float range, but no value is formed
        # from it: the packing ball of diameter 1 caps the bound at 1/64
        out_path = tmp_path / "bounds.csv"
        for d_eff in ("1e200", "1e308"):
            assert run_cli(["bounds", "--eps-grid", "1", "--diam", "1", "--d-eff", d_eff,
                            "--out", str(out_path)]) == 0
            assert "1.0,mdp_fano,0.015625,VALID" in out_path.read_text()

    def test_fano_denominator_beyond_float_range(self, tmp_path):
        # 8*n*eps^2*d_eff is past the float range, but no value is formed
        # from it: at gap = 1e150 the linear reach 2*gap/3 keeps the whole
        # diameter, and n*kl = 1e100 is lost against the gap
        out_path = tmp_path / "bounds.csv"
        assert run_cli(["bounds", "--eps-grid", "1e100", "--diam", "1", "--d-eff", "1e150",
                        "--out", str(out_path)]) == 0
        assert "1e+100,mdp_fano,0.015625,VALID" in out_path.read_text()


class TestOracleCommand:
    def test_two_point(self, capsys):
        assert run_cli(["oracle", "--eps-grid", "0.5,1", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 2

    def test_multi_hypothesis(self, capsys):
        assert run_cli(["oracle", "--eps-grid", "1", "--inputs", "4"]) == 0
        assert "info_bound" in capsys.readouterr().out

    def test_long_enumeration_refused_at_once(self, capsys):
        # 3^(10^8) is refused from the cap's bit length, without forming
        # the 48-million-digit count; the message names the cap, not it
        start = time.perf_counter()
        assert run_cli(["oracle", "--eps-grid", "1", "--inputs", "3",
                        "--n", "100000000"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f"3^100000000 tuples exceed cap {oracle.ENUMERATION_CAP}" in err
        assert len(err) < 100

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

    def test_flags_only_run(self, tmp_path):
        out_dir = tmp_path / "out"
        code = run_cli(["sweep", "--eps-grid", "1,2", "--mechanism", "OUTPUT_PERTURB_MDP",
                        "--seed", "3", "--trials", "1", "--out", str(out_dir)])
        assert code == 0
        lines = (out_dir / "sweep_output_perturb_mdp.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["1.0", "2.0"]

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


class TestLargeEpsilon:
    # e^eps overflows a float above eps = 709.78
    def test_oracle(self, capsys):
        assert run_cli(["oracle", "--eps-grid", "710"]) == 0
        assert run_cli(["oracle", "--eps-grid", "800", "--inputs", "3"]) == 0
        assert capsys.readouterr().out.count("OK") == 2

    def test_bounds(self, tmp_path):
        out_path = tmp_path / "bounds.csv"
        assert run_cli(["bounds", "--eps-grid", "710", "--diam", "1",
                        "--coord-diam-sq-sum", "1", "--out", str(out_path)]) == 0
        assert "710.0,rdp_unbiased,0.0,VALID" in out_path.read_text()

    def test_sweep(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("eps_grid = 710\nmechanism_kind = OUTPUT_PERTURB_DP\nseed = 1\n"
                       "trials = 1\nlam = 1.0\ntrain_size = 40\ndim = 2\n")
        out_dir = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert (out_dir / "sweep_output_perturb_dp.csv").exists()


class TestNothingToPlot:
    def test_sweep_completes(self, tmp_path, capsys):
        # every draw fails and both bounds underflow to 0, so no value is
        # positive and finite; the sweep still writes its CSV and an SVG of
        # empty series, and the audit runs
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("eps_grid = 1000\nmechanism_kind = PNSGD_DP\nseed = 1\n"
                       "trials = 1\ntrain_size = 40\ndim = 4\n")
        out_dir = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 0
        lines = (out_dir / "sweep_pnsgd_dp.csv").read_text().splitlines()
        assert lines[1] == "1000.0,PNSGD_DP,inf,inf,inf,0.0,0.0,1"
        assert 'points=""' in (out_dir / "sweep_pnsgd_dp.svg").read_text()
        assert "dominance audit passed" in capsys.readouterr().out

    def test_one_point_grid_beyond_integer_precision(self, tmp_path):
        # a one-point grid at eps = 1e40, where eps + 1 == eps, is drawn at
        # the left edge of the axis
        out_dir = tmp_path / "out"
        assert run_cli(["sweep", "--mechanism", "OUTPUT_PERTURB_MDP", "--eps-grid", "1e40",
                        "--seed", "1", "--trials", "1", "--out", str(out_dir)]) == 0
        assert '<text x="60.0" y="438.0"' in (out_dir / "sweep_output_perturb_mdp.svg").read_text()


class TestTinyEpsilon:
    # eps^2 underflows to 0 below about 1.5e-162, and exp(eps) - 1.0 is 0
    # below 1.1e-16: the bounds there are inf or finite, never a traceback
    def test_bounds(self, tmp_path):
        metric, dp = tmp_path / "metric.csv", tmp_path / "dp.csv"
        assert run_cli(["bounds", "--eps-grid", "1e-200", "--diam", "1",
                        "--d-eff", "11", "--out", str(metric)]) == 0
        assert run_cli(["bounds", "--eps-grid", "1e-17", "--diam", "1",
                        "--coord-diam-sq-sum", "1", "--out", str(dp)]) == 0
        assert "1e-200,mdp_lecam,0.0625,VALID" in metric.read_text()
        assert "1e-200,mdp_fano,0.014640415936704622,VALID" in metric.read_text()
        assert "1e-17,rdp_unbiased,2.5e+16,VACUOUS" in dp.read_text()

    def test_sweeps(self, tmp_path):
        # below about eps = 1e-161 a PNSGD_DP pass's Renyi slope underflows
        # to 0, and its noise is infinite: the cell draws nothing and
        # releases NaN, with no RuntimeWarning (tier-1 makes one an error)
        for kind, grid in (("OUTPUT_PERTURB_MDP", "1e-170,1"),
                           ("OUTPUT_PERTURB_DP", "1e-17,1"), ("PNSGD_DP", "1e-170,1")):
            out_dir = tmp_path / kind
            assert run_cli(["sweep", "--mechanism", kind, "--eps-grid", grid,
                            "--seed", "1", "--trials", "1", "--out", str(out_dir)]) == 0
            assert (out_dir / f"sweep_{kind.lower()}.csv").exists()


class TestBadInput:
    @pytest.mark.parametrize("flag,value", [
        ("--n", "0"), ("--diam", "-1"), ("--coord-diam-sq-sum", "-1"),
        ("--d-eff", "0.5"), ("--d-eff", "inf"), ("--coord-diam-sq-sum", "inf"),
        ("--alpha", "nan"), ("--alpha", "1"), ("--alpha", "0.5"),
        ("--delta", "1"), ("--delta", "-0.1"), ("--delta", "nan"),
        ("--eps-grid", "-1")])
    def test_bad_bound_input_exit_2(self, tmp_path, capsys, flag, value):
        # flag=value: after a space, argparse takes a value like "-1,2" for
        # a flag; a second --eps-grid replaces the first
        out_path = tmp_path / "b.csv"
        assert run_cli(["bounds", "--eps-grid", "1", "--diam", "1", f"{flag}={value}",
                        "--out", str(out_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("kind,key,value", [
        ("OUTPUT_PERTURB_DP", "lam", "nan"), ("OUTPUT_PERTURB_DP", "lam", "inf"),
        ("PNSGD_MDP", "lam", "nan"), ("PNSGD_MDP", "alpha", "nan"),
        ("PNSGD_MDP", "constraint_radius", "nan"), ("PNSGD_MDP", "constraint_radius", "inf")])
    def test_non_finite_sweep_value_exit_2(self, tmp_path, capsys, kind, key, value):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"eps_grid = 1\nmechanism_kind = {kind}\nseed = 1\n"
                       f"trials = 1\ntrain_size = 40\ndim = 2\n{key} = {value}\n")
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not (tmp_path / "o").exists()
    @pytest.mark.parametrize("key", ["train_size", "dim"])
    def test_empty_synthetic_dataset_exit_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("eps_grid = 1\nmechanism_kind = OUTPUT_PERTURB_DP\nseed = 1\n"
                       f"trials = 1\ntrain_size = 40\ndim = 2\n{key} = 0\n")
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key} must be >= 1" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,flag", [
        (["oracle", "--eps-grid", "1", "--n", "0"], "--n 0"),
        (["oracle", "--eps-grid", "1", "--inputs", "1"], "--inputs 1"),
        (["oracle", "--eps-grid", "1", "--inputs", "0"], "--inputs 0"),
        (["oracle", "--eps-grid", "1", "--inputs", "-2"], "--inputs -2"),
        (["oracle", "--eps-grid=-1"], "--eps-grid '-1'"),
        (["oracle", "--eps-grid=1,-1", "--inputs", "3"], "--eps-grid '1,-1'"),
        (["bounds", "--eps-grid", "1", "--diam=-2"], "--diam -2"),
        (["bounds", "--eps-grid", "1", "--diam=nan"], "--diam nan"),
        (["bounds", "--eps-grid", "1", "--diam", "1", "--coord-diam-sq-sum=-1"],
         "--coord-diam-sq-sum -1"),
        (["bounds", "--eps-grid", "1", "--diam", "1", "--coord-diam-sq-sum=inf"],
         "--coord-diam-sq-sum inf"),
        (["bounds", "--eps-grid", "1", "--diam", "1", "--d-eff=0.5"], "--d-eff 0.5"),
        (["bounds", "--eps-grid", "1", "--diam", "1", "--d-eff=nan"], "--d-eff nan")])
    def test_message_names_the_flag(self, tmp_path, capsys, argv, flag):
        out_path = tmp_path / "b.csv"
        extra = ["--out", str(out_path)] if argv[0] == "bounds" else []
        assert run_cli(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"config error: {flag} " in captured.err
        assert not out_path.exists()

    def test_diam_square_overflow_exit_2(self, tmp_path, capsys):
        out_path = tmp_path / "b.csv"
        assert run_cli(["bounds", "--eps-grid", "1", "--diam", "1e200",
                        "--out", str(out_path)]) == 2
        assert "--diam" in capsys.readouterr().err
        assert not out_path.exists()

    def test_separation_square_overflow_exit_2(self, capsys):
        # an infinite exact risk "dominates" every bound; the numpy
        # overflow warning must not be what reports it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["oracle", "--eps-grid", "1", "--separation", "1e200"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "config error" in captured.err

    @pytest.mark.parametrize("inputs", ["2", "3"])
    @pytest.mark.parametrize("value", ["0", "-0.0", "-1", "nan", "inf"])
    def test_bad_separation_exit_2(self, capsys, inputs, value):
        # a zero separation certifies nothing; the message names the flag
        assert run_cli(["oracle", "--eps-grid", "1", "--inputs", inputs,
                        f"--separation={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--separation" in captured.err

    def test_non_finite_grid_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("eps_grid = 1,nan\nmechanism_kind = OUTPUT_PERTURB_DP\nseed = 1\n")
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert run_cli(["sweep", "--eps-grid", "0:inf:1", "--mechanism", "OUTPUT_PERTURB_DP",
                        "--seed", "1", "--out", str(tmp_path / "o")]) == 2
        assert run_cli(["bounds", "--eps-grid", "1,nan", "--diam", "1.0",
                        "--out", str(tmp_path / "b.csv")]) == 2
        assert run_cli(["oracle", "--eps-grid", "0:inf:1"]) == 2
        assert capsys.readouterr().err.count("config error") == 4
        assert not (tmp_path / "o").exists() and not (tmp_path / "b.csv").exists()

    def test_empty_grid_spec_exit_2(self, tmp_path, capsys):
        # the end lies within the half-open grid's 1e-12 tolerance of the
        # start, so the spec yields no point
        assert run_cli(["oracle", "--eps-grid", "0:1e-13:1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "has no point" in captured.err
        assert run_cli(["bounds", "--eps-grid", "0:1e-13:1", "--diam", "1",
                        "--out", str(tmp_path / "b.csv")]) == 2
        assert run_cli(["sweep", "--eps-grid", "0:1e-13:1", "--mechanism", "OUTPUT_PERTURB_DP",
                        "--seed", "1", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.count("has no point") == 2
        assert not (tmp_path / "o").exists() and not (tmp_path / "b.csv").exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        assert run_cli(["sweep", "--eps-grid", "1", "--mechanism", "OUTPUT_PERTURB_DP",
                        "--seed", "-3", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "seed" in err
        assert not (tmp_path / "o").exists()

    def test_oversized_grid_exit_2(self, capsys):
        assert run_cli(["oracle", "--eps-grid", "0:1:1e-9"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_oversized_inputs_exit_2(self, monkeypatch, capsys):
        # refused before the k x k matrices are built
        def no_matrices(*args, **kwargs):
            raise AssertionError("allocated before the size check")
        monkeypatch.setattr(cli, "_uniform_space", no_matrices)
        monkeypatch.setattr(oracle, "randomized_response", no_matrices)
        assert run_cli(["oracle", "--eps-grid", "1", "--inputs", "100000"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(oracle.ENUMERATION_CAP) in err
        monkeypatch.undo()
        # the limit is read at call time: 3x3 entries fit under 9, 4x4 do not
        monkeypatch.setattr(oracle, "ENUMERATION_CAP", 9)
        assert run_cli(["oracle", "--eps-grid", "1", "--inputs", "3"]) == 0
        assert run_cli(["oracle", "--eps-grid", "1", "--inputs", "4"]) == 2

    def test_pnsgd_dp_zero_delta_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("eps_grid = 2\nmechanism_kind = PNSGD_DP\nseed = 1\ndelta = 0\n"
                       "trials = 1\ntrain_size = 40\ndim = 2\n")
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "delta" in err
        assert "Traceback" not in err
