import argparse
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from reconbound import cli, harness, oracle
from reconbound.harness import SweepConfig, SweepResult, SweepRow
from reconbound.metric_space import FiniteMetricSpace, pairwise_distances

# an --n that no float holds
BEYOND_FLOAT = str(10 ** 309)


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

    def test_large_space_refused_before_validation(self, tmp_path, monkeypatch, capsys):
        # the file's point count is checked against the search cap before
        # the distances are parsed, so the all-triples validation of the
        # space never runs
        path = tmp_path / "m.txt"
        write_matrix(path, np.arange(30.0)[:, None])

        def unreachable(self):
            raise AssertionError("validated a space the searches refuse")

        monkeypatch.setattr(FiniteMetricSpace, "__post_init__", unreachable)
        assert run_cli(["covering", "--matrix", str(path), "--eta", "1.0"]) == 2
        assert "30 points exceeds exhaustive-search cap 20" in capsys.readouterr().err

    def test_large_space_refused_before_decoding(self, tmp_path, capsys):
        # the bytes after a refused count are never read, so they need
        # not even be ASCII
        path = tmp_path / "m.txt"
        path.write_bytes(b"21\n" + bytes(range(128, 256)) * 4)
        assert run_cli(["covering", "--matrix", str(path), "--eta", "1.0"]) == 2
        err = capsys.readouterr().err
        assert "config error: 21 points exceeds exhaustive-search cap 20" in err

    def test_large_scale_line(self, tmp_path, capsys):
        # six points on a line at scale 1e8, where float rounding exceeds
        # an absolute triangle slack of 1e-9: the space is accepted and
        # answers at eta * 1e8 as the unit-scale line does at eta
        x = np.sort(np.random.default_rng(0).uniform(size=6))
        unit, large = tmp_path / "unit.txt", tmp_path / "large.txt"
        write_matrix(unit, x[:, None])
        write_matrix(large, 1e8 * x[:, None])
        gaps = np.unique(pairwise_distances(x[:, None]))
        for eta in 0.5 * (gaps[1:-1] + gaps[2:]):
            answers = []
            for path, scale in ((unit, 1.0), (large, 1e8)):
                assert run_cli(["covering", "--matrix", str(path),
                                "--eta", repr(float(scale * eta))]) == 0
                answers.append(capsys.readouterr().out.split()[2:])
            assert answers[0] == answers[1]

    def test_count_below_one_refused_by_name(self, tmp_path, capsys):
        # named with the file before the cap check
        for count in ("-1", "0"):
            path = tmp_path / f"m{count}.txt"
            path.write_text(f"{count}\n0\n", encoding="ascii")
            assert run_cli(["covering", "--matrix", str(path), "--eta", "1.0"]) == 2
            err = capsys.readouterr().err
            assert f"config error: {path}: point count {count} must be >= 1" in err
            assert "Traceback" not in err

    def test_unreadable_count_and_entry_refused_by_name(self, tmp_path, capsys):
        # the message names the file and whether the count or an entry failed
        cases = (("2.5\n0 1\n1 0\n", "point count '2.5' is not an integer"),
                 ("2\n0 x\n1 0\n", "a distance entry is not a number"))
        for text, reason in cases:
            path = tmp_path / "m.txt"
            path.write_text(text, encoding="ascii")
            assert run_cli(["covering", "--matrix", str(path), "--eta", "1.0"]) == 2
            err = capsys.readouterr().err
            assert f"config error: {path}: {reason}" in err and "Traceback" not in err

    def test_long_file_read_one_token_past_the_matrix(self, tmp_path, capsys):
        # a count of 2 on a 4 MB line of a million distances: the read
        # stops at the fifth token
        path = tmp_path / "m.txt"
        path.write_text("2\n" + "1.5 " * 1_000_000, encoding="ascii")
        tracemalloc.start()
        try:
            code = run_cli(["covering", "--matrix", str(path), "--eta", "1.0"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 1 << 20
        assert f"config error: {path}: expected 4 entries, found more" in capsys.readouterr().err

    def test_triangle_violation_exit_2(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("3\n0 1 2.5\n1 0 1\n2.5 1 0\n", encoding="ascii")
        assert run_cli(["covering", "--matrix", str(path), "--eta", "1.0"]) == 2
        err = capsys.readouterr().err
        assert "triangle inequality violated" in err and "Traceback" not in err


class TestBounds:
    def test_unit_ball_flags(self, tmp_path, capsys):
        # the unit ball at d = 784 (coordinate sum 784, d_eff = 784 ln 2)
        # has diameter 2 and trivial risk 1, which the prior bound crosses
        # at its threshold ln(1 + 784/4) = 5.28
        out_path = tmp_path / "bounds.csv"
        code = run_cli(["bounds", "--eps-grid", "1,3,5.5", "--diam", "2.0",
                        "--coord-diam-sq-sum", "784", "--d-eff", "543.43",
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

    def test_rows_per_epsilon(self, tmp_path):
        # dp_lecam and mdp_lecam at every eps; the prior unbiased and the
        # Fano rows only where their flags are given
        out_path = tmp_path / "bounds.csv"
        base = ["bounds", "--eps-grid", "0.5,3", "--diam", "2.0", "--out", str(out_path)]
        for extra, names in (([], ["dp_lecam", "mdp_lecam"]),
                             (["--coord-diam-sq-sum", "784", "--d-eff", "11.09"],
                              ["dp_lecam", "mdp_lecam", "rdp_unbiased", "mdp_fano"])):
            assert run_cli(base + extra) == 0
            rows = [line.split(",")[:2] for line in out_path.read_text().splitlines()[1:]]
            assert rows == [[eps, name] for eps in ("0.5", "3.0") for name in names]

    def test_alpha_is_no_flag(self, tmp_path, capsys):
        out_path = tmp_path / "bounds.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(["bounds", "--eps-grid", "1", "--diam", "1", "--alpha", "2",
                     "--out", str(out_path)])
        assert exc.value.code == 2
        assert "--alpha" in capsys.readouterr().err
        assert not out_path.exists()


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

    def test_only_the_oracle_command_loads_oracle(self, tmp_path):
        # read in a fresh interpreter: this process has loaded oracle;
        # only covering and oracle load metric_space, and an output
        # perturbation sweep loads no PNSGD pass
        matrix = tmp_path / "m.txt"
        write_matrix(matrix, [[0.0], [1.0], [2.0]])
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("eps_grid = 1,2\ntrials = 2\nmechanism_kind = OUTPUT_PERTURB_DP\n"
                       "seed = 3\nlam = 1.0\ntrain_size = 50\ndim = 3\n")
        commands = {("covering", "--matrix", str(matrix), "--eta", "0.5"): {"metric_space"},
                    ("bounds", "--eps-grid", "1", "--diam", "1",
                     "--out", str(tmp_path / "b.csv")): set(),
                    ("sweep", "--config", str(cfg), "--out", str(tmp_path / "o")): set()}
        for argv, expected in commands.items():
            code = ("import sys; from reconbound import cli; "
                    f"assert cli.main({list(argv)!r}) == 0; "
                    "print(*(n for n in ('metric_space', 'pnsgd', 'oracle') "
                    "if 'reconbound.' + n in sys.modules))")
            env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
            out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                 text=True, check=True, env=env)
            assert set(out.stdout.splitlines()[-1].split()) == expected, argv


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

    def test_bad_lam_refused_before_any_dataset(self, tmp_path, capsys, monkeypatch):
        def no_dataset(*args, **kwargs):
            raise AssertionError("dataset built before the config check")
        monkeypatch.setattr(harness, "generate_synthetic", no_dataset)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("eps_grid = 1\nmechanism_kind = OUTPUT_PERTURB_DP\nseed = 1\nlam = nan\n")
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error: lam must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_old_idx_key_exit_2(self, tmp_path, capsys):
        # an old config that names an IDX path is refused by the key,
        # before any work
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("eps_grid = 1\nmechanism_kind = OUTPUT_PERTURB_DP\nseed = 1\n"
                       "idx_images = train-images.idx\n")
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: line 4: unknown key 'idx_images'" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lines,flags", [
        ("trials = 2\n", ["--seed", "3"]),  # the file lacks a required key
        ("seed = 3\ntrials = 0\n", ["--trials", "2"])])  # the file alone is refused
    def test_flags_complete_and_override_the_file(self, tmp_path, lines, flags):
        base = ("eps_grid = 1,2\nmechanism_kind = OUTPUT_PERTURB_DP\n"
                "lam = 1.0\ntrain_size = 50\ndim = 3\n")
        part, whole = tmp_path / "part.cfg", tmp_path / "whole.cfg"
        part.write_text(base + lines)
        whole.write_text(base + "seed = 3\ntrials = 2\n")
        assert run_cli(["sweep", "--config", str(part), "--out", str(tmp_path / "a"), *flags]) == 0
        assert run_cli(["sweep", "--config", str(whole), "--out", str(tmp_path / "b")]) == 0
        name = "sweep_output_perturb_dp.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_flags_required_without_config(self, capsys):
        assert run_cli(["sweep", "--trials", "2"]) == 2
        assert ("config error: missing required keys: ['eps_grid', 'mechanism_kind', 'seed']"
                in capsys.readouterr().err)

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
        ("PNSGD_MDP", "lam", "nan")])
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
        (["bounds", "--eps-grid", "1", "--diam", "1", "--d-eff=nan"], "--d-eff nan"),
        (["oracle", "--eps-grid", "1", "--n", BEYOND_FLOAT], "--n must not exceed"),
        (["bounds", "--eps-grid", "1", "--diam", "1", "--n", BEYOND_FLOAT],
         "--n must not exceed")])
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

    def test_pnsgd_dp_zero_delta_refused_before_any_dataset(self, tmp_path, capsys,
                                                            monkeypatch):
        def no_dataset(*args, **kwargs):
            raise AssertionError("dataset built before the config check")
        monkeypatch.setattr(harness, "generate_synthetic", no_dataset)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("eps_grid = 2\nmechanism_kind = PNSGD_DP\nseed = 1\ndelta = 0\n")
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error: delta " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["OUTPUT_PERTURB_MDP", "PNSGD_MDP"])
    def test_metric_kind_at_dim_1_refused_before_any_work(self, tmp_path, capsys,
                                                          monkeypatch, kind):
        # the metric bounds need d_eff = dim*ln 2 above ln 2
        def no_dataset(*args, **kwargs):
            raise AssertionError("dataset built before the config check")
        monkeypatch.setattr(harness, "generate_synthetic", no_dataset)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"eps_grid = 1\nmechanism_kind = {kind}\nseed = 1\n"
                       "trials = 1\ntrain_size = 40\ndim = 1\n")
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error: dim " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# sweep files at eps = 1e-300: at lam = 1e-30, N*eps*lam underflows to 0
# and the noise is infinite; at lam = 4e-10 the noise is finite, but
# every release's squared norm overflows.  At eps = 1 and lam = 1e308,
# N*lam is past the float range while the release underflows to 0
UNDERFLOW_LAM, OVERFLOW_LAM, HUGE_LAM = 1e-30, 4e-10, 1e308
OVERFLOW_GRID = ["--eps-grid", "0:1e308:1e-308"]


def sweep_file(kind, lam, dim, eps_grid=1e-300, train_size=50):
    """A two-trial sweep config, of 50 training rows by default, as a --config input."""
    return ("--config", f"mechanism_kind = {kind}\neps_grid = {eps_grid!r}\nseed = 1\n"
                        f"lam = {lam!r}\ntrain_size = {train_size}\ndim = {dim}\ntrials = 2\n")


# a count whose arrays numpy refuses to allocate at once (over a PiB)
HUGE = 10 ** 15


class TestExtremeInputs:
    # valid or refusable inputs at the ends of the float range, each
    # (argv, its input file as (flag, text) or None, exit code, and
    # optionally a text its stderr names): each ends in its exit code
    # with no traceback, warnings raised as errors.  The sweeps that
    # finish release NaN or overflow, so every draw fails; the oversized
    # ones are refused before touching memory
    CASES = {
        "op-dp-underflow": (["sweep"], sweep_file("OUTPUT_PERTURB_DP", UNDERFLOW_LAM, 3), 0),
        "op-mdp-underflow": (["sweep"], sweep_file("OUTPUT_PERTURB_MDP", UNDERFLOW_LAM, 3), 0),
        "pnsgd-dp-underflow": (["sweep"], sweep_file("PNSGD_DP", UNDERFLOW_LAM, 3), 0),
        "op-dp-overflow": (["sweep"], sweep_file("OUTPUT_PERTURB_DP", OVERFLOW_LAM, 3), 0),
        "op-mdp-overflow": (["sweep"], sweep_file("OUTPUT_PERTURB_MDP", OVERFLOW_LAM, 3), 0),
        "op-dp-huge-trials": (["sweep", "--mechanism", "OUTPUT_PERTURB_DP", "--seed", "1",
                               "--eps-grid", "1", "--trials", str(HUGE)], None, 2),
        "pnsgd-mdp-huge-trials": (["sweep", "--mechanism", "PNSGD_MDP", "--seed", "1",
                                   "--eps-grid", "1", "--trials", str(HUGE)], None, 2),
        "op-dp-huge-dim": (["sweep"], sweep_file("OUTPUT_PERTURB_DP", 1e-2, HUGE), 2),
        "sweep-grid-overflow": (["sweep", "--mechanism", "OUTPUT_PERTURB_DP", "--seed", "1",
                                 *OVERFLOW_GRID], None, 2),
        "bounds-grid-overflow": (["bounds", "--diam", "1", *OVERFLOW_GRID], None, 2),
        "oracle-grid-overflow": (["oracle", *OVERFLOW_GRID], None, 2),
        "oracle-huge-eps": (["oracle", "--eps-grid", "1e308", "--n", "2"], None, 0),
        "bounds-huge-eps-and-n": (["bounds", "--diam", "1", "--eps-grid", "1e308",
                                   "--n", "1000000000"], None, 0),
        "bounds-n-beyond-float": (["bounds", "--diam", "1", "--eps-grid", "1",
                                   "--n", BEYOND_FLOAT], None, 2),
        "oracle-n-beyond-float": (["oracle", "--eps-grid", "1", "--n", BEYOND_FLOAT], None, 2),
        "op-dp-huge-lam": (["sweep"], sweep_file("OUTPUT_PERTURB_DP", HUGE_LAM, 3, 1.0), 2),
        "op-mdp-huge-lam": (["sweep"], sweep_file("OUTPUT_PERTURB_MDP", HUGE_LAM, 3, 1.0), 2),
        "pnsgd-mdp-huge-lam": (["sweep"], sweep_file("PNSGD_MDP", HUGE_LAM, 3, 1.0), 2),
        # counts past numpy's index range, refused by name before any array
        "op-dp-train-size-beyond-index": (["sweep"], sweep_file("OUTPUT_PERTURB_DP", 1e-2, 3,
                                                                 train_size=10 ** 20),
                                          2, "train_size must"),
        "op-dp-train-size-beyond-float": (["sweep"], sweep_file("OUTPUT_PERTURB_DP", 1e-2, 3,
                                                                 train_size=10 ** 400),
                                          2, "train_size must"),
        "op-dp-dim-beyond-index": (["sweep"], sweep_file("OUTPUT_PERTURB_DP", 1e-2, 10 ** 20),
                                   2, "dim must"),
        # the two distances sum past the float range
        "covering-huge-distances": (["covering", "--eta", "1"],
                                    ("--matrix", "2\n0 9e307\n9e307 0\n"), 0),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_exit_without_traceback(self, tmp_path, capsys, name):
        argv, infile, code, *named = self.CASES[name]
        if argv[0] in ("sweep", "bounds"):
            argv = [*argv, "--out", str(tmp_path / "o")]
        if infile:
            flag, text = infile
            path = tmp_path / "input.txt"
            path.write_text(text)
            argv = [*argv, flag, str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(argv) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert ("config error" in captured.err) == (code == 2)
        assert all(text in captured.err for text in named)
        if argv[0] == "sweep" and code == 0:
            assert "failures=2" in captured.out


def test_readme_lists_the_cli_flags():
    # the README names every flag of every subcommand, and no other
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"--[a-z][a-z-]*", readme))
    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    flags = {flag for parser in sub.choices.values() for action in parser._actions
             for flag in action.option_strings if flag.startswith("--")}
    assert documented == flags - {"--help"}
