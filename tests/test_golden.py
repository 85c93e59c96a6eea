"""Pinned output bytes: small sweeps of every mechanism kind, and the
noiseless output-perturbation limit, each checked against the full
sha256 of its CSV.  Any change in the numbers a sweep writes, down to
the last digit of one cell, fails here.
"""

import hashlib

import numpy as np
import pytest

import reconbound.pnsgd as pnsgd_mod
from reconbound.harness import SweepConfig, emit_csv, parse_eps_grid, run_sweep

# (mechanism kind, noiseless) -> sha256 of the CSV
GOLDEN = {
    ("OUTPUT_PERTURB_DP", False):
        "67f4ed6033ac5af7af66e707ba4324013c43a4bc0da5552a935274dba1dfd7e7",
    ("OUTPUT_PERTURB_MDP", False):
        "4d4dfe05b7b0f4fb99997bd1d5bce462bc24d9cdffe211aa6da7db07a8e719fe",
    ("PNSGD_DP", False):
        "a1ee3a987e1d914a07a815f8476013cca04b6b0b572b576a2ff5d680d4c92bd7",
    ("PNSGD_MDP", False):
        "70b7d93a36882ee13a7d951ce0745d368e6677fb2236936ed5237796670783e8",
    ("OUTPUT_PERTURB_DP", True):
        "b1e1d352aebc1e8e8400caf97a5d6458f652d278471d3366c983c40da63c6826",
    ("OUTPUT_PERTURB_MDP", True):
        "2e5891e4621a4f183ea83cdfd19939f1de244b3361b43bfdc95689fe719300d7",
}

# (PNSGD kind, noiseless) -> sha256 of the golden sweep's releases, the
# stacked (cells, trials, n_samples, d) array of every PNSGD pass result.
# Every draw of these sweeps fails to invert, so the CSV digests above
# do not read the releases; these do.  A noiseless pass draws nothing,
# so both kinds release the same iterates.
RELEASE_GOLDEN = {
    ("PNSGD_DP", False):
        "ee1be794b62faae5d5757e2136d2bffac988e66cbad9fd19879d5e651cf938c0",
    ("PNSGD_MDP", False):
        "240fc6d5a9b2e12002b4b56daa47eeb5925e7da49186bb5f4f63d215a81c948c",
    ("PNSGD_DP", True):
        "1e0c4627ee7b71c2265d0527ae93b3c6c3de2a56603877764610e7a427455f39",
    ("PNSGD_MDP", True):
        "1e0c4627ee7b71c2265d0527ae93b3c6c3de2a56603877764610e7a427455f39",
}

# OUTPUT_PERTURB_DP at d=256 on the 14-point grid (see test_wide_sweep_digest)
WIDE_GOLDEN = "606b4897a4e9cd873f145cb23a8b91007a24b8f44ecf24cd77aa554c6830e0e8"

# OUTPUT_PERTURB_MDP at seed 2**64 + 5 (see test_multi_word_seed_digest)
MULTI_WORD_SEED_GOLDEN = "28f6abc7a58ed66d244f9b41cca8fc2e481c62be028e43a2108dffb398db5aa5"


@pytest.mark.parametrize("kind,noiseless", sorted(GOLDEN),
                         ids=lambda v: v if isinstance(v, str) else ("noiseless" if v else "noisy"))
def test_csv_digest(kind, noiseless, tmp_path):
    cfg = SweepConfig(eps_grid=(0.5, 2.0), mechanism_kind=kind, seed=20240817,
                      trials=3, n_samples=2, train_size=200, dim=4, noiseless=noiseless)
    path = tmp_path / "sweep.csv"
    emit_csv(run_sweep(cfg), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN[kind, noiseless], (
        f"{kind} (noiseless={noiseless}) CSV bytes changed: sha256 {digest}.  "
        "If the change is intended, record the new digests and the reason in "
        "CHANGES.md and update GOLDEN here.\n" + path.read_text())


@pytest.mark.parametrize("kind,noiseless", sorted(RELEASE_GOLDEN),
                         ids=lambda v: v if isinstance(v, str) else ("noiseless" if v else "noisy"))
def test_pnsgd_release_digest(kind, noiseless, monkeypatch):
    # the wrapper takes any arguments, so it records the passes whatever
    # the pass's signature
    passes = []
    run = pnsgd_mod.pnsgd_run

    def recording(*args, **kwargs):
        result = run(*args, **kwargs)
        passes.append(np.array(result))
        return result

    monkeypatch.setattr(pnsgd_mod, "pnsgd_run", recording)
    cfg = SweepConfig(eps_grid=(0.5, 2.0), mechanism_kind=kind, seed=20240817,
                      trials=3, n_samples=2, train_size=200, dim=4, noiseless=noiseless)
    run_sweep(cfg)
    assert len(passes) == cfg.n_samples
    releases = np.stack(passes, axis=2)
    assert releases.shape == (len(cfg.eps_grid), cfg.trials, cfg.n_samples, cfg.dim)
    digest = hashlib.sha256(releases.tobytes()).hexdigest()
    assert digest == RELEASE_GOLDEN[kind, noiseless], (
        f"{kind} (noiseless={noiseless}) release bytes changed: sha256 {digest}")


def test_multi_word_seed_digest(tmp_path):
    # a seed of three 32-bit words; one trial survives in the first cell,
    # whose interval is then [0, inf), and three in the second, so the
    # bootstrap draws there
    cfg = SweepConfig(eps_grid=(2.0, 8.0), mechanism_kind="OUTPUT_PERTURB_MDP",
                      seed=2**64 + 5, trials=4, n_samples=2, train_size=200, dim=4)
    path = tmp_path / "sweep.csv"
    emit_csv(run_sweep(cfg), path)
    assert path.read_text().splitlines()[1] == (
        "2.0,OUTPUT_PERTURB_MDP,66.02324274477456,0.0,inf,"
        "0.00620054927644826,0.024368455566560573,7")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == MULTI_WORD_SEED_GOLDEN, path.read_text()


def test_wide_sweep_digest(tmp_path):
    # every draw fails; the last three cells' stacks are certified whole
    # only with the mean-margin bound, the first eleven by the norm
    cfg = SweepConfig(eps_grid=parse_eps_grid("0.1:5:0.35"), mechanism_kind="OUTPUT_PERTURB_DP",
                      seed=20240817, trials=3, n_samples=2, train_size=300, dim=256)
    path = tmp_path / "sweep.csv"
    emit_csv(run_sweep(cfg), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == WIDE_GOLDEN, path.read_text()
