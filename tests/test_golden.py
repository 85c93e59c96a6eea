"""Pinned output bytes: small sweeps of every mechanism kind, and the
noiseless output-perturbation limit, each checked against the full
sha256 of its CSV, and two grids of exact certificates, checked against
the sha256 of their reports.  Any change in the numbers a sweep or a
certificate writes, down to the last digit of one cell, fails here.
"""

import hashlib

import numpy as np
import pytest

import reconbound.pnsgd as pnsgd_mod
from reconbound.harness import SweepConfig, emit_csv, parse_eps_grid, run_sweep
from reconbound.metric_space import FiniteMetricSpace, two_point_space
from reconbound.oracle import fano_certificate, lecam_certificate, randomized_response

# (mechanism kind, noiseless) -> sha256 of the CSV
GOLDEN = {
    ("OUTPUT_PERTURB_DP", False):
        "67f4ed6033ac5af7af66e707ba4324013c43a4bc0da5552a935274dba1dfd7e7",
    ("OUTPUT_PERTURB_MDP", False):
        "e0f2945060302f7763994fc4a8b32185089ce4fdaf4a00c2ad10b614ddae92ff",
    ("PNSGD_DP", False):
        "297bf2e676fbc86f8949daffe66103584a6e3cae44d02c7d1e85b4e99511f3c3",
    ("PNSGD_MDP", False):
        "96b4834716ce2d091ce54ec8674852fbf67fc750308b5afda8e6a8cf763345c4",
    ("OUTPUT_PERTURB_DP", True):
        "b1e1d352aebc1e8e8400caf97a5d6458f652d278471d3366c983c40da63c6826",
    ("OUTPUT_PERTURB_MDP", True):
        "277b32f9530be0213fe326e9e3a80717a890d3ae2a0719286b9d2b107f433ccd",
}

# (PNSGD kind, noiseless) -> sha256 of the golden sweep's releases, the
# stacked (cells, trials, n_samples, d) array of every PNSGD pass result.
# Every draw of these sweeps fails to invert, so the CSV digests above
# do not read the releases; these do.  A noiseless pass draws nothing,
# so both kinds release the same iterates.
RELEASE_GOLDEN = {
    ("PNSGD_DP", False):
        "8ad2a060a81a042628bc389cef733636c992cbdcd33858ef796d91fb02a354ee",
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
MULTI_WORD_SEED_GOLDEN = "c3968346437ba8840a95c3a48c54504c0f9e0ae4407ea24b729c9352204eb82f"

# certificate name -> sha256 of repr() of its reports over the grid of
# test_certificate_digest, the same digests perfbench's exact-small prints
CERTIFICATE_GOLDEN = {
    "lecam_certificate":
        "2c01ab27c0a92cd0b406d09cd233c37c8ec78748f71f29bc8d16574153b7cb7f",
    "fano_certificate":
        "15b7ffe82d7f2748150742d81813687d794a205e89c2daf424d93545f5ff5ab7",
}


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
        "0.00620054927644826,0.001642574585904715,7")
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


@pytest.mark.parametrize("name", sorted(CERTIFICATE_GOLDEN))
def test_certificate_digest(name):
    # randomized response at n=18 against two points 1 apart, and on 8
    # symbols at n=6 against 8 points pairwise 1 apart
    if name == "lecam_certificate":
        reports = [lecam_certificate(randomized_response(eps), two_point_space(1.0), n=18)
                   for eps in parse_eps_grid("0.25:5:0.25")]
    else:
        dist = np.ones((8, 8))
        np.fill_diagonal(dist, 0.0)
        space = FiniteMetricSpace(points=tuple(range(8)), dist=dist)
        reports = [fano_certificate(randomized_response(eps, k=8), space, n=6)
                   for eps in parse_eps_grid("0.5:5:0.5")]
    digest = hashlib.sha256(repr(reports).encode()).hexdigest()
    assert digest == CERTIFICATE_GOLDEN[name], f"{name} report bytes changed: sha256 {digest}"
