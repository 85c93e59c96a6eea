"""The benchmark's four workloads, built from a seed.

A workload is a round of tasks that the runner repeats in a closed loop.
Each task is the work behind one `reconbound` command: a sweep (run,
emit the CSV and SVG, audit), a certificate grid, or a covering and
packing query.  Building a workload (config, dataset, metric spaces,
channels) is the set-up that `setup_s` times.

Nothing here imports numpy or reconbound at module level, so that the
runner can time their cold import; the package arrives as an argument.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from pathlib import Path
from typing import Callable

LAM = 1e-2
SWEEP_GRID = "0.1:5:0.35"          # 14 points, the acceptance desk grid
LECAM_GRID = "0.25:5:0.25"         # 19 points
FANO_GRID = "0.5:5:0.5"            # 9 points
CLOUD_POINTS, CLOUD_SIDE, CLOUD_ETA, CLOUD_POOL = 20, 5.0, 0.5, 32
INVERSION_REL_TOL = 1e-6


@dataclass
class Outcome:
    """What a task produced.  ``key`` names the inputs and ``digest`` the
    outputs: a repeat of one key must give the same digest."""

    key: str
    digest: str
    draws: int = 0              # release + inversion attempts
    invert_failures: int = 0    # draws whose inversion found no root
    verdict: str = ""
    problems: list = field(default_factory=list)


@dataclass
class Task:
    kind: str
    sweep: bool
    run: Callable[[], Outcome]


@dataclass
class Prepared:
    tasks: list                 # one round
    final_checks: Callable[[], list] | None = None
    untimed: list = field(default_factory=list)  # run once, neither timed nor counted


@dataclass(frozen=True)
class Workload:
    why: str
    build: Callable
    leader: tuple               # ("layer" | "group", accepted names)


def _sweep_task(rb, config, out_dir: Path) -> Outcome:
    harness = rb.harness
    result = harness.run_sweep(config)
    stem = out_dir / config.mechanism_kind.lower()
    csv, svg = stem.with_suffix(".csv"), stem.with_suffix(".svg")
    harness.emit_csv(result, csv)
    harness.emit_svg(result, svg)
    try:
        verdict = "pass" if harness.audit_dominance(result) else "skipped"
    except harness.DominanceError:
        verdict = "violated"
    return Outcome(key=config.mechanism_kind,
                   digest=hashlib.sha256(csv.read_bytes()).hexdigest(),
                   draws=len(config.eps_grid) * config.trials * config.n_samples,
                   invert_failures=sum(row.failures for row in result.rows),
                   verdict=verdict)


def _noiseless_inversion(rb, np, problem) -> list:
    """Criterion c5's regime (lam in [0.7, 2]): train on the first rows of
    the workload's dataset, release without noise, and invert."""
    rows = min(200, problem.n)
    sub = rb.mechanisms.LogRegProblem(features=problem.features[:rows],
                                      labels=problem.labels[:rows], lam=1.0)
    theta = rb.mechanisms.train_logreg_exact(sub)
    x_hat = rb.attack.glm_reconstruct_single(theta, sub.features[:-1], sub.labels[:-1],
                                             float(sub.labels[-1]), sub.lam, sub.n)
    target = sub.features[-1]
    rel = float(np.linalg.norm(x_hat - target) / np.linalg.norm(target))
    if rel < INVERSION_REL_TOL:
        return []
    return [f"noiseless inversion relative error {rel:.3g} >= {INVERSION_REL_TOL}"]


def _sweep_workload(kinds, trials, dim, n_samples, untimed_kinds=()):
    """Sweeps of ``kinds`` are timed.  Sweeps of ``untimed_kinds`` are known
    to raise on this grid: each is attempted once after the timed loop and
    reported, but neither timed nor counted among the tasks."""
    def build(rb, np, seed: int, tiny: bool, out_dir: Path) -> Prepared:
        harness = rb.harness
        n, d = (200, min(dim, 8)) if tiny else (2000, dim)
        grid = harness.parse_eps_grid("0.1:1:0.35" if tiny else SWEEP_GRID)

        def tasks(names):
            return [Task(kind=f"sweep {kind}", sweep=True,
                         run=partial(_sweep_task, rb, harness.SweepConfig(
                             eps_grid=grid, mechanism_kind=kind, seed=seed,
                             trials=min(trials, 3) if tiny else trials,
                             n_samples=n_samples, lam=LAM, train_size=n, dim=d),
                             out_dir))
                    for kind in names]
        problem = harness.generate_synthetic(n, d, seed, lam=LAM)
        return Prepared(tasks=tasks(kinds), untimed=tasks(untimed_kinds),
                        final_checks=partial(_noiseless_inversion, rb, np, problem))
    return build


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _certificate_grid(rb, name: str, channels, space, n: int) -> Outcome:
    certify = getattr(rb.oracle, name)  # looked up per call, so tracing can wrap it
    reports = [certify(mech, space, n=n) for mech in channels]
    return Outcome(key=name, digest=_digest(reports))


def _covering_query(rb, clouds: list, counter) -> Outcome:
    ms = rb.metric_space
    i = next(counter) % len(clouds)
    cov = ms.covering_number(clouds[i], CLOUD_ETA)
    pack = ms.packing_number(clouds[i], CLOUD_ETA)
    problems = [] if cov <= pack else [f"cloud {i}: covering {cov} > packing {pack}"]
    return Outcome(key=f"cloud {i}", digest=f"{cov},{pack}", problems=problems)


def _build_exact_small(rb, np, seed: int, tiny: bool, out_dir: Path) -> Prepared:
    """Two-point certificates over a 19-point grid at n=18 (2^18 outcome
    tuples), eight-input certificates over a 9-point grid at n=6 (8^6
    tuples, a 16 MB likelihood matrix), and exact covering and packing
    numbers of 20-point clouds drawn uniformly on a 5 x 5 square.

    The three tasks take about the same time, so that the median and the
    tail of task time do not sit on the edge between two kinds of task.
    """
    oracle, ms = rb.oracle, rb.metric_space
    parse = rb.harness.parse_eps_grid
    lecam_grid, fano_grid = (("0.25:1:0.25", "0.5:1:0.25") if tiny
                             else (LECAM_GRID, FANO_GRID))
    lecam_n, k, fano_n, points = (6, 4, 3, 10) if tiny else (18, 8, 6, CLOUD_POINTS)
    two_point = ms.two_point_space(1.0)
    binary = [oracle.randomized_response(eps) for eps in parse(lecam_grid)]
    dist = np.ones((k, k))
    np.fill_diagonal(dist, 0.0)
    uniform = ms.FiniteMetricSpace(points=tuple(range(k)), dist=dist)
    k_ary = [oracle.randomized_response(eps, k=k) for eps in parse(fano_grid)]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    clouds = [ms.FiniteMetricSpace(points=tuple(range(points)),
                                   dist=ms.pairwise_distances(
                                       rng.uniform(0.0, CLOUD_SIDE, size=(points, 2))))
              for _ in range(CLOUD_POOL)]
    counter = count()
    lecam = Task(kind=f"lecam grid n={lecam_n}", sweep=False,
                 run=partial(_certificate_grid, rb, "lecam_certificate", binary,
                             two_point, lecam_n))
    fano = Task(kind=f"fano grid k={k} n={fano_n}", sweep=False,
                run=partial(_certificate_grid, rb, "fano_certificate", k_ary,
                            uniform, fano_n))
    cover = Task(kind="covering+packing", sweep=False,
                 run=partial(_covering_query, rb, clouds, counter))
    return Prepared(tasks=[lecam, cover, fano])


WORKLOADS = {
    "desk-op": Workload(
        why="trains once, then 700 cheap output-perturbation releases per sweep: "
            "the attack layer (threat model, inversion, gradient sum) does the work",
        build=_sweep_workload(("OUTPUT_PERTURB_DP", "OUTPUT_PERTURB_MDP"),
                              trials=50, dim=16, n_samples=1),
        leader=("group", ("attack",))),
    "desk-pnsgd": Workload(
        why="the release is a 2000-step noisy SGD pass, once per draw; PNSGD_DP "
            "raises at eps=0.1, so it is attempted once untimed and reported",
        build=_sweep_workload(("PNSGD_MDP",), trials=3, dim=16, n_samples=1,
                              untimed_kinds=("PNSGD_DP",)),
        leader=("layer", ("pnsgd.pass",))),
    "wide-op": Workload(
        why="image width d=784: exact training and gradient sums over a 12.5 MB "
            "feature matrix, larger than L2",
        build=_sweep_workload(("OUTPUT_PERTURB_DP",), trials=10, dim=784, n_samples=5),
        leader=("layer", ("mechanisms.train",))),
    "exact-small": Workload(
        why="the oracle and covering commands: exhaustive outcome enumeration "
            "and exponential covering search, which no sweep calls",
        build=_build_exact_small,
        leader=("layer", ("metric_space.covering", "oracle.enumerate"))),
}
