"""Experiment orchestration: datasets, epsilon sweeps, aggregation, and
CSV/SVG emission.

A sweep trains a private learner, releases it at each epsilon on the
grid, runs the reconstruction attack per trial, and compares the mean
attack error against every applicable theoretical lower bound on the
same grid.  Everything is deterministic given (config, seed): each grid
cell draws all its releases from one generator,
`SeedSequence(seed, spawn_key=(0, cell))`, and its bootstrap from
another, spawn key (1, cell), so a cell's draws depend only on the seed,
the cell index, trials, n_samples and d, and not on the other cells.

Trials run in batches: each grid cell draws its (trials, n_samples, d)
releases in one vectorized call and attacks them in one `attack_average`
call, and PNSGD runs the chains of every cell and trial in one lockstep
pass.

`MECHANISM_KINDS` maps each kind to flags, read in two places: the
release path, and `_guarantee`, which turns them and the config into
each cell's `Guarantee`.  The noise and every bound read that one value.

Draws whose inversion has no solution are dropped and counted; a grid
cell where every trial failed reports an infinite mean error, meaning
the attack produced no evidence against any bound at that privacy level.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import MISSING, dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from . import bounds as bounds_mod
from . import pnsgd as pnsgd_mod
from .attack import ThreatModel, attack_average
from .divergence import kl_bound
from .mechanisms import (LogRegProblem, output_perturb_dp,
                         output_perturb_mdp_euclidean, train_logreg_exact)
from .metric_space import norm_ball_covering_bounds_log

DATASET_SOURCES = ("SYNTHETIC", "IDX_FILES")

_IMAGES_MAGIC = 0x00000803
_LABELS_MAGIC = 0x00000801

# bounds the audit enforces; the unbiased prior bound is emitted for
# plotting but assumes an unbiased attack, which this one is not
AUDITED_BOUNDS = ("dp_lecam", "mdp_lecam", "mdp_fano")

# rows are normalised into the unit L2 ball, so the domain has diameter 2
UNIT_BALL_DIAM = 2.0

# far beyond any plotted sweep; a finer a:b:step grid is refused before it
# is built, as its points would fill memory first
GRID_POINTS_CAP = 10_000

# resamples per bootstrap confidence interval; the CSV bytes depend on it
BOOTSTRAP_RESAMPLES = 10_000


@dataclass(frozen=True)
class MechanismKind:
    metric: bool  # epsilon is per unit of distance (metric privacy)
    pnsgd: bool  # the release is a PNSGD pass


# flags, not functions: the benchmark's tracer swaps the functions by name
MECHANISM_KINDS = {
    "OUTPUT_PERTURB_DP": MechanismKind(metric=False, pnsgd=False),
    "OUTPUT_PERTURB_MDP": MechanismKind(metric=True, pnsgd=False),
    "PNSGD_DP": MechanismKind(metric=False, pnsgd=True),
    "PNSGD_MDP": MechanismKind(metric=True, pnsgd=True),
}


@dataclass(frozen=True)
class Guarantee:
    """What one grid cell's release meets."""
    eps: float  # per unit of distance if metric
    metric: bool
    rho: float | None  # a PNSGD_DP pass's Renyi slope; None where eps sets the KL
    delta: float  # what the bounds discount: 0 if pure or already spent in rho


class ConfigError(ValueError):
    """Bad sweep configuration (file or field level)."""


class DominanceError(RuntimeError):
    """The empirical attack error dipped below an applicable lower bound."""


class IdxFormatError(ValueError):
    """IDX file violates the magic/shape/length contract."""


class DigitAbsentError(ValueError):
    """A requested digit does not occur in the label file."""


@dataclass(frozen=True)
class SweepConfig:
    eps_grid: tuple
    mechanism_kind: str
    seed: int
    trials: int = 50
    dataset_source: str = "SYNTHETIC"
    n_samples: int = 1
    lam: float = 1e-2
    delta: float = 1e-5
    alpha: float = 2.0
    train_size: int = 2000
    dim: int = 16
    noiseless: bool = False
    idx_images: str = ""
    idx_labels: str = ""
    digit_pair: tuple = (0, 1)
    constraint_radius: float = 10.0

    def __post_init__(self):
        # SeedSequence rejects a negative seed too, but only once the
        # sweep runs, after the IDX files have been read
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        grid = tuple(float(e) for e in self.eps_grid)
        if not grid:
            raise ConfigError("eps_grid must be nonempty")
        if not all(0 < e < math.inf for e in grid):
            raise ConfigError("eps grid values must be positive and finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("eps_grid must be strictly increasing")
        object.__setattr__(self, "eps_grid", grid)
        for key in ("trials", "n_samples", "train_size", "dim"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.mechanism_kind not in MECHANISM_KINDS:
            raise ConfigError(f"unknown mechanism_kind {self.mechanism_kind!r}")
        if self.dataset_source not in DATASET_SOURCES:
            raise ConfigError(f"unknown dataset_source {self.dataset_source!r}")
        if not 0 <= self.delta < 1:
            raise ConfigError("delta must lie in [0, 1)")
        if not 1 < self.alpha < math.inf:
            raise ConfigError("alpha must exceed 1 and be finite")
        if not 0 < self.constraint_radius < math.inf:
            raise ConfigError("constraint_radius must be positive and finite")
        digits = tuple(int(d) for d in self.digit_pair)
        if len(digits) != 2 or digits[0] == digits[1]:
            raise ConfigError(f"digit_pair must be two distinct labels, got {digits}")
        object.__setattr__(self, "digit_pair", digits)


# the keys a config must set: the fields without a default
REQUIRED_CONFIG_KEYS = frozenset(f.name for f in fields(SweepConfig) if f.default is MISSING)


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    mechanism: str
    mean_mse: float
    ci_low: float
    ci_high: float
    bound_values: dict
    failures: int


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    bound_names: tuple
    rows: tuple


def parse_eps_grid(text: str) -> tuple:
    """Grid from 'a:b:step' (half-open at b) or a comma-separated list."""
    text = text.strip()
    values = tuple(float(p) for p in text.split(":" if ":" in text else ","))
    # a non-finite value is no privacy level, and a non-finite end or
    # step would never end the loop below
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"eps grid values must be finite, got {text!r}")
    if ":" not in text:
        return values
    if len(values) != 3:
        raise ConfigError(f"bad grid spec {text!r}, expected a:b:step")
    a, b, step = values
    if step <= 0 or b <= a:
        raise ConfigError(f"bad grid spec {text!r}")
    if math.ceil((b - a) / step) > GRID_POINTS_CAP:
        raise ConfigError(f"grid spec {text!r} has more than {GRID_POINTS_CAP} points")
    out = []
    while (v := a + len(out) * step) < b - 1e-12:
        out.append(v)
    if not out:
        raise ConfigError(f"grid spec {text!r} has no point")
    return tuple(out)


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLEANS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, got {text!r}") from None


_CONFIG_PARSERS = {
    "eps_grid": parse_eps_grid,
    "trials": int,
    "mechanism_kind": str,
    "seed": int,
    "dataset_source": str,
    "n_samples": int,
    "lam": float,
    "delta": float,
    "alpha": float,
    "train_size": int,
    "dim": int,
    "noiseless": _parse_bool,
    "idx_images": str,
    "idx_labels": str,
    "digit_pair": lambda s: tuple(int(x) for x in s.split(",")),
    "constraint_radius": float,
}


def parse_config_text(text: str) -> SweepConfig:
    """Flat key = value lines; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](val.strip())
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    missing = REQUIRED_CONFIG_KEYS - values.keys()
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}")
    return SweepConfig(**values)


def parse_config(path) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def generate_synthetic(n: int, d: int, seed: int, lam: float = 1e-2) -> LogRegProblem:
    """Two Gaussian blobs at +-0.5 * unit direction with isotropic spread
    0.3, labels -1/+1, rows rescaled into the unit L2 ball."""
    if d < 1 or n < 1:
        raise ValueError("need n >= 1 and d >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    mu = rng.normal(size=d)
    mu /= math.sqrt(float(mu @ mu))
    labels = rng.choice(np.array([-1.0, 1.0]), size=n)
    # 0.3 * draw, shifted in place: labels are +-1, so +-centre rounds as labels * centre
    x = rng.normal(0.0, 0.3, size=(n, d))
    np.add(x, 0.5 * mu, out=x, where=labels[:, None] > 0)
    np.subtract(x, 0.5 * mu, out=x, where=labels[:, None] < 0)
    # row blocks: each row sums as in a whole-array sum, with no full-size temporary
    norms = np.concatenate([np.sum(b * b, axis=1) for b in np.split(x, range(256, n, 256))])
    x /= np.maximum(np.sqrt(norms), 1.0)[:, None]
    x.setflags(write=False)
    return LogRegProblem(features=x, labels=labels, lam=lam)


def _read_idx(raw: bytes, magic_expected: int, path: str) -> tuple:
    if len(raw) < 8:
        raise IdxFormatError(f"{path}: truncated header")
    magic, count = struct.unpack(">II", raw[:8])
    if magic != magic_expected:
        raise IdxFormatError(f"{path}: magic 0x{magic:08x} != 0x{magic_expected:08x}")
    return magic, count


def load_idx(images_path, labels_path, digits: tuple = (0, 1),
             lam: float = 1e-2) -> LogRegProblem:
    """Load a big-endian IDX image/label pair, filter to two digits, map
    labels to -1/+1, scale pixels to [0,1], and normalize rows to the
    unit L2 ball."""
    with open(images_path, "rb") as fh:
        img_raw = fh.read()
    with open(labels_path, "rb") as fh:
        lab_raw = fh.read()
    _, n_img = _read_idx(img_raw, _IMAGES_MAGIC, str(images_path))
    if len(img_raw) < 16:
        raise IdxFormatError(f"{images_path}: truncated dimension header")
    rows, cols = struct.unpack(">II", img_raw[8:16])
    need = 16 + n_img * rows * cols
    if len(img_raw) < need:
        raise IdxFormatError(f"{images_path}: expected {need} bytes, found {len(img_raw)}")
    _, n_lab = _read_idx(lab_raw, _LABELS_MAGIC, str(labels_path))
    if len(lab_raw) < 8 + n_lab:
        raise IdxFormatError(f"{labels_path}: expected {8 + n_lab} bytes, found {len(lab_raw)}")
    if n_img != n_lab:
        raise IdxFormatError(f"image count {n_img} != label count {n_lab}")
    images = np.frombuffer(img_raw, dtype=np.uint8, count=n_img * rows * cols,
                           offset=16).reshape(n_img, rows * cols)
    labels = np.frombuffer(lab_raw, dtype=np.uint8, count=n_lab, offset=8)
    lo, hi = digits
    mask_lo = labels == lo
    mask_hi = labels == hi
    if not mask_lo.any():
        raise DigitAbsentError(f"digit {lo} absent from {labels_path}")
    if not mask_hi.any():
        raise DigitAbsentError(f"digit {hi} absent from {labels_path}")
    keep = mask_lo | mask_hi
    x = images[keep].astype(float) / 255.0
    y = np.where(labels[keep] == hi, 1.0, -1.0)
    norms = np.sqrt(np.sum(x * x, axis=1))
    x /= np.maximum(norms, 1.0)[:, None]
    x.setflags(write=False)
    return LogRegProblem(features=x, labels=y, lam=lam)


def _load_problem(config: SweepConfig) -> LogRegProblem:
    if config.dataset_source == "SYNTHETIC":
        return generate_synthetic(config.train_size, config.dim, config.seed,
                                  lam=config.lam)
    return load_idx(config.idx_images, config.idx_labels,
                    digits=config.digit_pair, lam=config.lam)


def _guarantee(kind: MechanismKind, config: SweepConfig, eps: float) -> Guarantee:
    if kind.pnsgd and not kind.metric:
        return Guarantee(eps, False, pnsgd_mod.renyi_slope_for_dp(eps, config.delta), 0.0)
    return Guarantee(eps, kind.metric, None, config.delta if kind.pnsgd else 0.0)


def _pnsgd_sigma(g: Guarantee, config: SweepConfig) -> float:
    if config.noiseless:
        return 0.0
    if g.rho is None:
        lip = 1.0 + config.constraint_radius / 4.0  # the gradients' input Lipschitz constant
        return math.sqrt(pnsgd_mod.noise_for_renyi_mdp(config.alpha, g.eps, lip, UNIT_BALL_DIAM))
    g_bound = 1.0 + config.lam * config.constraint_radius
    # rho = 2*G^2/sigma^2; a slope that underflowed to 0 asks for infinite noise
    return g_bound * math.sqrt(2.0 / g.rho) if g.rho else math.inf


def _pnsgd_releases(guarantees: list, config: SweepConfig, problem: LogRegProblem,
                    rngs: list) -> np.ndarray:
    """Every cell's releases, (cells, trials, n_samples, d).  One chain per
    (cell, trial) at the cell's noise level; all chains run in one
    lockstep pass per sample, each pass continuing the cells' generators."""
    sigmas = [_pnsgd_sigma(g, config) for g in guarantees]
    signed = problem.labels[:, None] * problem.features
    passes = [pnsgd_mod.pnsgd_run(sigmas, signed, config.lam, config.constraint_radius, rngs,
                                  config.trials)
              for _ in range(config.n_samples)]
    return np.stack(passes, axis=2)


def _output_perturb_releases(guarantees: list, config: SweepConfig,
                             problem: LogRegProblem, rngs: list) -> Iterator[np.ndarray]:
    """Each cell's releases in turn, (trials, n_samples, d), drawn in one
    call from the cell's generator.  A noiseless sweep stands for the
    eps -> infinity limit: every release is the optimum itself, and
    nothing is drawn."""
    theta_hat = train_logreg_exact(problem)
    for g, rng in zip(guarantees, rngs):
        if config.noiseless:
            yield np.tile(theta_hat, (config.trials, config.n_samples, 1))
            continue
        draw = output_perturb_mdp_euclidean if g.metric else output_perturb_dp
        yield draw((config.trials, config.n_samples), theta_hat, g.eps, problem.n, config.lam, rng)


def evaluate_bounds(guarantee: Guarantee, n: int, dim: int) -> dict:
    """All bounds applicable to a guarantee at n draws on the unit ball in
    dimension dim: diameter 2 (also Fano's packing ball), effective dimension
    dim*ln2 (the log of the ball's lower covering bound at radius 1/2) and
    coordinate sum dim (the prior unbiased bound's convention).  The DP
    two-point KL is the Renyi slope rho if there is one, else eps*tanh(eps/2)."""
    eps, delta = guarantee.eps, guarantee.delta
    if guarantee.metric:
        d_eff = norm_ball_covering_bounds_log(dim, 0.5)[0]
        return {"mdp_lecam": bounds_mod.mdp_lecam_bound(eps, n, UNIT_BALL_DIAM, delta),
                "mdp_fano": bounds_mod.mdp_fano_bound(eps, n, UNIT_BALL_DIAM, d_eff, delta)}
    kl = kl_bound(eps) if guarantee.rho is None else guarantee.rho
    return {"dp_lecam": bounds_mod.two_point_bound(UNIT_BALL_DIAM, kl, n, delta),
            "rdp_unbiased": bounds_mod.unbiased_rdp_bound(eps, float(dim))}


def _bootstrap_ci(values: np.ndarray, rng: np.random.Generator) -> tuple:
    if values.size == 0:
        return math.inf, math.inf
    if values.size == 1:  # errors are nonnegative; one draw bounds nothing more
        return 0.0, math.inf
    idx = rng.integers(0, values.size, size=(BOOTSTRAP_RESAMPLES, values.size))
    means = values[idx].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Execute the full protocol and aggregate per grid point.

    Per epsilon and trial: privatize, attack, score.  The trained
    optimum is shared across trials for output perturbation (the
    mechanism only adds fresh noise); for PNSGD the pass itself is the
    mechanism, so every draw is a chain of its own.
    """
    problem = _load_problem(config)
    model = ThreatModel(problem)
    kind = MECHANISM_KINDS[config.mechanism_kind]
    release = _pnsgd_releases if kind.pnsgd else _output_perturb_releases
    guarantees = [_guarantee(kind, config, eps) for eps in config.eps_grid]

    def spawn(*key):  # (0, cell) for the cell's releases, (1, cell) for its bootstrap
        return np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=key))

    cells = release(guarantees, config, problem, [spawn(0, c) for c in range(len(guarantees))])
    rows = []
    for eps_idx, (g, releases) in enumerate(zip(guarantees, cells)):
        mse, failures = attack_average(model, releases)
        mses = mse[~np.isnan(mse)]
        mean_mse = float(mses.mean()) if mses.size else math.inf
        ci_low, ci_high = _bootstrap_ci(mses, spawn(1, eps_idx))
        rows.append(SweepRow(epsilon=g.eps, mechanism=config.mechanism_kind,
                             mean_mse=mean_mse, ci_low=ci_low, ci_high=ci_high,
                             bound_values=evaluate_bounds(g, config.n_samples, problem.dim),
                             failures=int(failures.sum())))
    return SweepResult(config=config, bound_names=tuple(rows[0].bound_values), rows=tuple(rows))


def audit_dominance(result: SweepResult) -> bool:
    """Check the headline soundness property: the empirical mean error
    must sit at or above every audited lower bound at every grid point.

    The prior unbiased-attack bound is excluded: this attack is biased,
    so that bound's hypothesis does not apply (its curve is still
    emitted for comparison).  Noiseless runs are exempt too, since the
    release then carries no privacy at all and exact recovery is the
    expected outcome; returns False when skipped for that reason.
    """
    if result.config.noiseless:
        return False
    for row in result.rows:
        for name, value in row.bound_values.items():
            if name not in AUDITED_BOUNDS or not math.isfinite(value):
                continue
            if row.mean_mse < value:
                raise DominanceError(
                    f"mean mse {row.mean_mse} < {name}={value} at eps={row.epsilon}")
    return True


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(float(x))


def emit_csv(result: SweepResult, path) -> None:
    """One row per grid point; byte-deterministic given (config, seed)."""
    if not result.rows:
        raise ValueError("refusing to emit an empty sweep result")
    cols = ["epsilon", "mechanism", "mean_mse", "ci_low", "ci_high",
            *result.bound_names, "failures"]
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    for row in result.rows:
        cells = [_fmt(row.epsilon), row.mechanism, _fmt(row.mean_mse),
                 _fmt(row.ci_low), _fmt(row.ci_high)]
        cells += [_fmt(row.bound_values[name]) for name in result.bound_names]
        cells.append(str(row.failures))
        buf.write(",".join(cells) + "\n")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(buf.getvalue())


def emit_bounds_csv(rows: Sequence, path) -> None:
    """Bound curves: epsilon, bound_name, value, validity_flag."""
    if not rows:
        raise ValueError("refusing to emit an empty bounds table")
    buf = io.StringIO()
    buf.write("epsilon,bound_name,value,validity_flag\n")
    for eps, name, value, flag in rows:
        buf.write(f"{_fmt(eps)},{name},{_fmt(value)},{flag.value}\n")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(buf.getvalue())


_SVG_W, _SVG_H = 760, 480
_MARGIN = 60.0
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _log_points(xs, ys) -> list:
    return [(x, math.log10(y)) for x, y in zip(xs, ys)
            if math.isfinite(y) and y > 0]


def _svg_path(points, x_map, y_map) -> str:
    return " ".join(f"{x_map(x):.2f},{y_map(y):.2f}" for x, y in points)


def emit_svg(result: SweepResult, path) -> None:
    """Static SVG 1.1 line chart, log-scaled y axis: one polyline per
    bound plus one for the empirical mean, and a shaded CI polygon.  With
    nothing positive and finite to plot, the axes and legend frame empty
    series on the decade around 1."""
    if not result.rows:
        raise ValueError("refusing to emit an empty sweep result")
    xs = [row.epsilon for row in result.rows]
    series = {"empirical": [row.mean_mse for row in result.rows]}
    for name in result.bound_names:
        series[name] = [row.bound_values[name] for row in result.rows]
    band_lo = [row.ci_low for row in result.rows]
    band_hi = [row.ci_high for row in result.rows]

    logvals = [y for vals in (*series.values(), band_lo, band_hi) for _, y in _log_points(xs, vals)]
    ymin, ymax = (min(logvals) - 0.2, max(logvals) + 0.2) if logvals else (-0.2, 0.2)
    xmin = min(xs)
    xspan = (max(xs) - xmin) or 1.0  # a one-point grid sits at the left edge

    def x_map(x):
        return _MARGIN + (x - xmin) / xspan * (_SVG_W - 2 * _MARGIN)

    def y_map(logy):
        return _SVG_H - _MARGIN - (logy - ymin) / (ymax - ymin) * (_SVG_H - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    band = _log_points(xs, band_hi) + list(reversed(_log_points(xs, band_lo)))
    if band:
        parts.append(f'<polygon points="{_svg_path(band, x_map, y_map)}" '
                     f'fill="#1f77b4" fill-opacity="0.15" stroke="none"/>')
    for idx, (name, vals) in enumerate(series.items()):
        pts = _log_points(xs, vals)
        color = _PALETTE[idx % len(_PALETTE)]
        dash = "" if name == "empirical" else ' stroke-dasharray="6,3"'
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
                     f'{dash} points="{_svg_path(pts, x_map, y_map)}"/>')
        label_y = 20 + 16 * idx
        parts.append(f'<text x="{_SVG_W - _MARGIN - 150:.0f}" y="{label_y}" '
                     f'font-size="12" fill="{color}">{name}</text>')
    axis_y = _SVG_H - _MARGIN
    parts.append(f'<line x1="{_MARGIN}" y1="{axis_y}" x2="{_SVG_W - _MARGIN}" '
                 f'y2="{axis_y}" stroke="black"/>')
    parts.append(f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
                 f'y2="{axis_y}" stroke="black"/>')
    for x in xs:
        parts.append(f'<text x="{x_map(x):.1f}" y="{axis_y + 18:.1f}" font-size="10" '
                     f'text-anchor="middle">{x:g}</text>')
    decade = math.ceil(ymin)
    while decade <= ymax:
        parts.append(f'<text x="{_MARGIN - 8:.1f}" y="{y_map(decade) + 4:.1f}" '
                     f'font-size="10" text-anchor="end">1e{decade:d}</text>')
        decade += 1
    parts.append(f'<text x="{_SVG_W / 2:.0f}" y="{_SVG_H - 12}" font-size="12" '
                 f'text-anchor="middle">epsilon</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
