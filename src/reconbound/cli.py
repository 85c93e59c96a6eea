"""Command-line interface.

Subcommands:
  sweep     run the attack-vs-bounds protocol and emit CSV/SVG
  bounds    tabulate lower-bound curves over an epsilon grid
  oracle    exact finite-channel certificates for randomized response
  covering  covering/packing numbers of a distance-matrix file

Exit codes: 0 success, 2 configuration error (including arrays too large
to allocate), 3 dominance violation (audit failure), 4 I/O error (a
missing or unreadable file), 5 certificate violation (an exact oracle
fell below a bound it certifies).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import harness, oracle
from .metric_space import FiniteMetricSpace, covering_number, packing_number


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reconbound")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a reconstruction sweep")
    p_sweep.add_argument("--config", help="flat key=value config file")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.add_argument("--mechanism", choices=harness.MECHANISM_KINDS)
    p_sweep.add_argument("--eps-grid", help="a:b:step or comma list")
    p_sweep.add_argument("--trials", type=int)
    p_sweep.add_argument("--noiseless", action="store_true", default=None)

    p_bounds = sub.add_parser("bounds", help="tabulate bound curves")
    p_bounds.add_argument("--eps-grid", required=True)
    p_bounds.add_argument("--diam", type=float, required=True)
    p_bounds.add_argument("--n", type=int, default=1)
    p_bounds.add_argument("--delta", type=float, default=0.0)
    p_bounds.add_argument("--coord-diam-sq-sum", type=float, default=None)
    p_bounds.add_argument("--d-eff", type=float, default=None)
    p_bounds.add_argument("--out", default="bounds.csv")

    p_oracle = sub.add_parser("oracle", help="finite-channel certificates")
    p_oracle.add_argument("--eps-grid", required=True)
    p_oracle.add_argument("--n", type=int, default=1)
    p_oracle.add_argument("--separation", type=float, default=1.0)
    p_oracle.add_argument("--inputs", type=int, default=2)

    p_cov = sub.add_parser("covering", help="covering/packing of a matrix file")
    p_cov.add_argument("--matrix", required=True)
    p_cov.add_argument("--eta", type=float, required=True)
    p_cov.add_argument("--cap", type=int, default=20)
    return parser


def _cmd_sweep(args) -> int:
    flags = {"seed": args.seed, "mechanism_kind": args.mechanism,
             "eps_grid": args.eps_grid, "trials": args.trials, "noiseless": args.noiseless}
    flags = {key: value for key, value in flags.items() if value is not None}
    if "eps_grid" in flags:
        flags["eps_grid"] = harness.parse_eps_grid(flags["eps_grid"])
    # flags complete and override the file; without one they are the config
    text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    config = harness.parse_config_text(text, **flags)

    result = harness.run_sweep(config)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"sweep_{config.mechanism_kind.lower()}")
    harness.emit_csv(result, stem + ".csv")
    harness.emit_svg(result, stem + ".svg")
    for row in result.rows:
        print(f"eps={row.epsilon:g} mean_mse={row.mean_mse:.6g} "
              f"failures={row.failures}")
    print(f"wrote {stem}.csv and {stem}.svg")
    if harness.audit_dominance(result):
        print("dominance audit passed")
    else:
        print("dominance audit skipped (noiseless run)")
    return 0


def _grid_and_n(args) -> tuple:
    grid = harness.parse_eps_grid(args.eps_grid)
    if any(eps < 0 for eps in grid):
        raise harness.ConfigError(f"--eps-grid {args.eps_grid!r} has a negative value")
    if args.n < 1:
        raise harness.ConfigError(f"--n {args.n} must be >= 1")
    return grid


def _cmd_bounds(args) -> int:
    grid = _grid_and_n(args)
    trivial = (args.diam / 2.0) * (args.diam / 2.0)
    if not (args.diam >= 0 and math.isfinite(trivial)):
        raise harness.ConfigError(f"--diam {args.diam:g} must be >= 0 with (diam/2)^2 finite")
    if not 0 <= args.delta < 1:
        raise harness.ConfigError(f"--delta {args.delta:g} must lie in [0, 1)")
    coord, d_eff = args.coord_diam_sq_sum, args.d_eff
    if coord is not None and not 0 <= coord < math.inf:  # NaN included
        raise harness.ConfigError(f"--coord-diam-sq-sum {coord:g} must be finite and >= 0")
    if d_eff is not None and not math.log(2.0) < d_eff < math.inf:
        raise harness.ConfigError(f"--d-eff {d_eff:g} must be finite and exceed ln 2")
    rows = []
    for eps in grid:
        values = {"dp_lecam": bounds_mod.dp_lecam_bound(eps, args.n, args.diam, args.delta),
                  "mdp_lecam": bounds_mod.mdp_lecam_bound(eps, args.n, args.diam, args.delta)}
        if coord is not None:
            values["rdp_unbiased"] = bounds_mod.unbiased_rdp_bound(eps, coord)
        if d_eff is not None:
            values["mdp_fano"] = bounds_mod.mdp_fano_bound(eps, args.n, args.diam, d_eff,
                                                           args.delta)
        for name, value in values.items():
            rows.append((eps, name, value, bounds_mod.validity_check(value, trivial)))
    harness.emit_bounds_csv(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_oracle(args) -> int:
    grid = _grid_and_n(args)
    if args.inputs < 2:
        raise harness.ConfigError(f"--inputs {args.inputs} must be >= 2")
    if not 0 < args.separation < math.inf:  # NaN included
        raise harness.ConfigError(f"--separation {args.separation:g} must be positive and finite")
    entries = args.inputs * args.inputs
    if entries > oracle.ENUMERATION_CAP:
        raise harness.ConfigError(
            f"--inputs {args.inputs}: its {args.inputs}x{args.inputs} channel and "
            f"distance matrices hold {entries} entries, above the limit "
            f"{oracle.ENUMERATION_CAP}")
    space = _uniform_space(args.inputs, args.separation)
    for eps in grid:
        mech = oracle.randomized_response(eps, k=args.inputs)
        if args.inputs == 2:
            rep = oracle.lecam_certificate(mech, space, n=args.n)
            print(f"eps={eps:g} exact={rep.exact_risk:.6g} "
                  f"two_point={rep.lecam_bound:.6g} relaxed={rep.bh_bound:.6g} "
                  f"closed_form={rep.dp_bound:.6g} OK")
        else:
            rep = oracle.fano_certificate(mech, space, n=args.n)
            print(f"eps={eps:g} exact_error={rep.exact_error:.6g} "
                  f"info_bound={rep.fano_error_bound:.6g} "
                  f"mutual_info={rep.mutual_info:.6g} OK")
    return 0


def _uniform_space(k: int, separation: float) -> FiniteMetricSpace:
    dist = np.full((k, k), separation, dtype=float)
    np.fill_diagonal(dist, 0.0)
    return FiniteMetricSpace(points=tuple(range(k)), dist=dist)


def _cmd_covering(args) -> int:
    space = FiniteMetricSpace.from_file(args.matrix, cap=args.cap)
    cov = covering_number(space, args.eta, cap=args.cap)
    pack = packing_number(space, args.eta, cap=args.cap)
    print(f"points={len(space)} eta={args.eta:g} covering={cov} packing={pack}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"sweep": _cmd_sweep, "bounds": _cmd_bounds,
                "oracle": _cmd_oracle, "covering": _cmd_covering}
    try:
        return handlers[args.command](args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    # ConfigError and bad flag values alike; numpy refuses an array too
    # large to allocate before touching any memory
    except (ValueError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except harness.DominanceError as exc:
        print(f"dominance violation: {exc}", file=sys.stderr)
        return 3
    except oracle.CertificateError as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
