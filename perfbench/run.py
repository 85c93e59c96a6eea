"""Benchmark for reconbound: how long one verdict takes, how many attack
draws a sweep gets through per second, and what set-up costs, on four
workloads; a traced run splits the time by layer.

    python3 perfbench/run.py --workload desk-op --seed 20240817 --seconds 25 --trace 0

It runs from the root of a source checkout and imports the package from
its ``src`` directory.  One process, one Python thread and one client
run a closed loop: each task starts when the previous one has finished,
and the loop stops at the first round boundary after ``--seconds``.
One untimed round comes first, so lazy set-up is not timed.  A fixed
calibration kernel runs after every task, and times are reported in
reference seconds (see calibrate.py), so that the host's changing speed
cancels out; the plain wall times are printed beside them.  With
``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a run that alternates untraced and traced rounds.  Everything else
(environment, CSV digests, spans) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans as tracing
from calibrate import REF_S, WINDOW, Kernel
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 20240817      # the acceptance seed
SETUP_SAMPLES = 7            # fresh interpreters timed for setup_s
TAIL_BEYOND = 10             # samples required beyond the reported tail

# per-layer metric -> (layer, statistic, unit); statistics are per traced
# task, except the set-up layers, which are per traced set-up
PER_LAYER = {
    "harness.load.busy_s": ("harness.load", "setup_busy_s", "s"),
    "harness.load.task_busy_s": ("harness.load", "busy_s", "s"),
    "mechanisms.train.calls": ("mechanisms.train", "calls", "count"),
    "mechanisms.train.busy_s": ("mechanisms.train", "busy_s", "s"),
    "mechanisms.release.calls": ("mechanisms.release", "calls", "count"),
    "mechanisms.release.busy_s": ("mechanisms.release", "busy_s", "s"),
    "pnsgd.pass.calls": ("pnsgd.pass", "calls", "count"),
    "pnsgd.pass.busy_s": ("pnsgd.pass", "busy_s", "s"),
    "pnsgd.pass.steps": ("pnsgd.pass", "steps", "count"),
    "attack.threat_model.calls": ("attack.threat_model", "calls", "count"),
    "attack.threat_model.busy_s": ("attack.threat_model", "busy_s", "s"),
    "attack.average.self_s": ("attack.average", "self_s", "s"),
    "attack.invert.calls": ("attack.invert", "calls", "count"),
    "attack.invert.self_s": ("attack.invert", "self_s", "s"),
    "attack.invert.no_root": ("attack.invert", "NoRootError", "count"),
    "attack.invert.degenerate": ("attack.invert", "DegenerateGradientError", "count"),
    "attack.invert.ok_ratio": ("attack.invert", "ok_ratio", "ratio"),
    "attack.grad_sum.calls": ("attack.grad_sum", "calls", "count"),
    "attack.grad_sum.busy_s": ("attack.grad_sum", "busy_s", "s"),
    "bounds.evaluate.calls": ("bounds.evaluate", "calls", "count"),
    "bounds.evaluate.busy_s": ("bounds.evaluate", "busy_s", "s"),
    "harness.emit.busy_s": ("harness.emit", "busy_s", "s"),
    "harness.sweep.self_s": ("harness.sweep", "self_s", "s"),
    "oracle.enumerate.calls": ("oracle.enumerate", "calls", "count"),
    "oracle.enumerate.busy_s": ("oracle.enumerate", "busy_s", "s"),
    "oracle.enumerate.tuples": ("oracle.enumerate", "tuples", "count"),
    "oracle.enumerate.bytes_computed": ("oracle.enumerate", "bytes_computed", "B"),
    "oracle.certificate.calls": ("oracle.certificate", "calls", "count"),
    "oracle.certificate.self_s": ("oracle.certificate", "self_s", "s"),
    "metric_space.build.busy_s": ("metric_space.build", "setup_busy_s", "s"),
    "metric_space.covering.calls": ("metric_space.covering", "calls", "count"),
    "metric_space.covering.busy_s": ("metric_space.covering", "busy_s", "s"),
    "metric_space.packing.calls": ("metric_space.packing", "calls", "count"),
    "metric_space.packing.busy_s": ("metric_space.packing", "busy_s", "s"),
    "bench.task.self_s": ("bench.task", "self_s", "s"),
}

NO_PUBLIC_ENTRY = ("the bootstrap and the scalar root have no public entry point: "
                   "the bootstrap is in harness.sweep.self_s, the scalar root in "
                   "attack.invert.self_s")


@dataclass
class Record:
    task: int
    kind: str
    sweep: bool
    phase: str          # "warmup" or "timed"
    traced: bool
    seconds: float
    error: str
    outcome: object
    problems: list
    kernel_s: float = float("nan")  # calibration kernel time around the task


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's self-test")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_blas_threads() -> int:
    """OpenBLAS may use at most nproc threads; set before numpy loads."""
    limit = _nproc()
    wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", limit) or limit)
    threads = max(1, min(wanted, limit))
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return threads


def _import_reconbound():
    sys.path.insert(0, str(SRC))
    import reconbound
    if Path(reconbound.__file__).resolve().parent != (SRC / "reconbound").resolve():
        raise ImportError(f"reconbound imported from {reconbound.__file__}, not {SRC}")
    return reconbound


def _set_up(args, traced: bool):
    """Cold import of reconbound plus building the workload's inputs,
    timed, with ``WINDOW`` calibration kernel passes right before and
    right after it.
    numpy is imported before the clock starts: it is a fixed dependency,
    and its import time swings with the file cache by more than
    reconbound's whole set-up takes."""
    import numpy as np
    kernel = Kernel(np)
    around = [kernel() for _ in range(WINDOW)]
    start = time.perf_counter()
    rb = _import_reconbound()
    tracer = None
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    build = WORKLOADS[args.workload].build
    if traced:
        tracer = tracing.Tracer(tracing.layer_table(rb))
        tracer.install()
        tracer.task = "setup"
        root = tracer.begin("bench.setup")
        try:
            prepared = build(rb, np, args.seed, args.tiny, out_dir)
        finally:
            tracer.end(root)
            tracer.uninstall()
    else:
        prepared = build(rb, np, args.seed, args.tiny, out_dir)
    seconds = time.perf_counter() - start
    around += [kernel() for _ in range(WINDOW)]
    return (seconds, statistics.median(around)), rb, np, prepared, tracer, kernel


def _probe_setup(args) -> tuple:
    """(set-up wall time, kernel time around it) in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return tuple(json.loads(done.stdout.splitlines()[-1])["setup"])


def _ref_s(seconds: float, kernel_s: float) -> float:
    """Wall time in reference seconds: divided by the calibration kernel's
    time at that moment, multiplied by its time on the reference machine."""
    return seconds / kernel_s * REF_S


class Runner:
    """Runs tasks one at a time, checks their outputs, keeps records.
    The calibration kernel runs once before the first task and after
    every task, so kernel pass ``i`` precedes task ``i``."""

    def __init__(self, tracer, kernel):
        self.tracer = tracer
        self.kernel = kernel
        self.kernel_times = [kernel()]
        self.records = []
        self.digests = {}

    def run(self, task, phase: str, traced: bool) -> None:
        tid = len(self.records)
        tracer = self.tracer if traced else None
        outcome, error = None, ""
        if tracer:
            tracer.install()
            tracer.task = tid
        start = time.perf_counter()
        root = tracer.begin("bench.task") if tracer else None
        try:
            outcome = task.run()
        except Exception as exc:  # a raised task is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.end(root)
        seconds = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
        self.kernel_times.append(self.kernel())
        problems = []
        if outcome is not None:
            problems = list(outcome.problems)
            first = self.digests.setdefault(outcome.key, outcome.digest)
            if first != outcome.digest:
                problems.append(f"{outcome.key}: output differs from its first run "
                                f"({outcome.digest[:12]} != {first[:12]})")
        self.records.append(Record(tid, task.kind, task.sweep, phase, traced, seconds,
                                   error, outcome, problems))

    def loop(self, tasks, seconds: float, trace: bool) -> None:
        """Closed loop over whole rounds; in a traced run rounds alternate
        untraced and traced, ending on a traced one."""
        for task in tasks:
            self.run(task, "warmup", False)
        deadline = time.perf_counter() + seconds
        traced = False
        while True:
            for task in tasks:
                self.run(task, "timed", traced)
            if time.perf_counter() >= deadline and (traced or not trace):
                break
            traced = trace and not traced
        for r in self.records:
            r.kernel_s = statistics.median(
                self.kernel_times[max(0, r.task + 1 - WINDOW):r.task + 1 + WINDOW])


def _run_untimed(tasks: list) -> list:
    """Each task once, after the timed loop.  These tasks are known to
    raise on the workload's inputs; the outcome is reported, but it is
    neither timed nor counted in ``attempted`` or ``failed``."""
    lines = []
    for task in tasks:
        start = time.perf_counter()
        try:
            outcome = task.run()
        except Exception as exc:
            lines.append(f"{task.kind} (untimed, not counted) raised before any draw: "
                         f"{type(exc).__name__}: {exc}")
            continue
        lines.append(f"{task.kind} (untimed, not counted) completed in "
                     f"{time.perf_counter() - start:.3f} s: {outcome.draws} draws, "
                     f"{outcome.invert_failures} with no inversion, digest {outcome.digest}")
    return lines


def _tail(values: list) -> tuple:
    """The highest percentile with at least TAIL_BEYOND samples beyond
    it: (value, percentile, sample count).  With too few samples there is
    none, and the minimum is given with percentile 0."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return ordered[0], 0.0, len(ordered)
    return ordered[k - 1], 100.0 * k / len(ordered), len(ordered)


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():  # an exported tree: do not report an outer repo
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _environment(np, args, blas_threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    caches = _cache_sizes()
    return {"nproc": _nproc(), "cpu_model": _cpu_model(), "l2": caches.get("L2"),
            "l3": caches.get("L3"), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_version, "blas_threads": blas_threads,
            "seed": args.seed, "git_commit": _git_commit(), "src_sha256": _src_digest(),
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "tiny": args.tiny}


def _sweep_summary(records: list) -> dict:
    """Draw throughput and attack outcomes over the timed sweep tasks."""
    sweeps = [r for r in records if r.sweep and r.phase == "timed" and not r.traced]
    done = [r for r in sweeps if r.outcome is not None]
    draws = sum(r.outcome.draws for r in done)
    busy = sum(r.seconds for r in sweeps)
    no_inversion = sum(r.outcome.invert_failures for r in done)
    per_kind = {}
    for r in done:
        per_kind.setdefault(r.kind, (r.outcome.invert_failures, r.outcome.draws))
    raised = {}
    for r in sweeps:
        if r.error:
            raised.setdefault(r.kind, r.error)
    return {"draws_per_s": draws / busy if busy > 0 else 0.0, "draws": draws,
            "sweep_seconds": busy, "ok_ratio": 1.0 - no_inversion / draws if draws else 0.0,
            "no_inversion_per_sweep": {k: f"{f}/{d}" for k, (f, d) in per_kind.items()},
            "raised": raised}


def _layer_metrics(tracer, records: list) -> dict:
    traced = [r for r in records if r.traced]
    tids = {r.task for r in traced}
    per_task = tracing.layer_totals(tracer.spans, tids)
    setup = tracing.layer_totals(tracer.spans, {"setup"})
    count = max(len(tids), 1)
    metrics = {}
    for name, (layer, stat, unit) in PER_LAYER.items():
        entry = per_task.get(layer)
        if stat == "setup_busy_s":
            value = setup[layer]["busy_s"] if layer in setup else 0.0
        elif entry is None:
            value = 0.0
        elif stat in ("calls", "busy_s", "self_s"):
            value = entry[stat] / count
        elif stat == "ok_ratio":
            bad = sum(entry["errors"].values())
            value = (entry["calls"] - bad) / entry["calls"] if entry["calls"] else 0.0
        elif stat.endswith("Error"):
            value = entry["errors"].get(stat, 0) / count
        else:
            value = entry["counts"].get(stat, 0) / count
        metrics[name] = {"value": value, "unit": unit}
    return metrics, per_task, count


def _leading(per_task: dict, count: int, workload: str) -> list:
    """Which layer and which module group hold the most self time, and
    whether that is the layer the workload was chosen to stress."""
    layers = {name: e["self_s"] / count for name, e in per_task.items()
              if not name.startswith("bench.")}
    groups = {}
    for name, value in layers.items():
        groups[name.split(".")[0]] = groups.get(name.split(".")[0], 0.0) + value
    total = sum(e["self_s"] for e in per_task.values()) / count
    level, expected = WORKLOADS[workload].leader
    ranked = sorted((groups if level == "group" else layers).items(),
                    key=lambda kv: -kv[1])
    lines = [f"self time per task {total:.4f} s; top {level}s: " + ", ".join(
        f"{n} {100 * v / total:.1f}%" for n, v in ranked[:4])]
    top = ranked[0][0] if ranked else "none"
    verdict = "confirmed" if top in expected else "NOT confirmed"
    lines.append(f"leading {level}: {top}; expected {' or '.join(expected)}: {verdict}")
    return lines


def _traced_report(args, tracer, records: list, untraced: list, sweeps: dict,
                   result: dict) -> tuple:
    """Per-layer metrics, the layer check, overhead and self-time check.
    The overhead compares task times in reference seconds, like verdict_s."""
    metrics, per_task, count = _layer_metrics(tracer, records)
    traced = [_ref_s(r.seconds, r.kernel_s) for r in records
              if r.traced and not (r.error or r.problems)]
    base = statistics.median(_ref_s(r.seconds, r.kernel_s) for r in untraced)
    overhead = statistics.median(traced) - base
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["draws_per_s"] = {"value": sweeps["draws_per_s"], "unit": "1/s"}
    excess = tracing.self_sum_excess(tracer.spans,
                                     {r.task: r.seconds for r in records if r.traced})
    result["self_sum_excess"] = excess
    if excess > 1.0:
        result["failures"].append(f"self times miss wall time by {excess:.3g} "
                                  "times the allowed gap")
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps(tracer.spans))
    result["spans"] = str(spans_path.relative_to(ROOT))
    lines = _leading(per_task, count, args.workload) + [
        f"tracing overhead {overhead:+.5f} s per task ({100 * overhead / base:+.1f}% "
        f"of {base:.4f} s), {count} traced tasks",
        f"self times sum to wall time within {excess:.3f} of the allowed gap "
        f"({tracing.SELF_SUM_TOL:g} x wall + {tracing.SELF_SUM_SLACK_S * 1e6:g} us)",
        NO_PUBLIC_ENTRY]
    return metrics, lines, excess <= 1.0


def _untraced_report(setup_samples: list, untraced: list, sweeps: dict,
                     result: dict) -> tuple:
    """End-to-end metrics, with draw throughput and attack outcomes.
    Times are in reference seconds; the wall times are printed beside."""
    ref = [_ref_s(r.seconds, r.kernel_s) for r in untraced]
    wall = [r.seconds for r in untraced]
    tail, pct, n = _tail(ref)
    metrics = {
        "setup_s": {"value": statistics.median(_ref_s(*s) for s in setup_samples),
                    "unit": "s"},
        "verdict_s": {"value": statistics.median(ref), "unit": "s"},
        "verdict_s.tail": {"value": tail, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "unit": "MB"},
    }
    kernel_s = statistics.median(r.kernel_s for r in untraced)
    wall_metrics = {"setup_s": statistics.median(s for s, _ in setup_samples),
                    "verdict_s": statistics.median(wall), "verdict_s.tail": _tail(wall)[0],
                    "kernel_s": kernel_s}
    result.update(setup_samples=setup_samples, tail={"percentile": pct, "samples": n},
                  sweeps=sweeps, wall=wall_metrics)
    lines = [f"verdict_s.tail is p{pct:.0f} of {n} completed tasks",
             f"times are reference seconds (wall time / calibration kernel time x "
             f"{REF_S} s); calibration kernel median {kernel_s:.5f} s; wall time: "
             + ", ".join(f"{k} {v:.4f} s" for k, v in wall_metrics.items()
                         if k != "kernel_s")]
    if sweeps["draws"] or sweeps["raised"]:
        lines.append(f"draws_per_s {sweeps['draws_per_s']:.2f} 1/s "
                     f"({sweeps['draws']} draws in {sweeps['sweep_seconds']:.3f} s)")
        lines.append(f"attack.invert.ok_ratio {sweeps['ok_ratio']:.4f}; draws with "
                     f"no inversion per sweep: {sweeps['no_inversion_per_sweep']}")
    for kind, error in sweeps["raised"].items():
        lines.append(f"{kind} raised before any timed draw: {error}")
    return metrics, lines


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "reconbound" / "__init__.py").is_file():
        print(f"error: no reconbound package under {SRC}", file=sys.stderr)
        return 2
    blas_threads = _cap_blas_threads()
    if args.probe_setup:
        print(json.dumps({"setup": _set_up(args, traced=False)[0]}))
        return 0
    setup_samples = [] if args.trace else [_probe_setup(args)
                                           for _ in range(SETUP_SAMPLES - 1)]
    own_setup, rb, np, prepared, tracer, kernel = _set_up(args, traced=bool(args.trace))
    setup_samples.append(own_setup)
    runner = Runner(tracer, kernel)
    runner.loop(prepared.tasks, args.seconds, bool(args.trace))
    final_problems = prepared.final_checks() if prepared.final_checks else []
    untimed_lines = _run_untimed(prepared.untimed)

    records = runner.records
    failed_tasks = [r for r in records if r.error or r.problems]
    attempted = len(records) + (1 if prepared.final_checks else 0)
    failed = len(failed_tasks) + (1 if final_problems else 0)
    correct = not final_problems and not any(r.problems for r in records)
    untraced = [r for r in records if r.phase == "timed" and not r.traced
                and not (r.error or r.problems)]
    if not untraced:
        print("error: no timed task completed", file=sys.stderr)
        return 1
    sweeps = _sweep_summary(records)
    env = _environment(np, args, blas_threads)
    result = {"environment": env, "failed_ratio": f"{failed}/{attempted}",
              "failures": sorted({r.error or "; ".join(r.problems)
                                  for r in failed_tasks}) + final_problems,
              "digests": runner.digests, "untimed": untimed_lines,
              "verdicts": sorted({f"{r.kind}: {r.outcome.verdict}" for r in records
                                  if r.outcome is not None and r.outcome.verdict})}
    if args.trace:
        metrics, lines, spans_ok = _traced_report(args, tracer, records, untraced,
                                                  sweeps, result)
        correct = correct and spans_ok
    else:
        metrics, lines = _untraced_report(setup_samples, untraced, sweeps, result)
    lines = [f"workload {args.workload}: {WORKLOADS[args.workload].why}",
             "environment " + json.dumps(env, sort_keys=True)] + lines
    lines += untimed_lines
    lines.append(f"failed_ratio {failed}/{attempted}"
                 + "".join(f"\n  failure: {f}" for f in result["failures"]))
    lines += [f"digest {key} {digest}" for key, digest in runner.digests.items()]
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result["metrics"] = metrics
    result["tasks"] = [[r.kind, r.phase, r.traced, r.seconds, r.kernel_s] for r in records]
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
