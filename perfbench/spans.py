"""Span tracing for the benchmark, installed from outside the package.

Each traced layer is a public function of reconbound, or the validator
of one of its dataclasses.  `Tracer.install` replaces that attribute
with a wrapper that records a span (name, start, end, parent, task) and
`Tracer.uninstall` puts the original back, so nothing in the package
itself is edited and untraced runs pay nothing.  Spans stay in memory
until the run ends.

A layer's self time is its spans' durations minus the part covered by
their child spans; over one task the self times of all spans add up to
the task's root span, which the benchmark checks against the task's
wall time.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

# the largest gap allowed between a traced task's wall time and the sum
# of the self times of its spans: a share of the wall time, plus a fixed
# slack for the clock reads around the task's root span
SELF_SUM_TOL = 0.01
SELF_SUM_SLACK_S = 50e-6

# span record fields
NAME, START, END, PARENT, TASK, NOTE = range(6)


def _enumeration_size(signature):
    """Counter for the oracle's enumerations: outcome tuples and the bytes
    of the float64 (inputs x tuples) likelihood matrix each builds."""
    def count(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        mech, n = bound.arguments["mech"], bound.arguments["n"]
        tuples = mech.n_outcomes ** n
        return {"tuples": tuples, "bytes_computed": 8 * mech.n_inputs * tuples}
    return count


def _pnsgd_steps(config, dataset, *args, **kwargs):
    return {"steps": len(dataset)}


def layer_table(rb) -> list:
    """(owner, attribute, layer name, counter or None) for every traced
    boundary; ``rb`` is the imported reconbound package."""
    harness, attack, oracle = rb.harness, rb.attack, rb.oracle
    metric_space, pnsgd = rb.metric_space, rb.pnsgd
    table = [
        (harness, "run_sweep", "harness.sweep", None),
        (harness, "generate_synthetic", "harness.load", None),
        (harness, "emit_csv", "harness.emit", None),
        (harness, "emit_svg", "harness.emit", None),
        (harness, "train_logreg_exact", "mechanisms.train", None),
        (harness, "output_perturb_dp", "mechanisms.release", None),
        (harness, "output_perturb_mdp_euclidean", "mechanisms.release", None),
        (pnsgd, "pnsgd_run", "pnsgd.pass", _pnsgd_steps),
        (attack.ThreatModel, "__post_init__", "attack.threat_model", None),
        (harness, "attack_average", "attack.average", None),
        (attack, "glm_reconstruct_single", "attack.invert", None),
        (attack, "logistic_grad_sum", "attack.grad_sum", None),
        (harness, "evaluate_bounds", "bounds.evaluate", None),
        (oracle, "lecam_certificate", "oracle.certificate", None),
        (oracle, "fano_certificate", "oracle.certificate", None),
        (metric_space.FiniteMetricSpace, "__post_init__", "metric_space.build", None),
        (metric_space, "covering_number", "metric_space.covering", None),
        (metric_space, "packing_number", "metric_space.packing", None),
    ]
    for attr in ("exact_bayes_risk", "product_tv", "mutual_information",
                 "exact_identification_error"):
        fn = getattr(oracle, attr)
        table.append((oracle, attr, "oracle.enumerate",
                      _enumeration_size(inspect.signature(fn))))
    return table


class Tracer:
    """In-memory span recorder that wraps the layers of `layer_table`."""

    def __init__(self, table: list):
        self.table = table
        self.spans = []
        self.task = None
        self._stack = []
        self._saved = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count in self.table:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin(self, name: str, note: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.task, note])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def _wrap(self, original, name: str, count):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._saved:
                raise RuntimeError(f"{name} wrapper called while the tracer is off")
            note = count(*args, **kwargs) if count else None
            idx = tracer.begin(name, note)
            try:
                return original(*args, **kwargs)
            except Exception as exc:
                note = tracer.spans[idx][NOTE] or {}
                note["error"] = type(exc).__name__
                tracer.spans[idx][NOTE] = note
                raise
            finally:
                tracer.end(idx)

        return traced


def self_times(spans: list) -> list:
    """Self time of every span: its duration minus its children's."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_totals(spans: list, tasks: set) -> dict:
    """Per layer, summed over the spans of the given tasks: calls,
    busy_s (time inside the layer, children included), self_s, error
    counts by exception name, and summed counters."""
    selfs = self_times(spans)
    totals = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                  "errors": defaultdict(int),
                                  "counts": defaultdict(int)})
    for s, self_s in zip(spans, selfs):
        if s[TASK] not in tasks:
            continue
        entry = totals[s[NAME]]
        entry["calls"] += 1
        entry["busy_s"] += s[END] - s[START]
        entry["self_s"] += self_s
        for key, value in (s[NOTE] or {}).items():
            if key == "error":
                entry["errors"][value] += 1
            else:
                entry["counts"][key] += value
    return totals


def self_sum_excess(spans: list, walls: dict) -> float:
    """The largest gap between a task's wall time and the sum of the self
    times of its spans, as a share of the gap allowed; above 1 fails."""
    sums = defaultdict(float)
    for s, self_s in zip(spans, self_times(spans)):
        sums[s[TASK]] += self_s
    return max(abs(sums[task] - wall) / (SELF_SUM_TOL * wall + SELF_SUM_SLACK_S)
               for task, wall in walls.items())
