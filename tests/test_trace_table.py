import importlib.util
from pathlib import Path

import numpy as np

import reconbound

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    # the benchmark's traced run swaps each attribute through
    # owner.__dict__, so a deleted or re-homed name breaks --trace 1
    table = load_spans().layer_table(reconbound)
    assert table
    for owner, attr, name, _ in table:
        assert attr in owner.__dict__, (owner.__name__, attr, name)


def test_sweep_layers_are_traced():
    # the sweep must call the release, training, attack and bound
    # functions through the attributes the tracer swaps, the release once
    # per cell and the attack once per sweep; a kind table holding the
    # function objects themselves would bypass it and count nothing
    spans = load_spans()
    cells, trials, n_samples, train_size = 2, 3, 2, 40
    output_perturb = {"mechanisms.release": cells, "mechanisms.train": 1,
                      "bounds.evaluate": cells, "pnsgd.pass": 0, "attack.average": 1}
    expected = {
        "OUTPUT_PERTURB_DP": output_perturb,
        "OUTPUT_PERTURB_MDP": output_perturb,
        "PNSGD_MDP": {"mechanisms.release": 0, "mechanisms.train": 0,
                      "bounds.evaluate": cells, "pnsgd.pass": n_samples,
                      "attack.average": 1},
    }
    for kind, counts in expected.items():
        config = reconbound.harness.SweepConfig(
            eps_grid=(1.0, 3.0), mechanism_kind=kind, seed=3, trials=trials,
            n_samples=n_samples, lam=1.0, train_size=train_size, dim=3)
        tracer = spans.Tracer(spans.layer_table(reconbound))
        tracer.install()
        try:
            reconbound.harness.run_sweep(config)
        finally:
            tracer.uninstall()
        totals = spans.layer_totals(tracer.spans, {None})
        assert {layer: totals[layer]["calls"] for layer in counts} == counts, kind
        # the step counter reads the length of the pass's second argument,
        # the signed rows: one step per row in every pass
        steps = totals["pnsgd.pass"]["counts"]["steps"]
        assert steps == counts["pnsgd.pass"] * train_size, kind


def test_certificate_layers_are_traced():
    # exact-small's layer table rests on the certificates reaching the
    # enumeration functions through the attributes the tracer swaps
    spans = load_spans()
    oracle, ms = reconbound.oracle, reconbound.metric_space
    dist = np.ones((3, 3))
    np.fill_diagonal(dist, 0.0)
    runs = {
        "lecam_certificate": (oracle.randomized_response(1.0), ms.two_point_space(1.0)),
        "fano_certificate": (oracle.randomized_response(1.0, k=3),
                             ms.FiniteMetricSpace(points=(0, 1, 2), dist=dist)),
    }
    for name, (mech, space) in runs.items():
        tracer = spans.Tracer(spans.layer_table(reconbound))
        tracer.install()
        try:
            getattr(oracle, name)(mech, space, n=2)
        finally:
            tracer.uninstall()
        totals = spans.layer_totals(tracer.spans, {None})
        assert totals["oracle.certificate"]["calls"] == 1, name
        assert totals["oracle.enumerate"]["calls"] >= 1, name
