import importlib.util
from pathlib import Path

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
