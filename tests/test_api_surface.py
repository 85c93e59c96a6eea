"""Public API audit: every public function, class and method of the
package has a caller in the package itself, in the benchmark or in a
console script, so that none is kept alive only by tests.

A reference is a name or attribute load anywhere in ``src/reconbound``,
a name or attribute load or a string constant in ``perfbench`` (whose
tracer names the attributes it wraps), or the target of a console
script in ``pyproject.toml``.  Docstrings do not count.  The package
itself exports its modules and nothing else, so each function has one
public path, the one the tracer wraps.  The independent verification
oracles the tests check the package against live in ``tests/reference.py``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reconbound"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions():
    """(module, name) of every public top-level function or class and
    every public method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                out.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                out += [(path.stem, f"{node.name}.{item.name}") for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")]
    return out


def docstrings(tree):
    """The string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def loaded_names(tree, with_strings: bool) -> set:
    skip = docstrings(tree) if with_strings else set()
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (with_strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and id(node) not in skip):
            names.add(node.value)
    return names


def referenced_names() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        names |= loaded_names(parse(path), with_strings=False)
    for path in (ROOT / "perfbench").glob("*.py"):
        names |= loaded_names(parse(path), with_strings=True)
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    names |= set(re.findall(r'=\s*"reconbound\.\w+:(\w+)"', scripts))
    return names


def test_every_public_name_has_a_caller():
    referenced = referenced_names()
    unused = [f"{module}.{name}" for module, name in public_definitions()
              if name.rsplit(".", 1)[-1] not in referenced]
    assert not unused, f"public API with no caller outside tests: {unused}"


def fresh(code):
    """Run ``code`` in a fresh interpreter, where the test process's
    imports have bound no submodule on the package; its stdout."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.returncode == 0, out.stderr
    return out.stdout


def loaded_after(code):
    """The package modules loaded after ``code`` in a fresh interpreter."""
    return set(fresh(f"import sys; {code}; print(*(n.split('.')[1] for n in sys.modules "
                     "if n.startswith('reconbound.')))").split())


def test_package_exports_exactly_its_modules():
    # each module loads on first use: the import loads none, and reading
    # a name returns the module in sys.modules.  Reading all of them must not
    # load numpy.polynomial, which only the tests' quadrature needs and
    # which would slow every cold start; the test process has loaded it
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "cli"}
    listing = ("import sys, reconbound; "
               "assert not [n for n in sys.modules if n.startswith('reconbound.')]; "
               "names = sorted(n for n in dir(reconbound) if n[0] != '_'); "
               "assert all(getattr(reconbound, n) is sys.modules['reconbound.' + n] "
               "for n in names); "
               "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial loaded'; "
               "print(*names)")
    assert fresh(listing).split() == sorted(modules)
    for name in ("cli", "run_sweep"):
        refused = ("import reconbound\n"
                   f"try: reconbound.{name}\n"
                   "except AttributeError as exc: print(exc)")
        assert fresh(refused).strip() == f"module 'reconbound' has no attribute '{name}'"


# the modules the sweep harness loads, and so every sweep compiles
SWEEP_PATH = {"harness", "attack", "mechanisms", "bounds"}


def test_a_sweep_never_loads_the_exact_oracles():
    # the gain of loading on first use: the sweep path compiles no oracle
    # and no metric space, and a PNSGD pass only for a sweep that runs one
    assert loaded_after("import reconbound; reconbound.harness") == SWEEP_PATH
    for kind, extra in (("OUTPUT_PERTURB_DP", set()), ("PNSGD_MDP", {"pnsgd"})):
        sweep = ("from reconbound.harness import SweepConfig, run_sweep; "
                 f"run_sweep(SweepConfig(eps_grid=(0.5, 2.0), mechanism_kind={kind!r}, "
                 "seed=20240817, trials=3, n_samples=2, train_size=200, dim=4))")
        assert loaded_after(sweep) == SWEEP_PATH | extra, kind
    assert loaded_after("import reconbound; reconbound.oracle") == MATH_LAYER


# the bounds and the exact oracles: they import one another and nothing
# of the training, attack or sweep code, so a bound reads no parameter
# object of a mechanism
MATH_LAYER = {"bounds", "oracle", "metric_space"}


def package_imports(tree) -> set:
    """The modules of the package that a module imports."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                out.add(node.module.rsplit(".", 1)[-1])
            if node.module in (None, "reconbound"):  # from . import harness
                out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            out |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
    return out & modules


def test_math_layer_imports_only_itself():
    for module in sorted(MATH_LAYER):
        outside = package_imports(parse(PACKAGE / f"{module}.py")) - MATH_LAYER
        assert not outside, f"{module} imports {sorted(outside)}"


def test_reference_oracles_import_only_metric_space():
    # the oracles verify the bounds, so they may not call them; the
    # discretized unit ball is a metric_space space
    imported = package_imports(parse(ROOT / "tests" / "reference.py"))
    assert imported == {"metric_space"}, sorted(imported)
