"""Audit toolkit for reconstruction resilience of private learners:
lower-bound calculators, private training mechanisms, an informed
reconstruction attack, exact finite-instance oracles, and a sweep
harness that checks the attack never beats a valid bound.  Each module
loads on first use, so a sweep never loads ``oracle``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"
_MODULES = frozenset({"attack", "bounds", "harness", "mechanisms", "metric_space",
                      "oracle", "pnsgd"})


def __getattr__(name):
    # importing binds the submodule on the package, so each name comes here once
    if name in _MODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(_MODULES | globals().keys())
