"""Audit toolkit for reconstruction resilience of private learners:
lower-bound calculators, private training mechanisms, an informed
reconstruction attack, exact finite-instance oracles, and a sweep
harness that checks the attack never beats a valid bound.
"""

from . import attack, bounds, harness, mechanisms, metric_space, oracle, pnsgd

__version__ = "0.1.0"
