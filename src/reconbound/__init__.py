"""Audit toolkit for reconstruction resilience of private learners:
lower-bound calculators, private training mechanisms, an informed
reconstruction attack, exact finite-instance oracles, and a sweep
harness that checks the attack never beats a valid bound.
"""

from .attack import ThreatModel, attack_average, glm_reconstruct_single
from .bounds import (Validity, dp_lecam_bound, mdp_fano_bound, mdp_lecam_bound,
                     unbiased_rdp_bound, validity_check)
from .divergence import (AnalyticPair, analytic_kl, analytic_renyi, bh_tv_bound,
                         kl_bound, numeric_kl)
from .harness import (SweepConfig, SweepResult, audit_dominance, emit_csv,
                      emit_svg, generate_synthetic, load_idx, run_sweep)
from .mechanisms import (LogRegProblem, output_perturb_dp, output_perturb_mdp_euclidean,
                         train_logreg_exact)
from .metric_space import (FiniteMetricSpace, covering_number, discretize_unit_ball,
                           norm_ball_covering_bounds_log, packing_number)
from .oracle import (FiniteMechanism, dp_epsilon_of, exact_bayes_risk,
                     fano_certificate, lecam_certificate, randomized_response)
from .pnsgd import noise_for_renyi_mdp, pnsgd_run, renyi_slope_for_dp

__version__ = "0.1.0"
