"""Quantum discrete event systems toolbox.

Quantum finite automata as plants, bilinear machines as their common
algebraic form, exact equivalence and controllability decisions, and
supervisory control of the resulting quantum languages.
"""

from .linalg import Projector, is_unitary, projected_norm_sq, tensor
from .models import (
    Dfa,
    MmQfa,
    MoQfa,
    Qfac,
    ValidationFailedError,
    dfa_accepts,
    mm_accept_prob,
    mo_accept_prob,
    qfac_accept_prob,
    qfac_from_dfa,
    qfac_from_mo,
    validate,
)
from .blm import (
    Rblm,
    blm_eval,
    compile_mm_to_rblm,
    compile_qfac_to_rblm,
)
from .equivalence import (
    EquivalenceVerdict,
    equiv,
    equiv_mm_qfa,
    equiv_qfac,
    equiv_rblm,
    k_equiv_bruteforce,
    minimize,
)
from .composition import parallel_dfa, parallel_mo, parallel_qfac
from .supervisory import (
    ClosedLoop,
    ControllabilityResult,
    ControlSpec,
    CustomSupervisor,
    IsolationResult,
    MarkingResult,
    QuantumLanguage,
    SupervisorPolicy,
    check_admissible,
    check_approximation_preconditions,
    check_controllability_exhaustive,
    check_decision_preconditions,
    check_marking_conditions,
    check_nonblocking,
    closed_loop_marked,
    cutpoint_member,
    decide_controllability,
    isolated_classify,
    marked_language,
    prefix_sup,
    synthesize_supervisor,
)
from .fixtures import (
    build_af_modp,
    build_eg1,
    build_eg2,
    build_eg2_spec,
    build_egadd,
    build_spec_variant,
    dfa_bounded_zeros,
    dfa_halves_sum_tracking,
    dfa_zero_imbalance_tracking,
    eg2_rate,
    fact2_witness,
    minimal_dfa_size,
)
from .serialize import canonical_json, load, parse_word, save

__all__ = [name for name in dir() if not name.startswith("_")]
