"""Exact lumping analysis of left-invariant random walks on finite groups.

The package decides strong, exact and weak lumping of the walk induced on
left cosets, computes the minimal and maximal stable induced ideals, the
admissible start distributions and the law of the state given a coset
history, characterizes achievable lumped transition matrices through orbital
matrices and bi-invariant weights, and runs the generic chain tests behind
`generic-test`, on which the tests' chain oracle (`tests/oracle_suite.py`)
cross-checks every group-specific verdict.  All decision paths use exact
rational or cyclotomic arithmetic.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraElement,
    abelian_characters,
    coset_sums,
    eta,
    parse_element_file,
    format_element,
)
from .errors import DomainError, InputFormatError, LumpwalkError, ResourceError
from .groups import (
    CosetDecomposition,
    DoubleCosetDecomposition,
    FiniteGroup,
    Subgroup,
    cosets,
    double_cosets,
    format_cycles,
    parse_cycles,
    parse_group_file,
)
from .hecke import (
    OrbitalMatrix,
    check_Q_characterization,
    hecke_project,
    orbital_matrices,
    verify_hecke_isomorphism,
)
from .linalg import Subspace, intersect
from .lumping import (
    GurvitsLedouxIdeal,
    LumpingProblem,
    abelian_weak_test,
    compute_Jw,
    compute_L_alpha_w,
    compute_Lw,
    conditional_law,
    interpolation_test,
    lumping_function,
    stable_ideal_check,
    test_exact,
    test_strong,
    test_weak_distribution,
    test_weak_weight,
    theta_dimension,
    time_reversal_dual_idempotent,
    walk_lumped_matrix,
)
from .markov import (
    Distribution,
    LumpingFunction,
    TransitionMatrix,
    minimal_GL_space,
    test_exact_generic,
    test_strong_generic,
    test_weak_generic,
    transition_from_weight,
)
from .scalars import (
    Cyclo,
    CyclotomicField,
    RationalField,
    RATIONALS,
    cyclotomic_field,
    cyclotomic_polynomial,
)
from .shuffles import bottom_card_cycle, random_to_top, top_to_random
from .simulate import (
    Trajectory,
    Xoshiro256StarStar,
    empirical_lumped_matrix,
    markov_diagnostic,
    simulate_walk,
)
