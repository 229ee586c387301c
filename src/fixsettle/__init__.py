"""Fixed-time stability analysis for discrete-time autonomous systems."""

from .errors import (
    ConfigurationError,
    DegenerateDomainError,
    EmptyDomainError,
    FixsettleError,
    LemmaPreconditionError,
    OriginError,
    ParameterDomainError,
    PerturbationBoundError,
    SimulationDivergedError,
)
from .lyapunov import (
    ConditionId,
    ConditionReport,
    FixedTimeGains,
    LyapunovCandidate,
    Violation,
    abs_candidate,
    decrement_residual,
    estimate_lipschitz,
    polynomial_candidate,
    scan_conditions,
    scan_trajectory,
    square_candidate,
)
from .oracle import (
    SweepResult,
    Table1Case,
    Table1Row,
    TABLE1_CASES,
    divergence_threshold,
    lemma1_randomized_trial,
    sweep_grid,
    sweep_settling,
    table1_reproduce,
)
from .perturbation import (
    BRANCH_HIGH,
    BRANCH_LOW,
    AttractivenessConfig,
    AttractivenessReport,
    analyze_attractiveness,
    attractive_level,
    choose_branch,
    feasibility_residual,
    perturbed_settling_bound,
    remark_tradeoff_table,
    verify_attractiveness,
)
from .settling import (
    QSequence,
    SettlingReport,
    SSequence,
    analyze_settling,
    example_bound,
    gains_from_example,
    measure_first_entry,
    measure_settling,
    phase1_bound,
    phase2_bound,
    q_sequence,
    s_sequence,
    settling_bound,
    settling_vs_epsilon,
)
from .systems import (
    PerturbationSpec,
    SystemMap,
    Trajectory,
    affine_system,
    constant_perturbation,
    example_step,
    example_system,
    radial_perturbation,
    simulate,
    simulate_perturbed,
    uniform_ball_perturbation,
)

__version__ = "0.1.0"
