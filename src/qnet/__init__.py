"""Driven dissipative bosonic networks: steady states, single-node
(Thevenin) equivalents, conjugate-matched loads and delivered power, with
independent time-domain and density-matrix cross-checks."""

from .errors import (
    CapacityError,
    ConvergenceFailure,
    DarkNode,
    InvalidMoments,
    NonUniqueSteadyState,
    PivotBreakdown,
    QnetError,
    SingularNetwork,
    UndefinedEfficiency,
    UnphysicalMatch,
    UnsupportedTopology,
    ValidationError,
)
from .lindblad import (
    DensityState,
    FockConfig,
    build_liouvillian,
    expectation_amplitude,
    expectation_correlator,
    factorization_residual,
    oracle_report,
    steady_state_density,
)
from .network import (
    DriveSpec,
    LoadSpec,
    NetworkSpec,
    Violation,
    build_chain,
    build_random_all_to_all,
    from_config_dict,
    load_config,
    save_config,
    to_config_dict,
    validate,
)
from .power import (
    PowerReport,
    efficiency,
    general_power_from_correlators,
    input_power,
    load_power,
    matched_efficiency_two_node,
    power_report,
    radiated_power,
)
from .steady import (
    SteadyState,
    effective_matrix,
    solve_amplitudes,
    spectral_density,
    spectral_density_grid,
    spectral_density_sweep,
    time_domain_steady_state,
)
from .thevenin import (
    GridCheck,
    MatchedLoad,
    TheveninEquivalent,
    grid_check,
    load_amplitude_from_thevenin,
    load_power_map,
    load_power_thevenin,
    load_sweep,
    matched_load,
    thevenin_by_elimination,
    thevenin_equivalent,
)

__version__ = "0.1.0"

# Every route is plain numpy/scipy; callers record this in run metadata.
BACKEND = "python"
