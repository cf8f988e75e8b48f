"""Driven dissipative bosonic networks: steady states, single-node
(Thevenin) equivalents, conjugate-matched loads and delivered power, with
independent time-domain and density-matrix cross-checks."""

import types

from .errors import (
    CapacityError,
    ConvergenceFailure,
    DarkNode,
    InvalidMoments,
    NonUniqueSteadyState,
    PivotBreakdown,
    QnetError,
    SingularNetwork,
    UnphysicalMatch,
    UnsupportedTopology,
    ValidationError,
)
from .network import (
    DriveSpec,
    LoadSpec,
    NetworkSpec,
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

# The density-matrix oracle imports scipy.sparse, which costs more start-up
# time than the rest of the package; its names load on first access.
_LINDBLAD_NAMES = (
    "DensityState",
    "FockConfig",
    "build_liouvillian",
    "factorization_residual",
    "moments",
    "oracle_report",
    "steady_state_density",
)

# Bound by `from qnet import *`: every public name above except submodules,
# and the deferred names, which such an import loads.
__all__ = [
    *(
        name
        for name, value in globals().items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ),
    *_LINDBLAD_NAMES,
]


def __getattr__(name):
    if name in _LINDBLAD_NAMES:
        from . import lindblad

        return getattr(lindblad, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LINDBLAD_NAMES})
