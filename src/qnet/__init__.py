"""Driven dissipative bosonic networks: steady states, single-node
(Thevenin) equivalents, conjugate-matched loads and delivered power, with
independent time-domain and density-matrix cross-checks."""

import types

from .errors import *
from .lindblad import *
from .network import *
from .power import *
from .steady import *
from .thevenin import *

__version__ = "0.1.0"

# Every route is plain numpy/scipy; callers record this in run metadata.
BACKEND = "python"

# Bound by `from qnet import *`: every public name above except submodules.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
