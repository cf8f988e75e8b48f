"""Exception types shared across the package."""


class QnetError(Exception):
    """Base class for all qnet errors."""


class ValidationError(QnetError):
    """A network spec, config file or argument set violates its contract."""


class SingularNetwork(QnetError):
    """The steady-state matrix is singular or numerically unusable
    (for example, a lossless dark mode driven exactly on resonance)."""


class DarkNode(QnetError):
    """The load node is decoupled from the rest of the network at this
    drive frequency: its diagonal resolvent element vanishes."""


class PivotBreakdown(QnetError):
    """Gaussian elimination hit an exactly zero pivot."""

    def __init__(self, node):
        self.node = node
        super().__init__(f"zero elimination pivot at node {node}")


class UnphysicalMatch(QnetError):
    """No passive load attains the power optimum (effective network decay
    toward the load is not strictly positive)."""

    def __init__(self, gamma_th):
        self.gamma_th = gamma_th
        super().__init__(f"matched load infeasible: gamma_th = {gamma_th!r} <= 0")


class ConvergenceFailure(QnetError):
    """Time-domain integration did not reach the requested residual."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"integration stopped with residual {residual:.3e}")


class InvalidMoments(QnetError):
    """Second moments fail the Hermiticity/consistency checks."""


class CapacityError(QnetError):
    """Requested Fock-space dimension exceeds the hard cap."""


class NonUniqueSteadyState(QnetError):
    """The dissipative generator has a degenerate kernel."""


class UnsupportedTopology(QnetError):
    """Operation is only defined for a restricted network layout."""


class UndefinedEfficiency(QnetError):
    """Efficiency requested for a state with no power flow at all."""
