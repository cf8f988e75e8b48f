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


class UnphysicalMatch(QnetError):
    """No passive load attains the power optimum: the effective network
    decay toward the load, gamma_th, is not above floor = 1e-14 * |h_th|."""

    def __init__(self, gamma_th, floor):
        self.gamma_th = gamma_th
        super().__init__(f"gamma_th = {gamma_th!r} <= 1e-14 * |h_th| = {floor!r}")


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
    """The network has no unique steady state: a mode never decays, or the
    dissipative generator has a degenerate kernel."""


class UnsupportedTopology(QnetError):
    """Operation is only defined for a restricted network layout."""
