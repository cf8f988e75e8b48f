"""Steady-state solver for the rotating-frame amplitude equations, the
network spectral density, and an independent time-domain relaxation oracle.

In the frame rotating at the drive frequency the mean amplitudes obey

    d a/dt = (H_eff + H_load) a - i W,

where H_eff has entries i(delta_nm * omega_d - w_nm) - delta_nm * gamma_n/2
(w_nn the node frequency, w_nm the coupling for n != m), H_load is diagonal
with i*delta_omega - gamma_load/2 at the load node, and W is the one-hot
drive vector. The steady state solves (H_eff + H_load) a = i W.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgecon, zgetrf, zgetrs

from .errors import ConvergenceFailure, SingularNetwork, ValidationError
from .network import NetworkSpec, require_valid

__all__ = [
    "SteadyState",
    "effective_matrix",
    "drive_vector",
    "solve_amplitudes",
    "spectral_density",
    "spectral_density_grid",
    "spectral_density_sweep",
    "time_domain_steady_state",
]

# Above this condition estimate the linear system is treated as singular.
# The estimate is the 1-norm one LAPACK zgecon takes from the LU factors;
# it differs from the 2-norm condition number by at most a factor of N.
COND_LIMIT = 1e12
# Steady-state residual contract, relative to the drive vector norm.
RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Rotating-frame mean amplitudes of a driven network."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amplitudes, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)


def _frequency_matrix(spec: NetworkSpec) -> np.ndarray:
    """Real symmetric matrix with node frequencies on the diagonal and
    couplings off it."""
    w = np.array(spec.couplings, dtype=float)
    np.fill_diagonal(w, spec.node_frequencies)
    return w


def _undriven_matrix(spec: NetworkSpec) -> np.ndarray:
    """Validate a spec and build W - i*diag(gamma)/2 of the undriven,
    unloaded network."""
    require_valid(spec)
    return _frequency_matrix(spec) - 0.5j * np.diag(spec.intrinsic_decays)


def _load_term(delta_omega, gamma_load):
    """Load entry h_L = i*delta_omega - gamma_load/2 at the load node, for
    scalars or arrays of load parameters."""
    return 1j * delta_omega - gamma_load / 2.0


def effective_matrix(spec: NetworkSpec, loaded: bool = True) -> np.ndarray:
    """Validate a spec and build its steady-state matrix in one fresh
    array: i(omega_d - w_nn) - gamma_n/2 on the diagonal, -i*w_nm off it,
    and the load term h_L added at [L, L] when `loaded`."""
    require_valid(spec)
    matrix = spec.couplings * -1j
    diagonal = 1j * (spec.drive.omega_d - spec.node_frequencies) - spec.intrinsic_decays / 2.0
    np.fill_diagonal(matrix, diagonal)
    if loaded:
        matrix[spec.load.node, spec.load.node] += _load_term(
            spec.load.delta_omega, spec.load.gamma_load
        )
    return matrix


class _Factorization:
    """LU factors of one square complex matrix, checked for conditioning.

    Raises SingularNetwork when a pivot is exactly zero or when the
    reciprocal 1-norm condition estimate that LAPACK zgecon takes from the
    factors (Hager/Higham) falls below 1 / COND_LIMIT.
    """

    def __init__(self, matrix: np.ndarray):
        self.lu, self.piv, info = zgetrf(matrix)
        if info > 0:
            raise SingularNetwork(f"matrix is exactly singular (zero pivot in column {info})")
        self.rcond, _ = zgecon(self.lu, np.linalg.norm(matrix, 1), norm="1")
        # written this way round so that a nan estimate fails too
        if not self.rcond >= 1.0 / COND_LIMIT:
            cond = math.inf if self.rcond == 0 else 1.0 / self.rcond
            raise SingularNetwork(f"condition estimate {cond:.3e} exceeds {COND_LIMIT:.0e}")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solution of matrix @ x = rhs for a vector or a column stack."""
        return zgetrs(self.lu, self.piv, rhs)[0]


def _residual_bound(rhs_norm) -> float:
    """Bound of the residual contract that every solve route meets: each
    residual norm |A a - rhs| must satisfy `residual <= bound`, a test
    written that way round so that a NaN residual fails. Raises
    SingularNetwork when the bound RESIDUAL_RTOL * |rhs| overflows, where
    no residual could fail it."""
    bound = RESIDUAL_RTOL * rhs_norm
    if not bound < math.inf:
        raise SingularNetwork(f"residual bound {RESIDUAL_RTOL:.0e} * |rhs| overflows")
    return bound


def drive_vector(spec: NetworkSpec) -> np.ndarray:
    """One-hot complex drive vector."""
    omega = np.zeros(spec.n_nodes, dtype=complex)
    omega[spec.drive.node] = spec.drive.rabi
    return omega


def solve_amplitudes(spec: NetworkSpec) -> SteadyState:
    """Direct solve of the steady-state equations.

    Factors the full loaded matrix once; the condition check, the solve and
    the one refinement step all use those LU factors. Raises
    SingularNetwork when a pivot is exactly zero or the 1-norm condition
    estimate (LAPACK zgecon) exceeds COND_LIMIT (physically, driving a
    lossless dark mode exactly on resonance), or when the residual
    contract cannot be met, as when the residual or its bound overflows.
    """
    matrix = effective_matrix(spec)
    rhs = 1j * drive_vector(spec)
    factors = _Factorization(matrix)
    amps = factors.solve(rhs)

    with np.errstate(over="ignore", invalid="ignore"):
        bound = _residual_bound(np.linalg.norm(rhs))
        residual = np.linalg.norm(matrix @ amps - rhs)
        if not residual <= bound:
            # one step of iterative refinement, then give up
            amps = amps + factors.solve(rhs - matrix @ amps)
            residual = np.linalg.norm(matrix @ amps - rhs)
    if not residual <= bound:
        raise SingularNetwork(f"residual {residual:.3e} exceeds {RESIDUAL_RTOL:.0e} * |rhs|")
    return SteadyState(amplitudes=amps)


def spectral_density(spec: NetworkSpec, omega: float) -> float:
    """Mode-structure diagnostic of the undriven, unloaded network.

    S(omega) = -Im tr (omega*I - M)^(-1) with M = W - i*diag(gamma)/2.
    Nonnegative for strictly lossy networks; a sum of Lorentzian peaks at
    the network eigenfrequencies.
    """
    a = omega * np.eye(spec.n_nodes) - _undriven_matrix(spec)
    try:
        value = -np.imag(np.trace(np.linalg.inv(a)))
    except np.linalg.LinAlgError as exc:
        raise SingularNetwork(str(exc)) from None
    if not np.isfinite(value):
        raise SingularNetwork(f"resolvent diverges at omega = {omega!r}")
    return float(value)


def spectral_density_grid(spec, grid) -> np.ndarray:
    """Spectral density at each frequency of an arbitrary grid.

    The trace of the resolvent of any square matrix is
    sum_k 1 / (omega - lambda_k) over its eigenvalues, so one eigvals call
    serves the whole grid. Points where that sum is not finite (omega on a
    real eigenvalue) come back as nan gap values instead of raising.
    spectral_density, which inverts the matrix at one point, is the
    independent check of this route.
    """
    try:
        eigs = np.linalg.eigvals(_undriven_matrix(spec))
    except np.linalg.LinAlgError as exc:
        raise SingularNetwork(str(exc)) from None
    grid = np.asarray(grid, dtype=float)
    values = np.zeros(grid.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lam in eigs:
            values -= np.imag(1.0 / (grid - lam))
    values[~np.isfinite(values)] = np.nan
    return values


def spectral_density_sweep(spec, omega_min, omega_max, n_points) -> np.ndarray:
    """Evaluate the spectral density on a uniform inclusive grid.

    Returns an (n_points, 2) array of (omega, S) rows. Grid points where
    the resolvent is exactly singular come back as (omega, nan) gap rows.
    """
    if not (math.isfinite(omega_min) and math.isfinite(omega_max) and omega_min < omega_max):
        raise ValidationError(f"need finite omega_min < omega_max, got [{omega_min}, {omega_max}]")
    if n_points < 2:
        raise ValidationError(f"need n_points >= 2, got {n_points}")
    grid = np.linspace(omega_min, omega_max, int(n_points))
    return np.column_stack([grid, spectral_density_grid(spec, grid)])


def _rk4_fixed_point(a, forcing, dt, max_steps, tol):
    """Fixed-step RK4 for dy/dt = a @ y + forcing from y = 0, read at
    steps 0, 1, 2, 4, 8, ... until the derivative norm drops to `tol` or
    the next doubling would pass `max_steps`.

    For a linear system one RK4 step is exactly the affine map
    y <- P y + q with P = sum_{k<=4} (dt a)^k / k! and
    q = dt sum_{k<=3} (dt a)^k / (k+1)! forcing. With P_n = P^n and y_n
    the iterate after n steps, y_2n = P_n y_n + y_n and P_2n = P_n P_n, so
    step 2^j costs j matrix products and no linear solve.

    Returns (y, steps_taken, residual_norm) where residual_norm is the
    derivative norm at the returned point.
    """
    n = a.shape[0]
    y = np.zeros(n, dtype=np.complex128)
    residual = float(np.linalg.norm(forcing))
    if residual <= tol or max_steps < 1:
        return y, 0, residual

    b = dt * a
    eye = np.eye(n, dtype=np.complex128)
    p = eye + b @ (eye + b @ (eye + b @ (eye + b / 4.0) / 3.0) / 2.0)
    v = forcing / 6.0 + b @ (forcing / 24.0)
    v = forcing / 2.0 + b @ v
    y = dt * (forcing + b @ v)
    steps = 1
    while True:
        residual = float(np.linalg.norm(a @ y + forcing))
        if residual <= tol or 2 * steps > max_steps:
            return y, steps, residual
        y = p @ y + y
        p = p @ p
        steps *= 2


def time_domain_steady_state(spec, t_final=None, dt=None) -> SteadyState:
    """Independent relaxation oracle for the direct solve.

    Follows the fixed-step fourth-order Runge-Kutta trajectory of
    d a/dt = (H_eff + H_load) a - i W from a(0) = 0. One RK4 step of this
    linear system is an exact affine map, which is composed with itself by
    repeated squaring, so the iterate at step 2^j costs j matrix products.
    The iterate is read at steps 1, 2, 4, ... until the derivative norm
    falls to 1e-10 * |W| or the next doubling would pass t_final.
    Defaults: dt resolves the fastest scale (0.1 / max |eigenvalue|) and
    t_final budgets several lifetimes of the slowest mode; the eigenvalues
    are used only to size the budget, never to form the answer, and no
    linear solve is made.

    Raises ConvergenceFailure, carrying the residual at the last step
    reached, when the residual target is not met by t_final,
    SingularNetwork when that target overflows, and ValidationError for a
    network with a non-decaying mode or a budget that is not a finite
    positive number of at most 2e8 steps.
    """
    matrix = effective_matrix(spec)
    omega = drive_vector(spec)
    forcing = -1j * omega
    with np.errstate(over="ignore", invalid="ignore"):
        tol = _residual_bound(np.linalg.norm(omega))

    if dt is None or t_final is None:
        eigs = np.linalg.eigvals(matrix)
        if dt is None:
            dt = 0.1 / float(np.abs(eigs).max())
        if t_final is None:
            alpha = float(eigs.real.max())
            if alpha >= 0.0:
                raise ValidationError(
                    f"network has a non-decaying mode (max Re eigenvalue {alpha:.3e}); "
                    "the relaxation oracle requires a decaying system"
                )
            t_final = 60.0 / abs(alpha)
    # written this way round so that nan and inf fail too
    if not (0 < dt < math.inf and 0 < t_final and t_final / dt <= 200_000_000):
        raise ValidationError(
            f"need dt > 0, t_final > 0 and t_final / dt <= 2e8 steps, got dt={dt!r}, "
            f"t_final={t_final!r}; check decay rates or pass explicit t_final/dt"
        )

    amps, _, residual = _rk4_fixed_point(matrix, forcing, float(dt), math.ceil(t_final / dt), tol)
    if not residual <= tol:
        raise ConvergenceFailure(residual)
    return SteadyState(amplitudes=amps)
