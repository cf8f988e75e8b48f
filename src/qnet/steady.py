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

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NonUniqueSteadyState, SingularNetwork, ValidationError
from .network import NetworkSpec, _finite, _grid, _scalar

__all__ = [
    "SteadyState",
    "effective_matrix",
    "solve_amplitudes",
    "spectral_density",
    "spectral_density_grid",
    "time_domain_steady_state",
]

# Above this condition estimate the linear system is treated as singular.
# The estimate is the 1-norm one LAPACK zgecon (zgbcon in band storage)
# takes from the LU factors; it differs from the 2-norm condition number by
# at most a factor of N.
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


def _undriven_matrix(spec: NetworkSpec) -> np.ndarray:
    """W - i*diag(gamma)/2 of the undriven, unloaded network; its real part
    is exactly W, node frequencies on the diagonal and couplings off it."""
    w = np.array(spec.couplings, dtype=float)
    np.fill_diagonal(w, spec.node_frequencies)
    return w - 0.5j * np.diag(spec.intrinsic_decays)


def _load_term(delta_omega, gamma_load):
    """Load entry h_L = i*delta_omega - gamma_load/2 at the load node, for
    scalars or arrays of load parameters."""
    return 1j * delta_omega - gamma_load / 2.0


def effective_matrix(spec: NetworkSpec, loaded: bool = True) -> np.ndarray:
    """The steady-state matrix of a spec in one fresh array:
    i(omega_d - w_nn) - gamma_n/2 on the diagonal, -i*w_nm off it, and the
    load term h_L added at [L, L] when `loaded`. Raises SingularNetwork
    when a diagonal entry overflows double precision; the couplings are
    finite, and so is every entry off the diagonal."""
    def diagonal():
        entries = 1j * (spec.drive.omega_d - spec.node_frequencies) - spec.intrinsic_decays / 2.0
        if loaded:
            entries[spec.load.node] += _load_term(spec.load.delta_omega, spec.load.gamma_load)
        return entries
    matrix = spec.couplings * -1j
    np.fill_diagonal(matrix, _finite_result(diagonal, "steady-state matrix entries overflow double precision"))
    return matrix


def _bandwidth(matrix: np.ndarray) -> int:
    """Largest |i - j| over the nonzero entries of a square matrix.

    A nonzero corner entry settles it at n - 1 without a scan.
    """
    n = matrix.shape[0]
    if matrix[-1, 0] != 0 or matrix[0, -1] != 0:
        return n - 1
    # comparing float64 parts is several times faster than comparing complex
    # entries; part p of the flat view belongs to flat entry p // 2
    parts = np.ascontiguousarray(matrix, dtype=complex).view(np.float64)
    entries = np.flatnonzero(parts != 0) // 2
    return int(np.abs(entries // n - entries % n).max(initial=0))


def _band_storage(matrix: np.ndarray, k: int) -> np.ndarray:
    """LAPACK band storage of a matrix with k diagonals on each side of the
    main one, with the k extra rows that zgbtrf fills: matrix[i, j] sits at
    [2k + i - j, j]."""
    n = matrix.shape[0]
    band = np.zeros((3 * k + 1, n), dtype=complex)
    for offset in range(-k, k + 1):
        band[2 * k - offset, max(offset, 0) : n + min(offset, 0)] = matrix.diagonal(offset)
    return band


@functools.cache
def _lapack():
    """scipy's LAPACK extension scipy.linalg._flapack, loaded at the first
    factorization (commands that factor nothing load no scipy) from its
    file, without the package init of scipy and scipy.linalg (about 0.3 s
    of a cold `qnet solve`), and kept in sys.modules under its own name for
    a later import of scipy.linalg to reuse; the module already there if
    scipy.linalg came first. scipy.linalg.lapack when the file cannot be
    found or loaded, or lacks a routine that _Factorization calls."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        try:
            folder = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg")
            loader = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
            spec = importlib.machinery.FileFinder(folder, loader).find_spec(name)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except Exception:  # any failure to find or load the file: the package route below
            module = None
    if not all(hasattr(module, routine) for routine in ("zgetrf", "zgecon", "zgetrs", "zgbtrf", "zgbcon", "zgbtrs")):
        from scipy.linalg import lapack

        return lapack
    return sys.modules.setdefault(name, module)


class _Factorization:
    """LU factors of one square complex matrix, checked for conditioning.

    A matrix whose nonzeros all lie within k diagonals of the main one,
    with 8 k < n, is factored in LAPACK band storage (zgbtrf, O(n k^2));
    any other matrix densely (zgetrf, O(n^3)). On one BLAS thread, factors
    plus condition estimate cost the same both ways at k = 1 for n = 12
    and k = 2 to 3 for n = 20, so 8 k < n tracks the crossover for small
    matrices and stays on the safe side for large ones, where band storage
    wins up to k of about 9 at n = 50, 26 at n = 100 and 64 at n = 200.
    At n <= 8 only a diagonal matrix would qualify, so small matrices go
    dense without a bandwidth scan. `band` is k on the band route and None
    on the dense one.

    Raises SingularNetwork when a pivot is exactly zero or when the
    reciprocal 1-norm condition estimate that LAPACK zgecon or zgbcon takes
    from the factors (Hager/Higham) falls below 1 / COND_LIMIT.
    """

    def __init__(self, matrix: np.ndarray):
        lapack = _lapack()
        n = matrix.shape[0]
        k = _bandwidth(matrix) if n > 8 else n - 1
        if 8 * k < n:
            self.band = k
            band = _band_storage(matrix, k)
            anorm = np.abs(band).sum(axis=0).max()
            self.lu, self.piv, info = lapack.zgbtrf(band, k, k, overwrite_ab=1)
        else:
            self.band = None
            anorm = np.linalg.norm(matrix, 1)
            self.lu, self.piv, info = lapack.zgetrf(matrix)
        if info > 0:
            raise SingularNetwork(f"matrix is exactly singular (zero pivot in column {info})")
        if self.band is None:
            self.rcond, _ = lapack.zgecon(self.lu, anorm, norm="1")
        else:
            self.rcond, _ = lapack.zgbcon(k, k, self.lu, self.piv, anorm, norm="1")
        # written this way round so that a nan estimate fails too
        if not self.rcond >= 1.0 / COND_LIMIT:
            cond = math.inf if self.rcond == 0 else 1.0 / self.rcond
            raise SingularNetwork(f"condition estimate {cond:.3e} exceeds {COND_LIMIT:.0e}")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solution of matrix @ x = rhs for a vector or a column stack."""
        lapack = _lapack()
        if self.band is None:
            return lapack.zgetrs(self.lu, self.piv, rhs)[0]
        return lapack.zgbtrs(self.lu, self.band, self.band, rhs, self.piv)[0]


def _finite_result(compute, message):
    """The one rule for a result that may leave double precision: compute()
    with numpy's floating-point warnings off and a float ** overflow read as
    inf, returned if every entry is finite, else SingularNetwork(message)
    with {!r} in the message standing for the value."""
    with np.errstate(all="ignore"):
        try:
            value = compute()
        except OverflowError:  # float ** raises where float * returns inf
            value = math.inf
    # math reads a float or complex scalar about ten times faster than np.isfinite
    scalar = isinstance(value, (float, complex))
    if not (math.isfinite(value.real) and math.isfinite(value.imag) if scalar else np.isfinite(value).all()):
        raise SingularNetwork(message.format(value))
    return value


def _residual_bound(rhs) -> float:
    """Bound RESIDUAL_RTOL * |rhs| of the residual contract that every
    solve route meets, for the right-hand side rhs. Raises SingularNetwork
    when the bound overflows, where no residual could fail it."""
    return _finite_result(
        lambda: RESIDUAL_RTOL * np.linalg.norm(rhs), f"residual bound {RESIDUAL_RTOL:.0e} * |rhs| overflows"
    )


def _require_residual(residual, bound, route="residual") -> None:
    """Raises SingularNetwork, naming the route, unless `residual <= bound`,
    a test written that way round so that a NaN residual fails."""
    if not residual <= bound:
        raise SingularNetwork(f"{route} {residual:.3e} exceeds {RESIDUAL_RTOL:.0e} * |rhs|")


def _require_decay(growth, measure, route) -> None:
    """Raises NonUniqueSteadyState, naming the measure and the route,
    unless `growth`, the fastest growth rate of a mode, is negative; a test
    written that way round so that NaN fails."""
    if not growth < 0.0:
        raise NonUniqueSteadyState(
            f"network has a non-decaying mode ({measure} {growth:.3e}); the {route} requires a decaying system"
        )


def drive_vector(spec: NetworkSpec) -> np.ndarray:
    """One-hot complex drive vector."""
    omega = np.zeros(spec.n_nodes, dtype=complex)
    omega[spec.drive.node] = spec.drive.rabi
    return omega


def solve_amplitudes(spec: NetworkSpec) -> SteadyState:
    """Direct solve of the steady-state equations.

    Factors the full loaded matrix once, in band storage when its
    bandwidth k meets 8 k < N (a chain) and densely otherwise; the
    condition check, the solve and the one refinement step all use those
    LU factors. Raises SingularNetwork when a pivot is exactly zero or the
    1-norm condition estimate (LAPACK zgecon or zgbcon) exceeds COND_LIMIT
    (physically, driving a lossless dark mode exactly on resonance), or
    when the residual contract cannot be met, as when the residual or its
    bound overflows.
    """
    matrix = effective_matrix(spec)
    rhs = 1j * drive_vector(spec)
    factors = _Factorization(matrix)
    amps = factors.solve(rhs)

    bound = _residual_bound(rhs)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.linalg.norm(matrix @ amps - rhs)
        if not residual <= bound:
            # one step of iterative refinement, then give up
            amps = amps + factors.solve(rhs - matrix @ amps)
            residual = np.linalg.norm(matrix @ amps - rhs)
    _require_residual(residual, bound)
    return SteadyState(amplitudes=amps)


def spectral_density(spec: NetworkSpec, omega: float) -> float:
    """Mode-structure diagnostic of the undriven, unloaded network.

    S(omega) = -Im tr (omega*I - M)^(-1) with M = W - i*diag(gamma)/2.
    Nonnegative for strictly lossy networks; a sum of Lorentzian peaks at
    the network eigenfrequencies. omega must be one finite real number.
    """
    omega = _scalar("omega", _finite("omega", omega))
    a = omega * np.eye(spec.n_nodes) - _undriven_matrix(spec)
    try:
        value = _finite_result(
            lambda: -np.imag(np.trace(np.linalg.inv(a))), f"resolvent diverges at omega = {omega!r}"
        )
    except np.linalg.LinAlgError as exc:
        raise SingularNetwork(str(exc)) from None
    return float(value)


def spectral_density_grid(spec, grid) -> np.ndarray:
    """Spectral density at each frequency of an arbitrary grid: a finite
    real number (one point) or a 1-D grid of them.

    The trace of the resolvent of any square matrix is
    sum_k 1 / (omega - lambda_k) over its eigenvalues, so one eigvals call
    serves the whole grid. Points where that sum is not finite (omega on a
    real eigenvalue) come back as nan gap values instead of raising.
    spectral_density, which inverts the matrix at one point, is the
    independent check of this route.

    Both the matrix and the grid are shifted first by c = min/2 + max/2 of
    the node frequencies, which cannot overflow. The eigenvalues then
    carry an absolute error of eps times the spread of the frequencies,
    not eps times the frequencies themselves, which would swamp losses
    many decades below them. Near a mode the relative error still grows as
    about 6e-15 / offset, the distance from the mode, so agreement with
    spectral_density to 1e-10 holds only at offsets of about 1e-4 or more.
    """
    matrix = _undriven_matrix(spec)
    center = float(spec.node_frequencies.min() / 2 + spec.node_frequencies.max() / 2)
    try:
        eigs = np.linalg.eigvals(matrix - center * np.eye(spec.n_nodes))
    except np.linalg.LinAlgError as exc:
        raise SingularNetwork(str(exc)) from None
    shifted = _grid("grid", _finite("grid", grid)) - center
    values = np.zeros(shifted.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lam in eigs:
            values -= np.imag(1.0 / (shifted - lam))
    values[~np.isfinite(values)] = np.nan
    return values


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


def time_domain_steady_state(spec) -> SteadyState:
    """Independent relaxation oracle for the direct solve.

    Follows the fixed-step fourth-order Runge-Kutta trajectory of
    d a/dt = (H_eff + H_load) a - i W from a(0) = 0. One RK4 step of this
    linear system is an exact affine map, which is composed with itself by
    repeated squaring, so the iterate at step 2^j costs j matrix products.
    The iterate is read at steps 1, 2, 4, ... until the derivative norm
    falls to 1e-10 * |W| or the next doubling would pass t_final.
    The budget comes from the eigenvalues of the matrix: dt = 0.1 / max
    |eigenvalue| resolves the fastest scale and t_final = 60 / |max Re
    eigenvalue| spans 60 lifetimes of the slowest mode. The eigenvalues
    only size the budget, never form the answer, and no linear solve is
    made.

    Raises ConvergenceFailure, carrying the residual at the last step
    reached, when the residual target is not met by t_final,
    SingularNetwork when that target overflows, NonUniqueSteadyState for a
    network with a non-decaying mode and ValidationError for a budget of
    more than 2e8 steps.
    """
    matrix = effective_matrix(spec)
    omega = drive_vector(spec)
    forcing = -1j * omega
    tol = _residual_bound(omega)

    eigs = np.linalg.eigvals(matrix)
    alpha = float(eigs.real.max())
    _require_decay(alpha, "max Re eigenvalue", "relaxation oracle")
    # alpha < 0, so the largest |eigenvalue| is positive
    dt = 0.1 / float(np.abs(eigs).max())
    t_final = 60.0 / abs(alpha)
    # dt is 0 when the fastest rate overflows; nan steps fail the check too
    steps = t_final / dt if dt else math.inf
    if not steps <= 200_000_000:
        raise ValidationError(
            f"relaxation budget needs {steps:.3e} RK4 steps, more than 2e8; check decay rates"
        )

    amps, _, residual = _rk4_fixed_point(matrix, forcing, dt, math.ceil(steps), tol)
    if not residual <= tol:
        raise ConvergenceFailure(residual)
    return SteadyState(amplitudes=amps)
