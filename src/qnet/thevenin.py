"""Single-node equivalent of a network as seen from its load node, the
conjugate-matched load, and grid-search verification of the power optimum.

The reduction eliminates every node except the load node from the
steady-state equations, leaving a scalar relation

    i * omega_th = h_th * a_load          (load contribution excluded),

with h_th = 1 / (e_L^T H_eff^(-1) e_L) and
omega_th = (e_L^T H_eff^(-1) W) / (e_L^T H_eff^(-1) e_L). Attaching a load
h_L = i*delta_omega - gamma_load/2 then gives
a_load = i*omega_th / (h_th + h_L), exactly as the full solve does.
Delivered power is maximal for the conjugate match h_L = conj(h_th).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DarkNode, PivotBreakdown, SingularNetwork, UnphysicalMatch, ValidationError
from .network import LoadSpec, NetworkSpec, require_valid
from .steady import RESIDUAL_RTOL, _Factorization, _steady_matrix, drive_vector

__all__ = [
    "TheveninEquivalent",
    "MatchedLoad",
    "thevenin_equivalent",
    "thevenin_by_elimination",
    "load_amplitude_from_thevenin",
    "matched_load",
    "load_sweep",
    "load_power_map",
    "grid_check",
    "GridCheck",
]

# Resolvent elements smaller than this (relative to the largest element of
# the same resolvent column) count as a decoupled load node.
DARK_RTOL = 1e-14


@dataclass(frozen=True)
class TheveninEquivalent:
    """Equivalent single-node energy and drive for the load node."""

    h_th: complex
    omega_th: complex
    load_node: int

    @property
    def delta_omega_th(self) -> float:
        """Frequency-shift part of h_th."""
        return self.h_th.imag

    @property
    def gamma_th(self) -> float:
        """Decay-rate part of h_th (h_th = i*delta_omega_th - gamma_th/2)."""
        return -2.0 * self.h_th.real


@dataclass(frozen=True)
class MatchedLoad:
    """Load parameters that maximize delivered power, and that maximum."""

    delta_omega: float
    gamma_load: float
    p_max: float
    feasible: bool = True


def _resolvent_pair(spec: NetworkSpec):
    """Solve H x = e_load and H y = drive vector from one LU factorization
    of the load-free matrix H.

    Returns (x, y). Raises SingularNetwork when a pivot is exactly zero or
    the 1-norm condition estimate of H (LAPACK zgecon) exceeds COND_LIMIT,
    and DarkNode when the load-node resolvent element vanishes.
    """
    matrix = _steady_matrix(spec, loaded=False)
    n = spec.n_nodes
    load = spec.load.node
    rhs = np.zeros((n, 2), dtype=complex)
    rhs[load, 0] = 1.0
    rhs[spec.drive.node, 1] = spec.drive.rabi
    sol = _Factorization(matrix).solve(rhs)

    x = sol[:, 0]
    if abs(x[load]) <= DARK_RTOL * np.abs(x).max():
        raise DarkNode(
            f"load node {load} is decoupled at drive frequency {spec.drive.omega_d!r}"
        )
    return x, sol[:, 1]


def thevenin_equivalent(spec: NetworkSpec) -> TheveninEquivalent:
    """Both equivalent quantities from a single factorization."""
    x, y = _resolvent_pair(spec)
    load = spec.load.node
    return TheveninEquivalent(
        h_th=complex(1.0 / x[load]),
        omega_th=complex(y[load] / x[load]),
        load_node=load,
    )


def thevenin_by_elimination(spec: NetworkSpec) -> TheveninEquivalent:
    """Cross-check route: eliminate all non-load nodes one by one.

    Plain Gaussian elimination (no pivoting) on the load-free steady-state
    system, taking the load node last; the surviving scalar row is read off
    as i*omega_th = h_th * a_load. Agrees with the resolvent formulas
    whenever every pivot is nonzero; an exactly zero pivot raises
    PivotBreakdown with the offending node index.
    """
    require_valid(spec)
    n = spec.n_nodes
    load = spec.load.node
    order = [k for k in range(n) if k != load] + [load]
    matrix = _steady_matrix(spec, loaded=False)[np.ix_(order, order)].copy()
    rhs = (1j * drive_vector(spec))[order].copy()

    for k in range(n - 1):
        pivot = matrix[k, k]
        if pivot == 0:
            raise PivotBreakdown(order[k])
        factors = matrix[k + 1 :, k] / pivot
        matrix[k + 1 :, k:] -= np.outer(factors, matrix[k, k:])
        rhs[k + 1 :] -= factors * rhs[k]

    return TheveninEquivalent(
        h_th=complex(matrix[-1, -1]),
        omega_th=complex(rhs[-1] / 1j),
        load_node=load,
    )


def load_amplitude_from_thevenin(th: TheveninEquivalent, load: LoadSpec) -> complex:
    """Load-node amplitude predicted by the reduced single-node equation."""
    h_l = 1j * load.delta_omega - load.gamma_load / 2.0
    denom = th.h_th + h_l
    if denom == 0:
        raise SingularNetwork("equivalent energy exactly cancels the load term")
    return complex(1j * th.omega_th / denom)


def matched_load(spec: NetworkSpec) -> MatchedLoad:
    """Conjugate-matched load and the power it extracts.

    The optimum sits at delta_omega = -delta_omega_th, gamma_load =
    gamma_th (equivalently h_L = conj(h_th)) and delivers
    omega_d * |omega_th|^2 / gamma_th. Depends only on network parameters,
    never on the drive amplitude. Raises UnphysicalMatch when gamma_th is
    not strictly positive (no passive load attains the optimum).
    """
    th = thevenin_equivalent(spec)
    gamma_th = th.gamma_th
    if gamma_th <= 0.0 or gamma_th <= 1e-14 * abs(th.h_th):
        raise UnphysicalMatch(gamma_th)
    p_max = spec.drive.omega_d * abs(th.omega_th) ** 2 / gamma_th
    return MatchedLoad(
        delta_omega=-th.delta_omega_th,
        gamma_load=gamma_th,
        p_max=float(p_max),
        feasible=True,
    )


def load_sweep(spec, gamma_values) -> np.ndarray:
    """Delivered power and efficiency over a grid of load decay rates.

    Attaching the load h_L = i*delta_omega - gamma_load/2 is a rank-one
    change to the load-free matrix H, so every node amplitude follows from
    the two resolvent columns x = H^(-1) e_L and y = H^(-1) W of one
    factorization (Sherman-Morrison):

        a(h_L) = i*y - x * h_L * a_L,   a_L = (i*y)_L / (1 + h_L * x_L).

    a_L, the Thevenin form i*omega_th / (h_th + h_L), is used as it stands
    for the load entry; recovering it from the difference on the left
    loses the digits of |h_L * x_L|. Every point must meet the residual
    contract of the full solve, |(H + h_L e_L e_L^T) a - i*W| <=
    RESIDUAL_RTOL * |W|, and give a finite p_l, or SingularNetwork is
    raised. Returns a (len(gamma_values), 2) array of (p_l, eta) rows; eta
    is nan where no power flows. Per-point solve_amplitudes and
    power_report are the independent check of this route.
    """
    gamma_values = np.asarray(gamma_values, dtype=float)
    bad = gamma_values[~np.isfinite(gamma_values)]
    if bad.size:
        raise ValidationError(f"load gamma_load must be finite, got {float(bad[0])!r}")
    bad = gamma_values[gamma_values < 0]
    if bad.size:
        raise ValidationError(f"load decay must be >= 0: {float(bad[0])!r}")

    x, y = _resolvent_pair(spec)
    load = spec.load.node
    h_l = 1j * spec.load.delta_omega - gamma_values / 2.0
    rhs = 1j * drive_vector(spec)
    with np.errstate(all="ignore"):
        amp_load = 1j * y[load] / (1.0 + h_l * x[load])
        amps = 1j * y - np.outer(h_l * amp_load, x)
        amps[:, load] = amp_load
        residual_rows = amps @ _steady_matrix(spec, loaded=False).T - rhs
        residual_rows[:, load] += h_l * amp_load
        residual = np.linalg.norm(residual_rows, axis=1).max(initial=0.0)
        if not residual <= RESIDUAL_RTOL * np.linalg.norm(rhs):
            raise SingularNetwork(
                f"load sweep residual {residual:.3e} exceeds {RESIDUAL_RTOL:.0e} * |rhs|"
            )
        omega_d = spec.drive.omega_d
        p_l = omega_d * gamma_values * np.abs(amp_load) ** 2
        p_r = omega_d * np.sum(spec.intrinsic_decays * np.abs(amps) ** 2, axis=1)
        if not np.isfinite(p_l).all():
            first = gamma_values[~np.isfinite(p_l)][0]
            raise SingularNetwork(f"load power overflows at gamma_load = {float(first)!r}")
        total = p_l + p_r
        eta = np.where(total == 0, np.nan, p_l / total)
    return np.column_stack([p_l, eta])


# --- grid-search verification ------------------------------------------------


def load_power_map(spec, delta_values, gamma_values, chunk=2048) -> np.ndarray:
    """Delivered power from full network solves over a load-parameter grid.

    Every grid point is an independent dense solve of the complete
    steady-state system (batched for speed); nothing here relies on the
    single-node reduction, which is what makes this an oracle for it.
    Returns a (len(delta_values), len(gamma_values)) array.
    """
    delta_values = np.asarray(delta_values, dtype=float)
    gamma_values = np.asarray(gamma_values, dtype=float)
    base = _steady_matrix(spec, loaded=False)
    rhs = 1j * drive_vector(spec)
    load = spec.load.node

    h_l = (1j * delta_values[:, None] - gamma_values[None, :] / 2.0).ravel()
    amp_load = np.empty(h_l.size, dtype=complex)
    scale = np.linalg.norm(rhs)
    # One stack of full matrices for every chunk; only the [L, L] entries
    # differ between grid points, so only they are rewritten per chunk.
    stack = np.empty((min(chunk, h_l.size),) + base.shape, dtype=complex)
    stack[...] = base
    # trailing singleton keeps batched solve in matrix mode on numpy 2.x
    rhs_stack = np.broadcast_to(rhs[:, None], (stack.shape[0], rhs.size, 1))
    for start in range(0, h_l.size, chunk):
        part = h_l[start : start + chunk]
        mats = stack[: part.size]
        mats[:, load, load] = base[load, load] + part
        try:
            sols = np.linalg.solve(mats, rhs_stack[: part.size])
        except np.linalg.LinAlgError as exc:
            raise SingularNetwork(str(exc)) from None
        residuals = np.linalg.norm((mats @ sols)[..., 0] - rhs, axis=1)
        if residuals.max() > RESIDUAL_RTOL * scale:
            raise SingularNetwork(
                f"grid solve residual {residuals.max():.3e} exceeds contract"
            )
        amp_load[start : start + chunk] = sols[:, load, 0]

    power = spec.drive.omega_d * gamma_values[None, :] * np.abs(
        amp_load.reshape(delta_values.size, gamma_values.size)
    ) ** 2
    return power


@dataclass(frozen=True)
class GridCheck:
    """Outcome of the grid-search verification of a matched load."""

    predicted: MatchedLoad
    argmax_delta_omega: float
    argmax_gamma_load: float
    cell_delta: float
    cell_gamma: float
    p_grid_max: float
    within_one_cell: bool
    refined_delta_omega: float
    refined_gamma_load: float
    p_refined: float


def _solve_load_power(spec, delta_omega, gamma_load) -> float:
    from .power import load_power  # local import to avoid a cycle
    from .steady import solve_amplitudes

    probe = spec.with_load(delta_omega=delta_omega, gamma_load=gamma_load)
    return load_power(probe, solve_amplitudes(probe))


def _refine_axis(evaluate, lo, hi, rel_width=1e-9, max_iter=120):
    """Shrink [lo, hi] around the maximum of a unimodal 1-D section by
    repeated interval bisection (discard the losing third each step)."""
    span0 = hi - lo
    for _ in range(max_iter):
        if hi - lo <= rel_width * span0:
            break
        third = (hi - lo) / 3.0
        m1 = lo + third
        m2 = hi - third
        if evaluate(m1) < evaluate(m2):
            lo = m1
        else:
            hi = m2
    mid = 0.5 * (lo + hi)
    return mid, evaluate(mid)


def grid_check(spec, n_points=200, delta_window=0.1, gamma_window=0.2, refine=True) -> GridCheck:
    """Verify the matched-load prediction against brute-force search.

    Scans an n_points x n_points grid of load settings centered on the
    prediction (windows sized relative to gamma_th), locates the argmax of
    the full-solve delivered power, then optionally refines along each axis
    to pin the optimum far below grid resolution.
    """
    predicted = matched_load(spec)
    g_th = predicted.gamma_load
    deltas = np.linspace(
        predicted.delta_omega - delta_window * g_th,
        predicted.delta_omega + delta_window * g_th,
        n_points,
    )
    gammas = np.linspace(
        g_th * (1.0 - gamma_window), g_th * (1.0 + gamma_window), n_points
    )
    power = load_power_map(spec, deltas, gammas)
    i, j = np.unravel_index(int(np.argmax(power)), power.shape)
    cell_delta = deltas[1] - deltas[0]
    cell_gamma = gammas[1] - gammas[0]
    within = (
        abs(deltas[i] - predicted.delta_omega) <= cell_delta * (1 + 1e-12)
        and abs(gammas[j] - predicted.gamma_load) <= cell_gamma * (1 + 1e-12)
    )

    refined_delta, refined_gamma = float(deltas[i]), float(gammas[j])
    p_refined = float(power[i, j])
    if refine:
        refined_delta, _ = _refine_axis(
            lambda d: _solve_load_power(spec, d, gammas[j]),
            deltas[max(i - 1, 0)],
            deltas[min(i + 1, n_points - 1)],
        )
        refined_gamma, p_refined = _refine_axis(
            lambda g: _solve_load_power(spec, refined_delta, g),
            gammas[max(j - 1, 0)],
            gammas[min(j + 1, n_points - 1)],
        )

    return GridCheck(
        predicted=predicted,
        argmax_delta_omega=float(deltas[i]),
        argmax_gamma_load=float(gammas[j]),
        cell_delta=float(cell_delta),
        cell_gamma=float(cell_gamma),
        p_grid_max=float(power[i, j]),
        within_one_cell=bool(within),
        refined_delta_omega=float(refined_delta),
        refined_gamma_load=float(refined_gamma),
        p_refined=float(p_refined),
    )
