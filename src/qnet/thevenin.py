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

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DarkNode, PivotBreakdown, SingularNetwork, UnphysicalMatch, ValidationError
from .network import LoadSpec, NetworkSpec, _load_values
from .steady import (
    RESIDUAL_RTOL, _Factorization, _load_term, _residual_bound, drive_vector, effective_matrix,
)

__all__ = [
    "TheveninEquivalent",
    "MatchedLoad",
    "thevenin_equivalent",
    "thevenin_by_elimination",
    "load_amplitude_from_thevenin",
    "load_power_thevenin",
    "matched_load",
    "load_sweep",
    "load_power_map",
    "grid_check",
    "GridCheck",
]

# Resolvent elements smaller than this (relative to the largest element of
# the same resolvent column) count as a decoupled load node.
DARK_RTOL = 1e-14
# Bytes of full matrices that one batched solve of load_power_map holds,
# and so what each of its workers holds. The cost per point hardly depends
# on it; larger chunks only fragment the worker threads' heaps.
GRID_CHUNK_BYTES = 4 * 2**20


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


def _resolvent_pair(spec: NetworkSpec):
    """Solve H x = e_load and H y = drive vector from one LU factorization
    of the load-free matrix H.

    Returns read-only (x, y). Raises SingularNetwork when a pivot is
    exactly zero or the 1-norm condition estimate of H (LAPACK zgecon, or
    zgbcon when H is banded) exceeds COND_LIMIT, and DarkNode when the
    load-node resolvent element vanishes. Only a success is kept, in
    spec._resolvent, and returned again for that object; H does not depend
    on the load, but a with_load copy is a new object and is factored
    afresh. Only thevenin_equivalent, matched_load and load_sweep read it;
    the oracles never do.
    """
    if spec._resolvent is not None:
        return spec._resolvent
    matrix = effective_matrix(spec, loaded=False)
    n = spec.n_nodes
    load = spec.load.node
    rhs = np.zeros((n, 2), dtype=complex)
    rhs[load, 0] = 1.0
    rhs[spec.drive.node, 1] = spec.drive.rabi
    sol = _Factorization(matrix).solve(rhs)
    sol.setflags(write=False)
    x, y = sol.T

    if abs(x[load]) <= DARK_RTOL * np.abs(x).max():
        raise DarkNode(f"load node {load} is decoupled at drive frequency {spec.drive.omega_d!r}")
    object.__setattr__(spec, "_resolvent", (x, y))
    return x, y


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
    n = spec.n_nodes
    load = spec.load.node
    order = [k for k in range(n) if k != load] + [load]
    matrix = effective_matrix(spec, loaded=False)[np.ix_(order, order)].copy()
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
    denom = th.h_th + _load_term(load.delta_omega, load.gamma_load)
    if denom == 0:
        raise SingularNetwork("equivalent energy exactly cancels the load term")
    return complex(1j * th.omega_th / denom)


def load_power_thevenin(th: TheveninEquivalent, load: LoadSpec, omega_d: float) -> float:
    """Delivered power predicted by the single-node equivalent,
    omega_d * gamma_load * |a_load|^2 with a_load from the reduced equation."""
    return float(omega_d * load.gamma_load * abs(load_amplitude_from_thevenin(th, load)) ** 2)


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
    try:
        p_max = spec.drive.omega_d * abs(th.omega_th) ** 2 / gamma_th
    except OverflowError:  # float ** raises where float * returns inf
        p_max = math.inf
    if not math.isfinite(p_max):
        raise SingularNetwork(f"matched power overflows: p_max = {p_max!r}")
    return MatchedLoad(
        delta_omega=-th.delta_omega_th,
        gamma_load=gamma_th,
        p_max=float(p_max),
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
    _, gamma_values = _load_values((), gamma_values)
    x, y = _resolvent_pair(spec)
    # H is rebuilt, not kept beside x and y: an N x N copy on every spec
    # would cost more memory than the build costs time
    matrix = effective_matrix(spec, loaded=False)
    load = spec.load.node
    h_l = _load_term(spec.load.delta_omega, gamma_values)
    rhs = 1j * drive_vector(spec)
    with np.errstate(all="ignore"):
        amp_load = 1j * y[load] / (1.0 + h_l * x[load])
        amps = 1j * y - np.outer(h_l * amp_load, x)
        amps[:, load] = amp_load
        residual_rows = amps @ matrix.T - rhs
        residual_rows[:, load] += h_l * amp_load
        residual = np.linalg.norm(residual_rows, axis=1).max(initial=0.0)
        if not residual <= _residual_bound(np.linalg.norm(rhs)):
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


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def load_power_map(spec, delta_values, gamma_values) -> np.ndarray:
    """Delivered power from full network solves over a load-parameter grid.

    Every grid point is an independent dense solve of the complete
    steady-state system (batched for speed); nothing here relies on the
    single-node reduction, which is what makes this an oracle for it.
    Returns a (len(delta_values), len(gamma_values)) array. Load values
    are checked as load_sweep checks them; a grid point that misses the
    residual contract or whose power overflows raises SingularNetwork.

    The grid is solved in chunks of at most GRID_CHUNK_BYTES of matrices
    (one matrix when a single one is larger), spread over the usable
    CPUs. The calling thread takes one share and every other share gets a
    thread, so a grid of one chunk starts none. Each point's solve is the
    same whichever thread makes it, so the map does not depend on the
    split; when chunks fail, the first failing one in grid order raises.
    """
    delta_values, gamma_values = _load_values(delta_values, gamma_values)
    base = effective_matrix(spec, loaded=False)
    rhs = 1j * drive_vector(spec)
    load = spec.load.node
    with np.errstate(all="ignore"):
        bound = _residual_bound(np.linalg.norm(rhs))

    h_l = _load_term(delta_values[:, None], gamma_values[None, :]).ravel()
    amp_load = np.empty(h_l.size, dtype=complex)
    chunk = max(1, GRID_CHUNK_BYTES // base.nbytes)
    starts = range(0, h_l.size, chunk)
    workers = max(1, min(_usable_cpus(), len(starts)))
    errors = [None] * len(starts)

    def solve_chunks(first):
        """Solve chunks first, first + workers, ... in turn, stopping at
        the first failure, whose error is kept at its chunk's index."""
        index = first
        try:
            # One stack of full matrices per worker; only the [L, L]
            # entries differ between grid points, so only they are
            # rewritten per chunk.
            stack = np.empty((min(chunk, h_l.size),) + base.shape, dtype=complex)
            stack[...] = base
            # trailing singleton keeps batched solve in matrix mode on numpy 2.x
            rhs_stack = np.broadcast_to(rhs[:, None], (stack.shape[0], rhs.size, 1))
            # errstate is per thread, so each worker sets its own
            with np.errstate(all="ignore"):
                for index in range(first, len(starts), workers):
                    part = h_l[starts[index] : starts[index] + chunk]
                    mats = stack[: part.size]
                    mats[:, load, load] = base[load, load] + part
                    try:
                        sols = np.linalg.solve(mats, rhs_stack[: part.size])
                    except np.linalg.LinAlgError as exc:
                        raise SingularNetwork(str(exc)) from None
                    residual = np.linalg.norm((mats @ sols)[..., 0] - rhs, axis=1).max()
                    if not residual <= bound:
                        raise SingularNetwork(f"grid solve residual {residual:.3e} exceeds contract")
                    amp_load[starts[index] : starts[index] + chunk] = sols[:, load, 0]
        except Exception as exc:  # raised again below, by the calling thread
            errors[index] = exc

    threads = []
    try:
        for first in range(1, workers):
            thread = threading.Thread(target=solve_chunks, args=(first,))
            thread.start()
            threads.append(thread)
        solve_chunks(0)
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error

    with np.errstate(all="ignore"):
        power = spec.drive.omega_d * gamma_values[None, :] * np.abs(
            amp_load.reshape(delta_values.size, gamma_values.size)
        ) ** 2
    if not np.isfinite(power).all():
        raise SingularNetwork("grid load power overflows")
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


def _refine_axis(evaluate, lo, hi):
    """Shrink [lo, hi] around the maximum of a unimodal 1-D section by
    ternary search (discard the losing third each step) until it is
    1e-9 of its first width, or for at most 120 steps. `evaluate` maps an
    array of positions to the powers there, so both interior points of a
    step cost one batched call."""
    span0 = hi - lo
    for _ in range(120):
        if hi - lo <= 1e-9 * span0:
            break
        third = (hi - lo) / 3.0
        m1 = lo + third
        m2 = hi - third
        p1, p2 = evaluate([m1, m2])
        if p1 < p2:
            lo = m1
        else:
            hi = m2
    mid = 0.5 * (lo + hi)
    return mid, evaluate([mid])[0]


def grid_check(spec, n_points=200) -> GridCheck:
    """Verify the matched-load prediction against brute-force search.

    Scans an n_points x n_points grid of load settings centered on the
    prediction, delta_omega within +-0.1 * gamma_th and gamma_load within
    (1 +- 0.2) * gamma_th, locates the argmax of the full-solve delivered
    power, then refines along each axis to pin the optimum far below grid
    resolution. Every brute-force number, refinement included, comes from
    load_power_map's full solves, none from solve_amplitudes.
    """
    if not n_points >= 2:
        raise ValidationError(f"need n_points >= 2, got {n_points}")
    predicted = matched_load(spec)
    g_th = predicted.gamma_load
    deltas = np.linspace(
        predicted.delta_omega - 0.1 * g_th, predicted.delta_omega + 0.1 * g_th, n_points
    )
    gammas = np.linspace(g_th * (1.0 - 0.2), g_th * (1.0 + 0.2), n_points)
    power = load_power_map(spec, deltas, gammas)
    i, j = np.unravel_index(int(np.argmax(power)), power.shape)
    cell_delta = deltas[1] - deltas[0]
    cell_gamma = gammas[1] - gammas[0]
    within = (
        abs(deltas[i] - predicted.delta_omega) <= cell_delta * (1 + 1e-12)
        and abs(gammas[j] - predicted.gamma_load) <= cell_gamma * (1 + 1e-12)
    )

    refined_delta, _ = _refine_axis(
        lambda d: load_power_map(spec, d, gammas[j : j + 1])[:, 0],
        deltas[max(i - 1, 0)],
        deltas[min(i + 1, n_points - 1)],
    )
    refined_gamma, p_refined = _refine_axis(
        lambda g: load_power_map(spec, [refined_delta], g)[0],
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
