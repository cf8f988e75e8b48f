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

import os
from dataclasses import dataclass

import numpy as np

from .errors import DarkNode, SingularNetwork, UnphysicalMatch, ValidationError
from .network import LoadSpec, NetworkSpec, _drive_frequency, _grid, _load_values
from .power import _powers
from .steady import (
    _Factorization, _finite_result, _load_term, _require_residual, _residual_bound, drive_vector,
    effective_matrix,
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
# Bytes of full matrices per batched solve of load_power_map: the map holds
# at most workers x this, whatever the grid; the cost per point hardly moves.
GRID_CHUNK_BYTES = 4 * 2**20
# Points per axis of grid_check's brute-force grid.
GRID_POINTS = 200


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
    zgbcon when H is banded) exceeds COND_LIMIT, DarkNode when the
    load-node resolvent element vanishes, and SingularNetwork when h_th or
    omega_th overflows double precision. Only a success is kept, in
    spec._resolvent, and returned again for that object; H does not depend
    on the load, but a with_load copy is a new object and is factored
    afresh. Only thevenin_equivalent, matched_load and load_sweep read it;
    the oracles never do.
    """
    if spec._resolvent is not None:
        return spec._resolvent
    matrix = effective_matrix(spec, loaded=False)
    load = spec.load.node
    rhs = np.zeros((spec.n_nodes, 2), dtype=complex)
    rhs[load, 0] = 1.0
    rhs[:, 1] = drive_vector(spec)
    sol = _Factorization(matrix).solve(rhs)
    sol.setflags(write=False)
    x, y = sol.T

    if abs(x[load]) <= DARK_RTOL * np.abs(x).max():
        raise DarkNode(f"load node {load} is decoupled at drive frequency {spec.drive.omega_d!r}")
    _finite_result(lambda: (1.0 / x[load], y[load] / x[load]), "h_th or omega_th overflows double precision")
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
    """Cross-check route: eliminate all non-load nodes in one block.

    The load-free steady-state system H a = i*W is reduced to the load
    node by a Schur complement, solving the non-load block with numpy's
    LU (partial pivoting) against both the load column of H and the drive;
    the surviving scalar row is read off as i*omega_th = h_th * a_load.
    It never reads the resolvent pair. An exactly singular non-load block
    raises SingularNetwork, as does h_th or omega_th overflowing double
    precision.
    """
    load = spec.load.node
    matrix = effective_matrix(spec, loaded=False)
    rhs = 1j * drive_vector(spec)
    rest = np.arange(spec.n_nodes) != load

    def eliminate():
        try:
            block = np.linalg.solve(matrix[rest][:, rest], np.column_stack([matrix[rest, load], rhs[rest]]))
        except np.linalg.LinAlgError as exc:
            raise SingularNetwork(str(exc)) from None
        row = matrix[load, rest]
        return complex(matrix[load, load] - row @ block[:, 0]), complex((rhs[load] - row @ block[:, 1]) / 1j)

    h_th, omega_th = _finite_result(eliminate, "elimination h_th or omega_th overflows double precision")
    return TheveninEquivalent(h_th=h_th, omega_th=omega_th, load_node=load)


def load_amplitude_from_thevenin(th: TheveninEquivalent, load: LoadSpec) -> complex:
    """Load-node amplitude predicted by the reduced single-node equation.
    Raises ValidationError when the load sits on another node than th's."""
    if load.node != th.load_node:
        raise ValidationError(f"load on node {load.node}, but the equivalent is of node {th.load_node}")
    denom = th.h_th + _load_term(load.delta_omega, load.gamma_load)
    if denom == 0:
        raise SingularNetwork("equivalent energy exactly cancels the load term")
    return complex(1j * th.omega_th / denom)


def load_power_thevenin(th: TheveninEquivalent, load: LoadSpec, omega_d: float) -> float:
    """Delivered power predicted by the single-node equivalent,
    omega_d * gamma_load * |a_load|^2 with a_load from the reduced equation.
    Raises ValidationError for an omega_d that DriveSpec refuses and
    SingularNetwork when that power overflows double precision."""
    omega_d = _drive_frequency(omega_d)
    amp_load = load_amplitude_from_thevenin(th, load)
    p_l = _finite_result(
        lambda: omega_d * load.gamma_load * abs(amp_load) ** 2, "reduced load power overflows: p_l = {!r}"
    )
    return float(p_l)


def matched_load(spec: NetworkSpec) -> MatchedLoad:
    """Conjugate-matched load and the power it extracts.

    The optimum sits at delta_omega = -delta_omega_th, gamma_load =
    gamma_th (equivalently h_L = conj(h_th)) and delivers
    omega_d * |omega_th|^2 / gamma_th. Depends only on network parameters,
    never on the drive amplitude. Raises UnphysicalMatch when gamma_th <=
    1e-14 * |h_th|, zero up to rounding (no passive load attains the optimum).
    """
    th = thevenin_equivalent(spec)
    gamma_th = th.gamma_th
    floor = 1e-14 * abs(th.h_th)
    if gamma_th <= floor:
        raise UnphysicalMatch(gamma_th, floor)
    p_max = _finite_result(
        lambda: spec.drive.omega_d * abs(th.omega_th) ** 2 / gamma_th, "matched power overflows: p_max = {!r}"
    )
    return MatchedLoad(delta_omega=-th.delta_omega_th, gamma_load=gamma_th, p_max=float(p_max))


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
    contract of the full solve on |(H + h_L e_L e_L^T) a - i*W| and give
    finite powers, as power_report demands of one state, or
    SingularNetwork is raised. gamma_values is a number
    (one point) or a 1-D grid. Returns a (len(gamma_values), 2) array of
    (p_l, eta) rows; eta is nan where no power flows. Per-point
    solve_amplitudes and power_report are the independent check of this
    route.
    """
    _, gamma_values = _load_values((), gamma_values)
    gamma_values = _grid("load gamma_load", gamma_values)
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
    _require_residual(residual, _residual_bound(rhs), "load sweep residual")
    _, _, p_l, eta, _ = _powers(spec, amps, gamma_values)
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
    Returns a (len(delta_values), len(gamma_values)) array. Each axis is a
    number (one point) or a 1-D grid, and its values are checked as
    load_sweep checks them; a grid point that misses the residual contract
    or whose power overflows raises SingularNetwork.

    The grid is solved in chunks of at most GRID_CHUNK_BYTES of matrices
    (one matrix when a single one is larger). A thread pool of one worker
    per usable CPU, or per chunk if fewer, maps them in grid order; one
    chunk or one CPU runs on the calling thread and starts no thread. A
    chunk taken after a chunk before it in grid order has raised returns
    unsolved, so no solve of a later chunk starts after a failure. The map
    thus holds at most workers x GRID_CHUNK_BYTES of matrices, raises the
    first failing chunk in grid order and returns the same bits as a
    serial loop.
    """
    from concurrent.futures import ThreadPoolExecutor

    delta_values, gamma_values = _load_values(delta_values, gamma_values)
    delta_values = _grid("load delta_omega", delta_values)
    gamma_values = _grid("load gamma_load", gamma_values)
    base = effective_matrix(spec, loaded=False)
    rhs = 1j * drive_vector(spec)
    load = spec.load.node
    bound = _residual_bound(rhs)

    h_l = _load_term(delta_values[:, None], gamma_values[None, :]).ravel()
    amp_load = np.empty((delta_values.size, gamma_values.size), dtype=complex)
    chunk = max(1, GRID_CHUNK_BYTES // base.nbytes)
    starts = range(0, h_l.size, chunk)
    workers = min(_usable_cpus(), len(starts))
    # one stack of full matrices per worker, lent to one chunk at a time and
    # made on this thread: stacks freed by pool threads stay in their heaps
    stacks = [np.repeat(base[None], min(chunk, h_l.size), axis=0) for _ in range(workers)]
    failed = []  # starts of the chunks that raised

    def solve_chunk(start):
        if failed and start > min(failed):  # the map raises before this chunk
            return
        part = h_l[start : start + chunk]
        stack = stacks.pop()
        mats = stack[: part.size]
        mats[:, load, load] = base[load, load] + part
        # errstate is per thread, so each chunk sets its own; the trailing
        # singleton keeps batched solve in matrix mode on numpy 2.x
        with np.errstate(all="ignore"):
            try:
                sols = np.linalg.solve(mats, np.broadcast_to(rhs[:, None], (part.size, rhs.size, 1)))
                residual = np.linalg.norm((mats @ sols)[..., 0] - rhs, axis=1).max()
                _require_residual(residual, bound, "grid solve residual")
            except BaseException as exc:
                failed.append(start)
                if isinstance(exc, np.linalg.LinAlgError):
                    raise SingularNetwork(str(exc)) from None
                raise
            finally:
                stacks.append(stack)
        amp_load.flat[start : start + chunk] = sols[:, load, 0]

    if workers < 2:
        list(map(solve_chunk, starts))
    else:
        # pool.map reads the chunks in grid order and, once one raises,
        # cancels those no worker has taken; leaving the block joins the pool
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(solve_chunk, starts))

    return _finite_result(
        lambda: spec.drive.omega_d * gamma_values * np.abs(amp_load) ** 2, "grid load power overflows"
    )


@dataclass(frozen=True)
class GridCheck:
    """Outcome of the grid-search verification of a matched load: the
    argmax of the main grid and, as refined_* and p_refined, the argmax of
    the last nested grid."""

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


def grid_check(spec) -> GridCheck:
    """Verify the matched-load prediction against brute-force search.

    Scans a GRID_POINTS x GRID_POINTS grid of load settings centered on the
    prediction, delta_omega within +-0.1 * gamma_th and gamma_load within
    (1 +- 0.2) * gamma_th, locates the argmax of the full-solve delivered
    power, then refines it on nested 5 x 5 grids, each over the cells
    either side of the last argmax (clipped at the ends), until both axes
    span at most 1e-9 of two main-grid cells or for at most 60 grids.
    Every brute-force number, refinement included, comes from
    load_power_map's full solves, none from solve_amplitudes. When
    p_max = 0, a map that is zero everywhere counts as within one cell,
    since every cell is then a maximum, not only the first that argmax picks.
    """
    predicted = matched_load(spec)
    g_th = predicted.gamma_load
    deltas = np.linspace(
        predicted.delta_omega - 0.1 * g_th, predicted.delta_omega + 0.1 * g_th, GRID_POINTS
    )
    gammas = np.linspace(g_th * (1.0 - 0.2), g_th * (1.0 + 0.2), GRID_POINTS)
    power = load_power_map(spec, deltas, gammas)
    i, j = np.unravel_index(int(np.argmax(power)), power.shape)
    cell_delta = deltas[1] - deltas[0]
    cell_gamma = gammas[1] - gammas[0]
    within = (
        abs(deltas[i] - predicted.delta_omega) <= cell_delta * (1 + 1e-12)
        and abs(gammas[j] - predicted.gamma_load) <= cell_gamma * (1 + 1e-12)
    ) or (predicted.p_max == 0 and not power.any())

    d, g, a, b = deltas, gammas, i, j
    for _ in range(60):
        d = np.linspace(d[max(a - 1, 0)], d[min(a + 1, d.size - 1)], 5)
        g = np.linspace(g[max(b - 1, 0)], g[min(b + 1, g.size - 1)], 5)
        p = load_power_map(spec, d, g)
        a, b = np.unravel_index(int(np.argmax(p)), p.shape)
        if d[-1] - d[0] <= 2e-9 * cell_delta and g[-1] - g[0] <= 2e-9 * cell_gamma:
            break

    return GridCheck(
        predicted=predicted,
        argmax_delta_omega=float(deltas[i]),
        argmax_gamma_load=float(gammas[j]),
        cell_delta=float(cell_delta),
        cell_gamma=float(cell_gamma),
        p_grid_max=float(power[i, j]),
        within_one_cell=bool(within),
        refined_delta_omega=float(d[a]),
        refined_gamma_load=float(g[b]),
        p_refined=float(p[a, b]),
    )
