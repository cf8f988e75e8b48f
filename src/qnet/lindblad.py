"""Ground-truth solver: full density-matrix steady state in a truncated
Fock space.

This route never touches the amplitude equations. It builds the rotating
frame Hamiltonian and the loss channels as operators on the product Fock
space, vectorizes the generator, and solves for its kernel with a unit
trace constraint. Amplitudes, correlators and powers extracted from the
density matrix validate the linear solver and the factorized power
formulas from a completely independent direction.

Conventions match the amplitude equations: the load's frequency shift
enters the Hamiltonian as -delta_omega * n_load and the drive as
conj(rabi) * a_drive + rabi * adag_drive, so both routes converge to the
same steady state as the truncation grows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from .errors import CapacityError, NonUniqueSteadyState, QnetError, SingularNetwork, ValidationError
from .network import NetworkSpec, require_valid
from .power import general_power_from_correlators, input_power, load_power, radiated_power
from .steady import SteadyState, solve_amplitudes

__all__ = [
    "FockConfig",
    "DensityState",
    "build_liouvillian",
    "steady_state_density",
    "expectation_amplitude",
    "expectation_correlator",
    "factorization_residual",
    "oracle_report",
]

# Hard cap on the product Fock dimension (n_max + 1) ** nodes.
DIM_CAP = 4096


@dataclass(frozen=True)
class FockConfig:
    """Per-node occupation cutoff and node count for the truncated space."""

    n_max: int
    nodes: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValidationError(f"n_max must be >= 1, got {self.n_max}")
        if self.nodes < 1:
            raise ValidationError(f"nodes must be >= 1, got {self.nodes}")
        if self.dim > DIM_CAP:
            raise CapacityError(
                f"Fock dimension {self.dim} exceeds the cap of {DIM_CAP} "
                f"(n_max={self.n_max}, nodes={self.nodes})"
            )

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** self.nodes


@dataclass(frozen=True, eq=False)
class DensityState:
    """Steady-state density matrix plus the truncation it lives in."""

    rho: np.ndarray
    config: FockConfig

    def __post_init__(self):
        arr = np.array(self.rho, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "rho", arr)


def _annihilators(cfg: FockConfig):
    """Sparse annihilation operator for each node on the product space."""
    d = cfg.n_max + 1
    single = sp.diags(np.sqrt(np.arange(1, d)), 1, format="csr")
    ops = []
    for k in range(cfg.nodes):
        left = sp.identity(d**k, format="csr")
        right = sp.identity(d ** (cfg.nodes - k - 1), format="csr")
        ops.append(sp.kron(sp.kron(left, single), right, format="csr"))
    return ops


def _hamiltonian(spec: NetworkSpec, cfg: FockConfig, ops):
    dim = cfg.dim
    h = sp.csr_matrix((dim, dim), dtype=complex)
    for k, a_k in enumerate(ops):
        h = h + (spec.node_frequencies[k] - spec.drive.omega_d) * (a_k.conj().T @ a_k)
    for i in range(cfg.nodes):
        for j in range(i + 1, cfg.nodes):
            j_ij = spec.couplings[i, j]
            if j_ij != 0.0:
                h = h + j_ij * (ops[i].conj().T @ ops[j] + ops[j].conj().T @ ops[i])
    a_load = ops[spec.load.node]
    h = h - spec.load.delta_omega * (a_load.conj().T @ a_load)
    a_drive = ops[spec.drive.node]
    rabi = complex(spec.drive.rabi)
    h = h + np.conj(rabi) * a_drive + rabi * a_drive.conj().T
    return h


def build_liouvillian(spec: NetworkSpec, cfg: FockConfig):
    """Vectorized generator of the dissipative dynamics (sparse, column
    stacking convention: d vec(rho)/dt = L vec(rho)). Raises
    SingularNetwork when an entry overflows double precision."""
    require_valid(spec)
    if cfg.nodes != spec.n_nodes:
        raise ValidationError(
            f"FockConfig is for {cfg.nodes} nodes but the network has {spec.n_nodes}"
        )
    ops = _annihilators(cfg)
    eye = sp.identity(cfg.dim, format="csr")
    rates = np.array(spec.intrinsic_decays, dtype=float)
    rates[spec.load.node] += spec.load.gamma_load
    with np.errstate(over="ignore", invalid="ignore"):
        h = _hamiltonian(spec, cfg, ops)
        liou = -1j * (sp.kron(eye, h) - sp.kron(h.T, eye))
        for rate, a_k in zip(rates, ops):
            if rate == 0.0:
                continue
            number = a_k.conj().T @ a_k
            liou = liou + rate * (
                sp.kron(a_k.conj(), a_k)
                - 0.5 * sp.kron(eye, number)
                - 0.5 * sp.kron(number.T, eye)
            )
    liou = liou.tocsr()
    if not np.isfinite(liou.data).all():
        raise SingularNetwork("generator entries overflow double precision")
    return liou


def steady_state_density(liouvillian, cfg: FockConfig) -> DensityState:
    """Kernel of the generator with unit trace.

    Sparse LU factorization of the generator with its first row replaced
    by the trace constraint tr(rho) = 1. A degenerate kernel leaves the
    modified generator singular (NonUniqueSteadyState), and the solution
    must also satisfy the unmodified generator to a relative residual of
    1e-9 before its density-matrix invariants are checked.
    """
    dim = cfg.dim
    size = dim * dim
    if liouvillian.shape != (size, size):
        raise ValidationError(
            f"generator shape {liouvillian.shape} does not match dim {dim}"
        )

    generator = sp.csr_matrix(liouvillian)
    # the row that reads tr(rho) off vec(rho): ones at every diagonal position
    trace_row = sp.csr_matrix((np.ones(dim), np.arange(0, size, dim + 1), [0, dim]), shape=(1, size))
    modified = sp.vstack([trace_row, generator[1:]], format="csc")
    rhs = np.zeros(size, dtype=complex)
    rhs[0] = 1.0
    try:
        solution = sp.linalg.splu(modified).solve(rhs)
    except RuntimeError as exc:
        raise NonUniqueSteadyState(str(exc)) from None
    residual = np.linalg.norm(generator @ solution)
    scale = sp.linalg.norm(generator) * np.linalg.norm(solution)
    if not np.isfinite(residual) or residual > 1e-9 * scale:
        raise NonUniqueSteadyState(
            f"kernel residual {residual:.3e} too large; steady state unreliable"
        )

    rho = solution.reshape((dim, dim), order="F")

    trace_defect = abs(np.trace(rho) - 1.0)
    herm_defect = np.abs(rho - rho.conj().T).max()
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if trace_defect > 1e-8 or herm_defect > 1e-8 or min_eig < -1e-6:
        raise QnetError(
            "steady-state density matrix failed its invariants "
            f"(trace defect {trace_defect:.2e}, hermiticity defect {herm_defect:.2e}, "
            f"min eigenvalue {min_eig:.2e})"
        )
    return DensityState(rho=rho, config=cfg)


def expectation_amplitude(state: DensityState, node: int) -> complex:
    """tr(a_node rho)."""
    ops = _annihilators(state.config)
    return complex((ops[node] @ state.rho).diagonal().sum())


def expectation_correlator(state: DensityState, n: int, m: int) -> complex:
    """tr(adag_n a_m rho)."""
    ops = _annihilators(state.config)
    op = ops[n].conj().T @ ops[m]
    return complex((op @ state.rho).diagonal().sum())


def _moments(state: DensityState):
    """All first moments <a_k> and second moments <adag_n a_m>, from one
    set of annihilation operators. Returns (amps, corr)."""
    ops = _annihilators(state.config)
    amps = np.array([(a @ state.rho).diagonal().sum() for a in ops])
    corr = np.array(
        [[(a_n.conj().T @ a_m @ state.rho).diagonal().sum() for a_m in ops] for a_n in ops]
    )
    return amps, corr


def _worst_factorization_defect(amps, corr) -> float:
    # conj(a_n) a_m and the moduli in real arithmetic, which rounds as
    # numpy's scalar complex operations do; its SIMD complex loops can
    # round the last bit differently
    re = np.outer(amps.real, amps.real) + np.outer(amps.imag, amps.imag)
    im = np.outer(amps.real, amps.imag) - np.outer(amps.imag, amps.real)
    defect = np.hypot(corr.real - re, corr.imag - im)
    return float((defect / np.maximum(np.hypot(re, im), 1e-300)).max())


def factorization_residual(state: DensityState) -> float:
    """Worst relative deviation of <adag_n a_m> from <adag_n><a_m>.

    Exactly zero for a purely coherent steady state; in a truncated space
    it shrinks toward zero as the cutoff grows.
    """
    return _worst_factorization_defect(*_moments(state))


def oracle_report(spec: NetworkSpec, n_max: int) -> dict:
    """Run the density-matrix route and compare it with the amplitude route.

    Returns a dictionary with the relative amplitude discrepancy, the
    factorization residual, and power comparisons between the
    correlator-based formulas (density-matrix moments) and the factorized
    amplitude formulas (linear solve).
    """
    cfg = FockConfig(n_max=n_max, nodes=spec.n_nodes)
    state = steady_state_density(build_liouvillian(spec, cfg), cfg)
    linear = solve_amplitudes(spec)

    amps, corr = _moments(state)
    amp_scale = np.linalg.norm(linear.amplitudes)
    amp_rel = float(np.linalg.norm(amps - linear.amplitudes) / amp_scale) if amp_scale else 0.0

    p_r_oracle, p_l_oracle = general_power_from_correlators(spec, amps, corr)
    p_r_closed = radiated_power(spec, linear)
    p_l_closed = load_power(spec, linear)
    p_in_oracle = input_power(spec, SteadyState(amplitudes=amps))
    p_out = p_r_oracle + p_l_oracle

    def rel(a, b):
        return abs(a - b) / max(abs(b), 1e-300)

    return {
        "n_max": n_max,
        "dim": cfg.dim,
        "amplitude_rel_discrepancy": amp_rel,
        "factorization_residual": _worst_factorization_defect(amps, corr),
        "p_r_oracle": p_r_oracle,
        "p_l_oracle": p_l_oracle,
        "p_r_closed": p_r_closed,
        "p_l_closed": p_l_closed,
        "p_r_rel_discrepancy": rel(p_r_oracle, p_r_closed),
        "p_l_rel_discrepancy": rel(p_l_oracle, p_l_closed),
        "p_in_oracle": p_in_oracle,
        "balance_rel_residual": rel(p_in_oracle, p_out),
    }
