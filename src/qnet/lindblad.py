"""Ground-truth solver: full density-matrix steady state in a truncated
Fock space.

This route never touches the amplitude equations. It states the master
equation in no-jump/jump form, d rho/dt = S(rho) + J(rho) with
S(rho) = -i K rho + i rho K^dagger and J(rho) = sum_k r_k a_k rho adag_k,
where r_k is node k's loss rate (plus gamma_load at the load node) and the
non-Hermitian K = sum_nm k_nm adag_n a_m + conj(rabi) a_drive +
rabi adag_drive carries the Hamiltonian and the -i r_k / 2 decay of every
channel. It vectorizes the generator on the product Fock space and solves
for its kernel with a unit trace constraint. Amplitudes, correlators and
powers extracted from the density matrix validate the linear solver and
the factorized power formulas from a completely independent direction.

Conventions match the amplitude equations: the load's frequency shift
enters k_LL as -delta_omega at the load node L and the drive as
conj(rabi) * a_drive + rabi * adag_drive, so both routes converge to the
same steady state as the truncation grows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# scipy.sparse is imported inside the functions that use it, so that
# `import qnet` and the commands that build no generator start without it.

from .errors import CapacityError, NonUniqueSteadyState, QnetError, ValidationError
from .network import NetworkSpec, _integer
from .power import _EPS, _rel, general_power_from_correlators, power_report
from .steady import SteadyState, _finite_result, _require_decay, solve_amplitudes

__all__ = [
    "FockConfig",
    "DensityState",
    "build_liouvillian",
    "steady_state_density",
    "moments",
    "factorization_residual",
    "oracle_report",
]

# Hard cap on the product Fock dimension (n_max + 1) ** nodes. It bounds
# the dimension, not the solve time: on a 2-CPU machine, splu of the
# dim**2-sized generator takes about 0.05 s at dim 36 and 1.1 to 2.0 s at
# dim 64 (3 nodes, n_max = 3), and took 92 s at dim 125 (n_max = 4).
DIM_CAP = 4096


@dataclass(frozen=True)
class FockConfig:
    """Per-node occupation cutoff and node count for the truncated space,
    both integers."""

    n_max: int
    nodes: int

    def __post_init__(self):
        object.__setattr__(self, "n_max", _integer("n_max", self.n_max, 1))
        object.__setattr__(self, "nodes", _integer("nodes", self.nodes, 1))
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
    import scipy.sparse as sp

    d = cfg.n_max + 1
    single = sp.diags(np.sqrt(np.arange(1, d)), 1, format="csr")
    ops = []
    for k in range(cfg.nodes):
        left = sp.identity(d**k, format="csr")
        right = sp.identity(d ** (cfg.nodes - k - 1), format="csr")
        ops.append(sp.kron(sp.kron(left, single), right, format="csr"))
    return ops


def _mode_matrix(spec: NetworkSpec):
    """The N x N matrix k of K's sum_nm k_nm adag_n a_m, and the loss
    rates r. k holds the detunings less i r_n / 2 on its diagonal and the
    couplings off it; entries that overflow are left for the caller."""
    rates = np.array(spec.intrinsic_decays, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        rates[spec.load.node] += spec.load.gamma_load
        k = np.array(spec.couplings, dtype=complex)
        np.fill_diagonal(k, spec.node_frequencies - spec.drive.omega_d - 0.5j * rates)
        k[spec.load.node, spec.load.node] -= spec.load.delta_omega
    return k, rates


def build_liouvillian(spec: NetworkSpec, cfg: FockConfig):
    """Vectorized generator of the dissipative dynamics (sparse, column
    stacking convention: d vec(rho)/dt = L vec(rho)), in no-jump/jump form
    L = -i (I (x) K) + i (conj(K) (x) I) + sum_k r_k (conj(a_k) (x) a_k).
    Raises SingularNetwork when an entry overflows double precision."""
    import scipy.sparse as sp

    if cfg.nodes != spec.n_nodes:
        raise ValidationError(f"FockConfig is for {cfg.nodes} nodes but the network has {spec.n_nodes}")
    ops = _annihilators(cfg)
    eye = sp.identity(cfg.dim, format="csr")
    k, rates = _mode_matrix(spec)
    a_drive = ops[spec.drive.node]
    rabi = complex(spec.drive.rabi)
    with np.errstate(over="ignore", invalid="ignore"):
        non_hermitian = np.conj(rabi) * a_drive + rabi * a_drive.conj().T
        for (n, m), k_nm in np.ndenumerate(k):
            if k_nm != 0.0:
                non_hermitian = non_hermitian + k_nm * (ops[n].conj().T @ ops[m])
        liou = -1j * sp.kron(eye, non_hermitian) + 1j * sp.kron(non_hermitian.conj(), eye)
        for rate, a_k in zip(rates, ops):
            if rate != 0.0:
                liou = liou + rate * sp.kron(a_k.conj(), a_k)
    liou = liou.tocsr()
    _finite_result(lambda: liou.data, "generator entries overflow double precision")
    return liou


def steady_state_density(liouvillian, cfg: FockConfig) -> DensityState:
    """Kernel of the generator with unit trace.

    Sparse LU factorization of the generator with its first row replaced
    by the trace constraint tr(rho) = 1. A degenerate kernel leaves the
    modified generator singular (NonUniqueSteadyState), and the solution
    must also satisfy the unmodified generator to a relative residual of
    1e-9 before its density-matrix invariants are checked. A residual or
    scale norm that overflows double precision raises SingularNetwork.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg

    dim = cfg.dim
    size = dim * dim
    if liouvillian.shape != (size, size):
        raise ValidationError(f"generator shape {liouvillian.shape} does not match dim {dim}")

    # complex even for a real generator: splu factors a real matrix as real
    # and then cannot solve for the complex right-hand side
    generator = sp.csr_matrix(liouvillian, dtype=complex)
    # the row that reads tr(rho) off vec(rho): ones at every diagonal position
    trace_row = sp.csr_matrix((np.ones(dim), np.arange(0, size, dim + 1), [0, dim]), shape=(1, size))
    modified = sp.vstack([trace_row, generator[1:]], format="csc")
    rhs = np.zeros(size, dtype=complex)
    rhs[0] = 1.0
    try:
        solution = sp.linalg.splu(modified).solve(rhs)
    except RuntimeError as exc:
        raise NonUniqueSteadyState(str(exc)) from None
    # both norms sum squares, which overflow before the norms themselves do
    residual, scale = _finite_result(
        lambda: (np.linalg.norm(generator @ solution), sp.linalg.norm(generator) * np.linalg.norm(solution)),
        "kernel residual or its scale overflows double precision",
    )
    if residual > 1e-9 * scale:
        raise NonUniqueSteadyState(f"kernel residual {residual:.3e} too large; steady state unreliable")

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


def moments(state: DensityState):
    """All first moments <a_k> = tr(a_k rho) and second moments
    <adag_n a_m> = tr(adag_n a_m rho) of a density state, from one set of
    annihilation operators. Returns (amps, corr): a length-N complex array
    and an N x N complex array indexed [n, m]."""
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
    return float((defect / np.maximum(np.hypot(re, im), _EPS)).max())


def factorization_residual(state: DensityState) -> float:
    """Worst relative deviation of <adag_n a_m> from <adag_n><a_m>.

    Exactly zero for a purely coherent steady state; in a truncated space
    it shrinks toward zero as the cutoff grows.
    """
    return _worst_factorization_defect(*moments(state))


def oracle_report(spec: NetworkSpec, n_max: int) -> dict:
    """Run the density-matrix route and compare it with the amplitude route.

    Returns a dictionary with the relative amplitude discrepancy, the
    factorization residual, and power comparisons between the
    correlator-based formulas (density-matrix moments) and the factorized
    amplitude formulas (linear solve). Raises NonUniqueSteadyState for a
    network with a mode that never decays.
    """
    cfg = FockConfig(n_max=n_max, nodes=spec.n_nodes)
    liouvillian = build_liouvillian(spec, cfg)
    # <a> obeys d<a>/dt = -i k <a> + drive, so the modes all decay only
    # when every eigenvalue of k has a negative imaginary part
    alpha = float(np.linalg.eigvals(_mode_matrix(spec)[0]).imag.max())
    _require_decay(alpha, "max Im eigenvalue of k", "density-matrix oracle")
    state = steady_state_density(liouvillian, cfg)
    linear = solve_amplitudes(spec)

    amps, corr = moments(state)
    amp_scale = np.linalg.norm(linear.amplitudes)
    amp_rel = float(np.linalg.norm(amps - linear.amplitudes) / amp_scale) if amp_scale else 0.0

    p_r_oracle, p_l_oracle = general_power_from_correlators(spec, amps, corr)
    closed = power_report(spec, linear)
    p_in_oracle = power_report(spec, SteadyState(amplitudes=amps)).p_in
    p_out = p_r_oracle + p_l_oracle

    return {
        "n_max": cfg.n_max,
        "dim": cfg.dim,
        "amplitude_rel_discrepancy": amp_rel,
        "factorization_residual": _worst_factorization_defect(amps, corr),
        "p_r_oracle": p_r_oracle,
        "p_l_oracle": p_l_oracle,
        "p_r_closed": closed.p_r,
        "p_l_closed": closed.p_l,
        "p_r_rel_discrepancy": _rel(p_r_oracle, closed.p_r),
        "p_l_rel_discrepancy": _rel(p_l_oracle, closed.p_l),
        "p_in_oracle": p_in_oracle,
        "balance_rel_residual": _rel(p_in_oracle, p_out),
    }
