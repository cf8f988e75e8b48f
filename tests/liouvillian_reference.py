"""Independent reference for the density-matrix oracle: the generator
vectorized on the product Fock space and its kernel solved by sparse LU.

qnet solves the master equation in matrix form (qnet.build_liouvillian and
qnet.steady_state_density). This module states the same generator as one
sparse matrix, in the column-stacking convention d vec(rho)/dt =
L vec(rho), built from Kronecker products of the annihilation operators,
and finds its kernel with a trace constraint. It shares with the matrix
form only the mode matrix k and the loss rates read off the spec
(qnet.lindblad._mode_matrix), which the term-by-term master equation of
test_lindblad.py checks for both routes, and the density-matrix
invariants (qnet.lindblad._checked_density). qnet never imports it.
"""
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from qnet import lindblad
from qnet.errors import NonUniqueSteadyState, ValidationError
from qnet.steady import _finite_result


def annihilators(cfg):
    """Sparse annihilation operator for each node on the product space."""
    d = cfg.n_max + 1
    single = sp.diags(np.sqrt(np.arange(1, d)), 1, format="csr")
    ops = []
    for k in range(cfg.nodes):
        left = sp.identity(d**k, format="csr")
        right = sp.identity(d ** (cfg.nodes - k - 1), format="csr")
        ops.append(sp.kron(sp.kron(left, single), right, format="csr"))
    return ops


def build_liouvillian(spec, cfg):
    """Vectorized generator of the dissipative dynamics (sparse, column
    stacking convention: d vec(rho)/dt = L vec(rho)), in no-jump/jump form
    L = -i (I (x) K) + i (conj(K) (x) I) + sum_k r_k (conj(a_k) (x) a_k).
    Raises SingularNetwork when an entry overflows double precision."""
    if cfg.nodes != spec.n_nodes:
        raise ValidationError(f"FockConfig is for {cfg.nodes} nodes but the network has {spec.n_nodes}")
    ops = annihilators(cfg)
    eye = sp.identity(cfg.dim, format="csr")
    k, rates = lindblad._mode_matrix(spec)
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


def steady_state_density(liouvillian, cfg):
    """Kernel of the generator with unit trace.

    Sparse LU factorization of the generator with its first row replaced
    by the trace constraint tr(rho) = 1. A degenerate kernel leaves the
    modified generator singular (NonUniqueSteadyState), and the solution
    must also satisfy the unmodified generator to a relative residual of
    1e-9 before its density-matrix invariants are checked. A residual or
    scale norm that overflows double precision raises SingularNetwork.
    """
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

    return lindblad._checked_density(solution.reshape((dim, dim), order="F"), cfg)

