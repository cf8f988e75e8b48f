"""Ground-truth solver: full density-matrix steady state in a truncated
Fock space.

This route never touches the amplitude equations. It states the master
equation in no-jump/jump form, d rho/dt = S(rho) + J(rho) with
S(rho) = -i K rho + i rho K^dagger and J(rho) = sum_k r_k a_k rho adag_k,
where r_k is node k's loss rate (plus gamma_load at the load node) and the
non-Hermitian K = sum_nm k_nm adag_n a_m + conj(rabi) a_drive +
rabi adag_drive carries the Hamiltonian and the -i r_k / 2 decay of every
channel. This is the split of quantum-trajectory theory (Dalibard, Castin
and Molmer, PRL 68, 580, 1992).

It is solved in matrix form: build_liouvillian takes the Schur form of
-i K once, and steady_state_density finds the fixed point of
rho <- -S^-1(J(rho)) with unit trace, each S^-1 a triangular Sylvester
solve (Bartels and Stewart, Comm. ACM 15, 820, 1972). The tests keep a
vectorized sparse Liouvillian as the route's independent reference.
Amplitudes, correlators and powers extracted from the density matrix
validate the linear solver and the factorized power formulas from a
completely independent direction.

Conventions match the amplitude equations: the load's frequency shift
enters k_LL as -delta_omega at the load node L and the drive as
conj(rabi) * a_drive + rabi * adag_drive, so both routes converge to the
same steady state as the truncation grows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NonUniqueSteadyState, QnetError, SingularNetwork, ValidationError
from .network import NetworkSpec, _integer
from .power import _EPS, _rel, general_power_from_correlators, power_report
from .steady import SteadyState, _finite_result, _lapack, _require_decay, solve_amplitudes

__all__ = [
    "FockConfig",
    "DensityState",
    "build_liouvillian",
    "steady_state_density",
    "moments",
    "factorization_residual",
    "oracle_report",
]

# Hard cap on the product Fock dimension (n_max + 1) ** nodes: the largest
# dimension measured to finish. With one BLAS thread on a 2-CPU machine,
# oracle_report took 0.03 s at dim 64 (3 nodes, n_max = 3), 0.11 s at 125,
# 0.76 s at 256, 7.1 s at 529 and 144 s at 1024 (5 nodes, n_max = 3). Its
# Schur form and Sylvester solves grow as dim**3, so dim 4096 would take
# hours.
DIM_CAP = 1024
# steady_state_density's fixed point: it stops once no entry of rho moves by more
# than FIXED_POINT_TOL in one step, and gives up after FIXED_POINT_STEPS.
# Rounding leaves steps of 1e-16 or less on 2 to 4 nodes; a weak drive
# settles in about 7 steps, and the count grows with the mean occupation
# (44 steps at |rabi| = gamma on two nodes, 132 at 2 gamma).
FIXED_POINT_TOL = 1e-14
FIXED_POINT_STEPS = 1000


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


def _checked_density(rho, cfg: FockConfig) -> DensityState:
    """rho as a DensityState, or QnetError unless it has unit trace, is
    Hermitian and has no eigenvalue below -1e-6."""
    trace_defect = abs(np.trace(rho) - 1.0)
    herm_defect = np.abs(rho - rho.conj().T).max()
    eigs, _, info = _lapack().zheevd(0.5 * (rho + rho.conj().T), compute_v=0)
    # NaN when zheevd fails, and a test written so that NaN fails
    min_eig = float("nan") if info else float(eigs.min())
    if trace_defect > 1e-8 or herm_defect > 1e-8 or not min_eig >= -1e-6:
        raise QnetError(
            "steady-state density matrix failed its invariants "
            f"(trace defect {trace_defect:.2e}, hermiticity defect {herm_defect:.2e}, "
            f"min eigenvalue {min_eig:.2e})"
        )
    return DensityState(rho=rho, config=cfg)


def _occupations(cfg: FockConfig):
    """occ[k, i], the photon number of node k in product basis state i, and
    step[k], the index distance of one photon in node k. Node 0 varies
    slowest, as in a Kronecker product whose first factor is node 0, so a_k maps
    state i + step[k] to state i with weight sqrt(occ[k, i] + 1)."""
    d = cfg.n_max + 1
    return np.indices((d,) * cfg.nodes).reshape(cfg.nodes, cfg.dim), d ** np.arange(cfg.nodes - 1, -1, -1)


def _non_hermitian(spec: NetworkSpec, cfg: FockConfig, k) -> np.ndarray:
    """Dense K = sum_nm k_nm adag_n a_m + conj(rabi) a_drive +
    rabi adag_drive, written entry by entry from the photon numbers:
    adag_n a_m moves one photon from node m to node n, with weight
    sqrt(occ_m (occ_n + 1)), so no operator product is formed. Entries
    that overflow are left for the caller."""
    occ, step = _occupations(cfg)
    big = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    big.flat[:: cfg.dim + 1] = np.diag(k) @ occ
    for (n, m), k_nm in np.ndenumerate(k):
        if n != m and k_nm != 0.0:
            j = np.flatnonzero((occ[m] > 0) & (occ[n] < cfg.n_max))
            big[j + step[n] - step[m], j] += k_nm * np.sqrt(occ[m, j] * (occ[n, j] + 1.0))
    node, rabi = spec.drive.node, complex(spec.drive.rabi)
    j = np.flatnonzero(occ[node] > 0)
    root = np.sqrt(occ[node, j])
    big[j - step[node], j] += np.conj(rabi) * root
    big[j, j - step[node]] += rabi * root
    return big


def _jumps(rho, rates, cfg: FockConfig) -> np.ndarray:
    """J(rho) = sum_k r_k a_k rho adag_k. In the view of rho that splits
    out node k's row and column photon numbers, a_k rho adag_k is rho
    shifted down one photon on both, weighted by sqrt(n) sqrt(n')."""
    d, out = cfg.n_max + 1, np.zeros_like(rho)
    root = np.sqrt(np.arange(1.0, d))
    for k, rate in enumerate(rates):
        if rate != 0.0:
            shape = (d**k, d, d ** (cfg.nodes - k - 1)) * 2
            weight = (rate * np.outer(root, root))[:, None, None, :, None]
            out.reshape(shape)[:, :-1, :, :, :-1] += weight * rho.reshape(shape)[:, 1:, :, :, 1:]
    return out


def _frobenius(x) -> float:
    """|x|_F taken as m |x / m|_F with m = max |x_ij|: summing the squares
    of x itself overflows long before the norm does. An entry that is not
    finite gives nan, which the caller's _finite_result refuses."""
    m = np.abs(x).max(initial=0.0)
    return float(m * np.linalg.norm(x / m)) if m else 0.0


def _cutoff_bound(n_max: int) -> float:
    """Poisson probability of n_max photons at mean (n_max + 1) / 2."""
    mean = 0.5 * (n_max + 1)
    return math.exp(n_max * math.log(mean) - mean - math.lgamma(n_max + 1))


def _schur(lapack, a, name):
    """(T, eigenvalues, Z) of the Schur form a = Z T Z^dagger (LAPACK
    zgees, unsorted, so its selection callback is never called), or
    SingularNetwork when zgees fails. The oracle takes every LAPACK routine
    from _lapack(), as the solves do: numpy's own, loaded from another copy
    of the library, would add about 0.5 MiB to a cold `qnet oracle`."""
    t, _, eigs, z, _, info = lapack.zgees(lambda w: 0, a)
    if info:
        raise SingularNetwork(f"Schur factorization of {name} failed (zgees info {info})")
    return t, eigs, z


@dataclass(frozen=True, eq=False)
class _Generator:
    """S + J on one truncation for steady_state_density: the dense K, the
    loss rates r_k, the residual scale and the Schur form -iK = Z T Z^H."""

    config: FockConfig
    big: np.ndarray
    rates: np.ndarray
    scale: float
    t: np.ndarray
    z: np.ndarray


def build_liouvillian(spec: NetworkSpec, cfg: FockConfig) -> _Generator:
    """The generator S + J on cfg's truncation, from the spec's fields
    alone, as the record steady_state_density solves: the dense K and the
    Schur form A = Z T Z^dagger of A = -i K (LAPACK zgees), taken once.

    Refusals, in order: ValidationError when cfg is for another node
    count; SingularNetwork when an entry of K or a jump weight r_k n_max
    overflows double precision, or zgees fails on k or on -iK;
    NonUniqueSteadyState unless every eigenvalue of k has a negative
    imaginary part (<a> obeys d<a>/dt = -i k <a> + drive); SingularNetwork
    when steady_state_density's residual scale overflows, so that no step
    runs on entries it cannot judge.
    """
    if cfg.nodes != spec.n_nodes:
        raise ValidationError(f"FockConfig is for {cfg.nodes} nodes but the network has {spec.n_nodes}")
    lapack = _lapack()
    k, rates = _mode_matrix(spec)
    big = _finite_result(lambda: _non_hermitian(spec, cfg, k), "generator entries overflow double precision")
    _finite_result(lambda: rates * cfg.n_max, "generator entries overflow double precision")
    _require_decay(float(_schur(lapack, k, "k")[1].imag.max()), "max Im eigenvalue of k", "density-matrix oracle")
    scale = _finite_result(
        lambda: 2.0 * _frobenius(big) + cfg.n_max * rates.sum(),
        "kernel residual or its scale overflows double precision",
    )
    t, _, z = _schur(lapack, -1j * big, "-iK")
    return _Generator(config=cfg, big=big, rates=rates, scale=scale, t=t, z=z)


def steady_state_density(generator: _Generator, cfg: FockConfig) -> DensityState:
    """Steady state of S(rho) + J(rho) = 0 for build_liouvillian's record.

    Each S^-1(C) is Z Y Z^dagger with Y from the triangular Sylvester
    equation T Y + Y T^dagger = Z^dagger C Z (ztrsyl, both arguments T).
    It iterates rho <- -S^-1(J(rho)) with the trace renormalized to 1, a
    positive map whose fixed point is the kernel of S + J, until no entry
    of rho moves by more than FIXED_POINT_TOL. It starts from the vacuum:
    the no-jump evolution from it lands close to a coherent steady state
    (7 steps on two weakly driven nodes at n_max = 5 to 12, against 16 to
    30 from -S^-1(I)), and an undriven network, whose vacuum S and J both
    annihilate, stops after one.

    Refusals, in order:
    - ValidationError for anything but build_liouvillian's record for cfg;
    - CapacityError when c, the largest marginal population of a top Fock
      level, read off rho's diagonal, exceeds P(n_max), the Poisson
      probability of n_max at mean (n_max + 1) / 2: 0.25 at n_max = 2,
      0.10 at 5, 0.028 at 10. A coherent state of mean occupation mu has
      Poisson marginals, each level mu / (n + 1) times the one below, so
      the levels past n_max weigh at most c q / (1 - q) with
      q = mu / (n_max + 1), no more than c while q <= 1/2; P(n_max) grows
      with mu up to mu = n_max, so q <= 1/2 is c <= P(n_max). A drive that
      overfills the space spreads rho about evenly, c near 1 / (n_max + 1),
      above the bound at every n_max; this check comes first, so that such
      a state is refused as such;
    - NonUniqueSteadyState when the iteration has not settled after
      FIXED_POINT_STEPS steps, as for a mode that never decays but that
      rounding hides from build_liouvillian's eigenvalue test;
    - NonUniqueSteadyState when |S(rho) + J(rho)|_F exceeds 1e-9 times
      2 |K|_F + n_max sum_k r_k, which bounds both terms for any rho of
      unit trace (|rho|_F <= 1, |a_k|_2^2 = n_max);
    - QnetError when rho fails the trace, Hermiticity or positivity
      invariants.
    """
    if not isinstance(generator, _Generator):
        raise ValidationError(f"not a generator of build_liouvillian: {type(generator).__name__}")
    if generator.config != cfg:
        raise ValidationError(f"generator was built for {generator.config}, not {cfg}")
    lapack = _lapack()
    big, rates, t, z = generator.big, generator.rates, generator.t, generator.z
    zh = z.conj().T
    vacuum = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    vacuum[0, 0] = 1.0
    rho, jumps = vacuum, vacuum
    for _ in range(FIXED_POINT_STEPS):
        # the solve's scale factor and the sign of -S^-1 drop out with the trace
        y = lapack.ztrsyl(t, t, zh @ jumps @ z, tranb="C")[0]
        new = z @ (y / np.trace(y)) @ zh
        step = np.abs(new - rho).max()
        rho, jumps = new, _jumps(new, rates, cfg)
        if step <= FIXED_POINT_TOL:
            break

    occ, _ = _occupations(cfg)
    top = [rho.diagonal().real[occ[node] == cfg.n_max].sum() for node in range(cfg.nodes)]
    node = int(np.argmax(top))
    if top[node] > _cutoff_bound(cfg.n_max):
        raise CapacityError(
            f"state does not fit n_max = {cfg.n_max}: population {top[node]:.1e} at the cutoff of node {node}"
        )
    if not step <= FIXED_POINT_TOL:
        raise NonUniqueSteadyState(
            f"fixed point not reached in {FIXED_POINT_STEPS} steps (last step {step:.3e}); steady state not unique"
        )
    residual = _finite_result(
        lambda: _frobenius(-1j * (big @ rho - rho @ big.conj().T) + jumps),
        "kernel residual or its scale overflows double precision",
    )
    if residual > 1e-9 * generator.scale:
        raise NonUniqueSteadyState(f"kernel residual {residual:.3e} too large; steady state unreliable")
    return _checked_density(rho, cfg)


def moments(state: DensityState):
    """All first moments <a_k> = tr(a_k rho) and second moments
    <adag_n a_m> = tr(a_m rho adag_n) of a density state, summed straight
    from rho's entries: tr(a_m rho adag_n) is the sum over basis states i
    below the cutoff in nodes m and n of
    sqrt(occ_m + 1) sqrt(occ_n + 1) rho[i + step_m, i + step_n].
    Returns (amps, corr): a length-N complex array and an N x N complex
    array indexed [n, m]."""
    cfg, rho = state.config, state.rho
    occ, step = _occupations(cfg)
    below = occ < cfg.n_max
    amps = np.empty(cfg.nodes, dtype=complex)
    corr = np.empty((cfg.nodes, cfg.nodes), dtype=complex)
    for m in range(cfg.nodes):
        i = np.flatnonzero(below[m])
        amps[m] = np.sqrt(occ[m, i] + 1.0) @ rho[i + step[m], i]
        for n in range(cfg.nodes):
            i = np.flatnonzero(below[m] & below[n])
            corr[n, m] = np.sqrt((occ[m, i] + 1.0) * (occ[n, i] + 1.0)) @ rho[i + step[m], i + step[n]]
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
    amplitude formulas (linear solve). The density matrix comes from
    build_liouvillian and steady_state_density, which list their refusals;
    a dimension above DIM_CAP raises CapacityError.
    """
    cfg = FockConfig(n_max=n_max, nodes=spec.n_nodes)
    state = steady_state_density(build_liouvillian(spec, cfg), cfg)
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
