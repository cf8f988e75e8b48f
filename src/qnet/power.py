"""The power report (input, radiated and delivered power and the efficiency
eta), the correlator form and the closed-form two-node efficiency.

In steady state the drive feeds exactly what the losses and the load
dissipate: p_in = p_r + p_l. The input power is evaluated in the rotating
frame as p_in = -2 * omega_d * Im(conj(rabi) * a_drive); with this form
the balance holds for complex drive amplitudes as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMoments, SingularNetwork, UnsupportedTopology, ValidationError
from .network import NetworkSpec
from .steady import SteadyState, _undriven_matrix, effective_matrix

__all__ = [
    "PowerReport",
    "general_power_from_correlators",
    "matched_efficiency_two_node",
    "power_report",
]

# Zero floor of a scale that may vanish: the nonreal power parts here,
# _rel and lindblad's factorization defect divide by at least this.
_EPS = 1e-300


@dataclass(frozen=True)
class PowerReport:
    """Steady-state power bookkeeping. eta is None when nothing flows.
    balance_residual is |p_in - p_r - p_l| relative to the size of the
    terms, 2 * omega_d * |rabi| * |a_drive| + p_r + p_l, and 0.0 when they
    all vanish. The size, not p_in, is the scale: a drive that does no net
    work leaves p_in as a rounding-level remainder of either sign."""

    p_in: float
    p_r: float
    p_l: float
    eta: float | None
    balance_residual: float


def general_power_from_correlators(spec, first_moments, second_moments):
    """Radiated and delivered power from first and second moments.

    Valid for any state, factorized or not:

        p_r = 1/2 sum_{nm} (gamma_n + gamma_m) [w_nm <adag_n a_m>
                                                + D_nm <adag_n><a_m>]

    with D_nm = delta_nm * omega_d - w_nm, and p_l the same with the load
    rates. For factorized moments this collapses to the amplitude formulas
    because w_nm + D_nm = delta_nm * omega_d. Raises InvalidMoments when a
    moment is not a finite number, when second_moments is not Hermitian to
    1e-10 (relative) or when the results keep a nonreal part beyond tolerance.
    """
    moments = {"first_moments": first_moments, "second_moments": second_moments}
    for name, values in moments.items():
        try:
            moments[name] = np.asarray(values, dtype=complex)
        except (TypeError, ValueError):  # strings, ragged lists
            raise InvalidMoments(f"{name} must be complex numbers") from None
    amps, corr = moments.values()
    n = spec.n_nodes
    if amps.shape != (n,) or corr.shape != (n, n):
        raise InvalidMoments(
            f"moment shapes {amps.shape}, {corr.shape} do not fit {n} nodes"
        )
    for name, moments in (("first", amps), ("second", corr)):
        if not np.isfinite(moments).all():
            raise InvalidMoments(f"{name} moments must be finite")
    herm_defect = np.abs(corr - corr.conj().T).max()
    # both checks are written this way round so that a nan from overflow fails them
    if not herm_defect <= 1e-10 * max(1.0, np.abs(corr).max()):
        raise InvalidMoments(f"second moments not Hermitian (defect {herm_defect:.3e})")

    w = _undriven_matrix(spec).real
    delta = spec.drive.omega_d * np.eye(n) - w
    pair = w * corr + delta * np.outer(amps.conj(), amps)

    gamma = spec.intrinsic_decays
    gamma_sum = gamma[:, None] + gamma[None, :]
    g_load = np.zeros(n)
    g_load[spec.load.node] = spec.load.gamma_load
    load_sum = g_load[:, None] + g_load[None, :]

    p_r = 0.5 * np.sum(gamma_sum * pair)
    p_l = 0.5 * np.sum(load_sum * pair)
    scale = max(abs(p_r), abs(p_l), _EPS)
    if not max(abs(p_r.imag), abs(p_l.imag)) <= 1e-10 * scale:
        raise InvalidMoments(
            f"power has a nonreal part ({p_r.imag:.3e}, {p_l.imag:.3e}) beyond tolerance"
        )
    return float(p_r.real), float(p_l.real)


def matched_efficiency_two_node(spec: NetworkSpec) -> float:
    """Closed-form efficiency for a two-node network, drive on node 0 and
    load on node 1:

        eta = gamma_load / (F*gamma_0 + gamma_1 + gamma_load),
        F   = |h_11 + h_L|^2 / |h_01|^2.

    Exact for any parameters (it is the full solve reduced by hand). For a
    strong inter-node coupling F -> 0 and the load competes only with the
    load node's own loss.
    """
    if spec.n_nodes != 2 or spec.drive.node != 0 or spec.load.node != 1:
        raise UnsupportedTopology(
            "closed-form efficiency needs exactly two nodes with the drive "
            "on node 0 and the load on node 1"
        )
    matrix = effective_matrix(spec)
    coupling = matrix[0, 1]
    if coupling == 0:
        return 0.0
    factor = abs(matrix[1, 1]) ** 2 / abs(coupling) ** 2
    gamma = spec.intrinsic_decays
    g_l = spec.load.gamma_load
    return float(g_l / (factor * gamma[0] + gamma[1] + g_l))


def _rel(value, reference) -> float:
    """|value - reference| relative to |reference|; 0 when both are 0."""
    return abs(value - reference) / max(abs(reference), _EPS)


def _powers(spec: NetworkSpec, amps, gamma_load):
    """p_in, p_r, p_l, eta and the balance residual of PowerReport, as numpy
    floats for one state (amps of shape (N,), gamma_load a number) or arrays
    for a stack of states (one per row, as is gamma_load). eta is nan where
    p_l + p_r == 0, the residual where its scale is 0. Raises SingularNetwork
    when |p_in| + p_r + p_l is not finite, naming the first failing
    gamma_load for a stack."""
    omega_d, rabi = spec.drive.omega_d, spec.drive.rabi
    # amps.T[k] is node k's amplitude, a numpy scalar (not a 0-d array) for
    # one state: numpy's scalar and array routines can round a complex
    # product or modulus apart in the last bit, and one state keeps its
    # roundings, abs in p_l and np.abs in the drive size
    a_drive = amps.T[spec.drive.node]
    with np.errstate(all="ignore"):
        p_in = -2.0 * omega_d * (np.conj(rabi) * a_drive).imag
        p_r = omega_d * np.sum(spec.intrinsic_decays * np.abs(amps) ** 2, axis=-1)
        p_l = omega_d * gamma_load * abs(amps.T[spec.load.node]) ** 2
        finite = abs(p_in) + p_r + p_l < math.inf  # so that nan fails too
        # with finite powers each quotient is 0 / 0 = nan exactly where its
        # denominator vanishes, as p_r, p_l >= 0 and |p_in| <= the drive size
        eta = p_l / (p_l + p_r)
        scale = 2.0 * omega_d * (np.abs(rabi) * np.abs(a_drive)) + p_r + p_l
        residual = abs(p_in - p_r - p_l) / scale
    if np.count_nonzero(finite) < finite.size:  # cheaper than .all() on one value
        row = np.argmin(finite)  # the first state that fails
        p_in, p_r, p_l = (float(np.ravel(p)[row]) for p in (p_in, p_r, p_l))
        at = f" at gamma_load = {float(gamma_load[row])!r}" if amps.ndim > 1 else ""
        raise SingularNetwork(f"power overflows{at}: p_in={p_in!r}, p_r={p_r!r}, p_l={p_l!r}")
    return p_in, p_r, p_l, eta, residual


def power_report(spec: NetworkSpec, state: SteadyState) -> PowerReport:
    """Assemble the full power bookkeeping for a steady state. Raises
    ValidationError when the state does not hold one amplitude per node and
    SingularNetwork when the powers overflow double precision."""
    if state.amplitudes.shape != (spec.n_nodes,):
        raise ValidationError(f"state of shape {state.amplitudes.shape} does not fit {spec.n_nodes} nodes")
    p_in, p_r, p_l, eta, residual = _powers(spec, state.amplitudes, spec.load.gamma_load)
    eta = None if math.isnan(eta) else float(eta)
    residual = 0.0 if math.isnan(residual) else float(residual)
    return PowerReport(float(p_in), float(p_r), float(p_l), eta, residual)
