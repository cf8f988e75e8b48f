"""Input, radiated and delivered power, efficiency, and the closed-form
two-node efficiency.

In steady state the drive feeds exactly what the losses and the load
dissipate: p_in = p_r + p_l. The input power is evaluated in the rotating
frame as p_in = -2 * omega_d * Im(conj(rabi) * a_drive); with this form
the balance holds for complex drive amplitudes as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMoments, SingularNetwork, UndefinedEfficiency, UnsupportedTopology
from .network import NetworkSpec
from .steady import SteadyState, effective_matrix, _frequency_matrix

__all__ = [
    "PowerReport",
    "input_power",
    "radiated_power",
    "load_power",
    "general_power_from_correlators",
    "efficiency",
    "matched_efficiency_two_node",
    "power_report",
]

# Guards the balance-residual denominator for undriven networks.
_EPS = 1e-300


@dataclass(frozen=True)
class PowerReport:
    """Steady-state power bookkeeping. eta is None when nothing flows."""

    p_in: float
    p_r: float
    p_l: float
    eta: float | None
    balance_residual: float


def input_power(spec: NetworkSpec, state: SteadyState) -> float:
    """Power the coherent drive pushes into the network."""
    amp = state.amplitudes[spec.drive.node]
    return float(-2.0 * spec.drive.omega_d * np.imag(np.conj(spec.drive.rabi) * amp))


def radiated_power(spec: NetworkSpec, state: SteadyState) -> float:
    """Power lost through the intrinsic decay channels,
    omega_d * sum_n gamma_n |a_n|^2."""
    return float(
        spec.drive.omega_d
        * np.sum(spec.intrinsic_decays * np.abs(state.amplitudes) ** 2)
    )


def load_power(spec: NetworkSpec, state: SteadyState) -> float:
    """Power delivered into the load channel,
    omega_d * gamma_load * |a_load|^2."""
    amp = state.amplitudes[spec.load.node]
    return float(spec.drive.omega_d * spec.load.gamma_load * abs(amp) ** 2)


def general_power_from_correlators(spec, first_moments, second_moments):
    """Radiated and delivered power from first and second moments.

    Valid for any state, factorized or not:

        p_r = 1/2 sum_{nm} (gamma_n + gamma_m) [w_nm <adag_n a_m>
                                                + D_nm <adag_n><a_m>]

    with D_nm = delta_nm * omega_d - w_nm, and p_l the same with the load
    rates. For factorized moments this collapses to the amplitude formulas
    because w_nm + D_nm = delta_nm * omega_d. Raises InvalidMoments when
    second_moments is not Hermitian to 1e-10 (relative) or the results keep
    a nonreal part beyond tolerance.
    """
    amps = np.asarray(first_moments, dtype=complex)
    corr = np.asarray(second_moments, dtype=complex)
    n = spec.n_nodes
    if amps.shape != (n,) or corr.shape != (n, n):
        raise InvalidMoments(
            f"moment shapes {amps.shape}, {corr.shape} do not fit {n} nodes"
        )
    herm_defect = np.abs(corr - corr.conj().T).max()
    if herm_defect > 1e-10 * max(1.0, np.abs(corr).max()):
        raise InvalidMoments(f"second moments not Hermitian (defect {herm_defect:.3e})")

    w = _frequency_matrix(spec)
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
    if max(abs(p_r.imag), abs(p_l.imag)) > 1e-10 * scale:
        raise InvalidMoments(
            f"power has a nonreal part ({p_r.imag:.3e}, {p_l.imag:.3e}) beyond tolerance"
        )
    return float(p_r.real), float(p_l.real)


def efficiency(p_l: float, p_r: float) -> float:
    """Fraction of the output power that reaches the load."""
    total = p_l + p_r
    if total == 0:
        raise UndefinedEfficiency("no power flows; efficiency is undefined")
    return float(p_l / total)


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


def power_report(spec: NetworkSpec, state: SteadyState) -> PowerReport:
    """Assemble the full power bookkeeping for a steady state. Raises
    SingularNetwork when the powers overflow double precision."""
    with np.errstate(over="ignore", invalid="ignore"):
        p_in = input_power(spec, state)
        p_r = radiated_power(spec, state)
        p_l = load_power(spec, state)
    if not math.isfinite(abs(p_in) + p_r + p_l):
        raise SingularNetwork(f"power overflows: p_in={p_in!r}, p_r={p_r!r}, p_l={p_l!r}")
    eta = None if p_l + p_r == 0 else float(p_l / (p_l + p_r))
    residual = abs(p_in - p_r - p_l) / max(p_in, _EPS)
    return PowerReport(p_in=p_in, p_r=p_r, p_l=p_l, eta=eta, balance_residual=residual)
