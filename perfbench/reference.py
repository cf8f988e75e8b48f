"""Plain-numpy reference for the qnet model. It never imports qnet.

Everything here is built from the model as the repository README states it:
each node n has frequency omega_n and decay gamma_n, nodes are coupled by a
real symmetric J, node `drive` is driven at omega_d with amplitude rabi, and
node `load` carries a load h_L = i*delta_omega - gamma_load/2. In the frame
rotating at omega_d the steady state solves (H_eff + H_load) a = i W with

    H_eff[n, m] = i (delta_nm omega_d - w_nm) - delta_nm gamma_n / 2,

w_nn = omega_n and w_nm = J_nm. The Thevenin pair comes from the load-free
resolvent R = H_eff^-1: h_th = 1 / R_LL and omega_th = (R W)_L / R_LL.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class Network:
    """Plain arrays and scalars of one driven, loaded network."""

    omega: np.ndarray
    gamma: np.ndarray
    J: np.ndarray
    drive_node: int
    omega_d: float
    rabi: complex
    load_node: int
    delta_omega: float
    gamma_load: float

    @property
    def n(self) -> int:
        return len(self.omega)

    def with_load(self, delta_omega, gamma_load) -> "Network":
        return dataclasses.replace(self, delta_omega=float(delta_omega), gamma_load=float(gamma_load))

    # Results are cached on the instance: every op of a run checks its
    # outputs against the reference of the same few networks.
    @cached_property
    def loaded(self) -> np.ndarray:
        h = load_free_matrix(self)
        h[self.load_node, self.load_node] += complex(-self.gamma_load / 2.0, self.delta_omega)
        return h

    @cached_property
    def solution(self) -> np.ndarray:
        return np.linalg.solve(self.loaded, 1j * drive(self))

    @cached_property
    def equivalent(self) -> dict:
        return thevenin(self)


def from_config(data: dict) -> Network:
    """Read the config schema of the README without going through qnet."""
    n = len(data["nodes"])
    J = np.zeros((n, n))
    for edge in data.get("edges", []):
        J[edge["i"], edge["j"]] = J[edge["j"], edge["i"]] = edge["J"]
    dr, ld = data["drive"], data["load"]
    return Network(
        omega=np.array([float(nd["omega"]) for nd in data["nodes"]]),
        gamma=np.array([float(nd["gamma"]) for nd in data["nodes"]]),
        J=J,
        drive_node=int(dr["node"]),
        omega_d=float(dr["omega_d"]),
        rabi=complex(dr["rabi_re"], dr["rabi_im"]),
        load_node=int(ld["node"]),
        delta_omega=float(ld["delta_omega"]),
        gamma_load=float(ld["gamma_load"]),
    )


def random_couplings(n, seed, j_avg, j_std) -> np.ndarray:
    """The documented all-to-all generator: one N(j_avg, j_std^2) draw per
    unordered pair, in row-major pair order, from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    J = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    J[iu] = rng.normal(j_avg, j_std, size=len(iu[0]))
    return J + J.T


def drive(net: Network) -> np.ndarray:
    w = np.zeros(net.n, dtype=complex)
    w[net.drive_node] = net.rabi
    return w


def load_free_matrix(net: Network) -> np.ndarray:
    """H_eff from the README formula: -i J off the diagonal and
    i (omega_d - omega_n) - gamma_n / 2 on it."""
    h = -1j * np.asarray(net.J, dtype=complex)
    h[np.diag_indices(net.n)] = -net.gamma / 2.0 + 1j * (net.omega_d - net.omega)
    return h


def residual(net: Network, amps) -> float:
    """|(H_eff + H_load) a - i W| / |W| for amplitudes computed elsewhere."""
    w = drive(net)
    return float(np.linalg.norm(net.loaded @ np.asarray(amps) - 1j * w) / np.linalg.norm(w))


def powers(net: Network, amps) -> dict:
    """p_in, p_r, p_l and eta of a steady state, from the amplitudes."""
    a = np.asarray(amps, dtype=complex)
    p_in = -2.0 * net.omega_d * float(np.imag(np.conj(net.rabi) * a[net.drive_node]))
    p_r = net.omega_d * float(np.sum(net.gamma * np.abs(a) ** 2))
    p_l = net.omega_d * net.gamma_load * abs(a[net.load_node]) ** 2
    return {"p_in": p_in, "p_r": p_r, "p_l": p_l, "eta": p_l / (p_l + p_r)}


def thevenin(net: Network) -> dict:
    """h_th and omega_th from the explicit load-free resolvent, and the
    conjugate-matched load with its maximum power."""
    r = np.linalg.inv(load_free_matrix(net))
    r_ll = r[net.load_node, net.load_node]
    h_th = 1.0 / r_ll
    omega_th = (r @ drive(net))[net.load_node] / r_ll
    gamma_th = -2.0 * h_th.real
    return {
        "h_th": complex(h_th),
        "omega_th": complex(omega_th),
        "delta_omega": float(-h_th.imag),
        "gamma_load": float(gamma_th),
        "p_max": float(net.omega_d * abs(omega_th) ** 2 / gamma_th),
    }


def spectral_density(net: Network, omegas) -> np.ndarray:
    """S(omega) = -Im sum_k 1 / (omega - mu_k) over the eigenvalues mu_k of
    W - i diag(gamma) / 2."""
    w = net.J + np.diag(net.omega)
    mu = np.linalg.eigvals(w - 0.5j * np.diag(net.gamma))
    omegas = np.asarray(omegas, dtype=float)
    return -np.imag(np.sum(1.0 / (omegas[:, None] - mu[None, :]), axis=1))


def load_sweep(net: Network, gamma_loads) -> np.ndarray:
    """(p_l, eta) rows by a full solve at every load decay rate."""
    rows = []
    for g in gamma_loads:
        probe = net.with_load(net.delta_omega, g)
        p = powers(probe, probe.solution)
        rows.append((p["p_l"], p["eta"]))
    return np.array(rows)
