"""Correctness checks on qnet outputs, run outside the timed phase.

Each check takes plain data (numbers, arrays, text) and returns a list of
problems; an empty list means the output passed. Tolerances come from the
contracts qnet documents, never from a stored copy of an earlier output:

- RESIDUAL_RTOL: the steady-state residual contract of `steady.py`,
  |(H_eff + H_load) a - i W| <= 1e-10 |W|.
- THEVENIN_RTOL: acceptance criterion 1 (Thevenin exactness, 1e-10), also
  the agreement the tests require between the resolvent and elimination
  routes.
- POWER_RTOL: acceptance criterion 2 (power balance, 1e-8 of p_in).
- GRID_RTOL / REFINED_RTOL: acceptance criterion 3 (grid maximum within
  1e-6 of p_max, axis-refined maximum within 1e-10).
- ETA_MAX: acceptance criterion 4 (matched efficiency at most 1/2).
- RK4_RTOL: acceptance criterion 7 (relaxation within 1e-8 of the solve).
- ORACLE_AMP_RTOL / ORACLE_POWER_RTOL: acceptance criterion 8 (weakly
  driven density-matrix route, amplitudes 1e-4, powers 1e-3).
"""
from __future__ import annotations

import math

import numpy as np

import reference as ref

RESIDUAL_RTOL = 1e-10
THEVENIN_RTOL = 1e-10
POWER_RTOL = 1e-8
GRID_RTOL = 1e-6
REFINED_RTOL = 1e-10
ETA_MAX = 0.5 + 1e-12
RK4_RTOL = 1e-8
ORACLE_AMP_RTOL = 1e-4
ORACLE_POWER_RTOL = 1e-3
# A delivered power may exceed the matched maximum only by rounding.
PASSIVE_RTOL = 1e-10


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _close(problems, what, got, want, rtol):
    if not (math.isfinite(abs(got)) and _rel(got, want) <= rtol):
        problems.append(f"{what}: got {got!r}, reference {want!r} (rtol {rtol:g})")


def check_solve(net: ref.Network, out: dict) -> list[str]:
    """Amplitudes and power report of one steady state. `out` holds
    `amplitudes` and the report fields p_in, p_r, p_l, eta,
    balance_residual."""
    problems = []
    amps = np.asarray(out["amplitudes"], dtype=complex)
    if amps.shape != (net.n,):
        return [f"solve: {amps.shape} amplitudes for {net.n} nodes"]
    res = ref.residual(net, amps)
    if not res <= RESIDUAL_RTOL:
        problems.append(f"solve: residual {res:.3e} against the reference matrix exceeds {RESIDUAL_RTOL:g}")
    want = ref.powers(net, net.solution)
    scale = abs(want["p_in"])
    for key in ("p_in", "p_r", "p_l"):
        _close(problems, f"solve: {key}", out[key], want[key], POWER_RTOL)
    if out["eta"] is None or not abs(out["eta"] - want["eta"]) <= POWER_RTOL:
        problems.append(f"solve: eta {out['eta']!r} vs reference {want['eta']!r}")
    balance = abs(out["p_in"] - out["p_r"] - out["p_l"]) / scale
    if not (balance <= POWER_RTOL and out["balance_residual"] <= POWER_RTOL):
        problems.append(
            f"solve: power balance {balance:.3e} (reported {out['balance_residual']!r}) exceeds {POWER_RTOL:g}"
        )
    return problems


def check_thevenin(net: ref.Network, h_th, omega_th, route="thevenin") -> list[str]:
    want = net.equivalent
    problems = []
    _close(problems, f"{route}: h_th", complex(h_th), want["h_th"], THEVENIN_RTOL)
    _close(problems, f"{route}: omega_th", complex(omega_th), want["omega_th"], THEVENIN_RTOL)
    return problems


def check_match(net: ref.Network, out: dict) -> list[str]:
    """Matched load: delta_omega, gamma_load and p_max."""
    want = net.equivalent
    problems = []
    if not abs(out["delta_omega"] - want["delta_omega"]) <= THEVENIN_RTOL * abs(want["h_th"]):
        problems.append(f"match: delta_omega {out['delta_omega']!r} vs reference {want['delta_omega']!r}")
    _close(problems, "match: gamma_load", out["gamma_load"], want["gamma_load"], THEVENIN_RTOL)
    _close(problems, "match: p_max", out["p_max"], want["p_max"], THEVENIN_RTOL)
    return problems


def check_at_match(net: ref.Network, out: dict) -> list[str]:
    """Power report at the matched load: it delivers p_max, eta <= 1/2."""
    p_max = net.equivalent["p_max"]
    problems = []
    if out["eta"] is None or not out["eta"] <= ETA_MAX:
        problems.append(f"matched: eta {out['eta']!r} exceeds 1/2")
    _close(problems, "matched: p_l vs p_max", out["p_l"], p_max, THEVENIN_RTOL)
    return problems


def check_passive(net: ref.Network, p_l_values, what) -> list[str]:
    """No load delivers more than the conjugate-matched maximum."""
    p_max = net.equivalent["p_max"]
    worst = float(np.max(p_l_values))
    if not worst <= p_max * (1.0 + PASSIVE_RTOL):
        return [f"{what}: p_l {worst!r} exceeds p_max {p_max!r}"]
    return []


def check_grid(net: ref.Network, out: dict) -> list[str]:
    """grid_check result: argmax within one cell of the reference match,
    grid maximum and refined maximum close to the reference p_max."""
    want = net.equivalent
    problems = []
    slack = 1.0 + 1e-12
    if not abs(out["argmax_delta_omega"] - want["delta_omega"]) <= out["cell_delta"] * slack:
        problems.append(f"grid: argmax delta {out['argmax_delta_omega']!r} more than a cell from {want['delta_omega']!r}")
    if not abs(out["argmax_gamma_load"] - want["gamma_load"]) <= out["cell_gamma"] * slack:
        problems.append(f"grid: argmax gamma {out['argmax_gamma_load']!r} more than a cell from {want['gamma_load']!r}")
    _close(problems, "grid: grid maximum", out["p_grid_max"], want["p_max"], GRID_RTOL)
    _close(problems, "grid: refined maximum", out["p_refined"], want["p_max"], REFINED_RTOL)
    problems += check_passive(net, [out["p_grid_max"], out["p_refined"]], "grid")
    return problems


def check_relaxed(net: ref.Network, amps) -> list[str]:
    """RK4 steady state against the reference direct solve."""
    want = net.solution
    dev = float(np.linalg.norm(np.asarray(amps) - want) / np.linalg.norm(want))
    if not dev <= RK4_RTOL:
        return [f"rk4: deviation {dev:.3e} from the reference solve exceeds {RK4_RTOL:g}"]
    return []


def check_oracle(net: ref.Network, out: dict) -> list[str]:
    """oracle_report of a weakly driven network: the density-matrix route
    agrees with the amplitude route, whose powers match the reference."""
    problems = []
    if not out["amplitude_rel_discrepancy"] <= ORACLE_AMP_RTOL:
        problems.append(f"oracle: amplitude discrepancy {out['amplitude_rel_discrepancy']!r}")
    for key in ("p_r_rel_discrepancy", "p_l_rel_discrepancy"):
        if not out[key] <= ORACLE_POWER_RTOL:
            problems.append(f"oracle: {key} {out[key]!r}")
    want = ref.powers(net, net.solution)
    _close(problems, "oracle: p_r_closed", out["p_r_closed"], want["p_r"], POWER_RTOL)
    _close(problems, "oracle: p_l_closed", out["p_l_closed"], want["p_l"], POWER_RTOL)
    return problems


def parse_csv(text: str):
    """Comment lines, header and float rows of a qnet sweep CSV."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = np.array([[float(x) for x in ln.split(",")] for ln in body[1:]])
    return comments, body[0] if body else "", rows


def check_omega_sweep(net: ref.Network, text: str, grid) -> list[str]:
    """omega,S rows against the eigenvalue form of the spectral density."""
    _, header, rows = parse_csv(text)
    if header != "omega,S" or rows.shape != (len(grid), 2):
        return [f"omega sweep: header {header!r}, shape {rows.shape}, expected {len(grid)} rows"]
    problems = []
    if not np.allclose(rows[:, 0], grid, rtol=1e-15, atol=0.0):
        problems.append("omega sweep: frequency column differs from the requested grid")
    want = ref.spectral_density(net, grid)
    dev = float(np.max(np.abs(rows[:, 1] - want)) / np.max(np.abs(want)))
    if not dev <= POWER_RTOL:
        problems.append(f"omega sweep: S deviates by {dev:.3e} of its peak from the eigenvalue form")
    return problems


def check_load_sweep(net: ref.Network, text: str, grid) -> list[str]:
    """gamma_load,p_l,eta rows against full reference solves, the predicted
    optimum in the comment line, and p_l <= p_max everywhere."""
    comments, header, rows = parse_csv(text)
    if header != "gamma_load,p_l,eta" or rows.shape != (len(grid), 3) or len(comments) != 1:
        return [f"load sweep: header {header!r}, shape {rows.shape}, {len(comments)} comment lines"]
    problems = []
    want_th = net.equivalent
    fields = dict(item.split("=") for item in comments[0].lstrip("# ").split(","))
    _close(problems, "load sweep: gamma_th", float(fields["gamma_th"]), want_th["gamma_load"], THEVENIN_RTOL)
    if not abs(float(fields["delta_omega_th"]) + want_th["delta_omega"]) <= THEVENIN_RTOL * abs(want_th["h_th"]):
        problems.append(f"load sweep: delta_omega_th {fields['delta_omega_th']} vs reference {-want_th['delta_omega']!r}")
    if not np.allclose(rows[:, 0], grid, rtol=1e-15, atol=0.0):
        problems.append("load sweep: gamma_load column differs from the requested grid")
    want = ref.load_sweep(net, grid)
    dev_p = float(np.max(np.abs(rows[:, 1] - want[:, 0]) / want[:, 0]))
    dev_eta = float(np.max(np.abs(rows[:, 2] - want[:, 1])))
    if not (dev_p <= POWER_RTOL and dev_eta <= POWER_RTOL):
        problems.append(f"load sweep: p_l deviates by {dev_p:.3e}, eta by {dev_eta:.3e} from full solves")
    problems += check_passive(net, rows[:, 1], "load sweep")
    return problems


def check_generated(data: dict, n, seed, j_avg, j_std) -> list[str]:
    """A `qnet gen random` config holds the documented generator's draws."""
    net = ref.from_config(data)
    if net.n != n or data.get("seed") != seed:
        return [f"gen: {net.n} nodes and seed {data.get('seed')!r}, expected {n} and {seed}"]
    if not np.array_equal(net.J, ref.random_couplings(n, seed, j_avg, j_std)):
        return ["gen: couplings differ from the documented generator's draws"]
    return []


def check_identical(first: dict, later: dict, what) -> list[str]:
    """Repeated identical invocations give byte-identical outputs."""
    return [f"{what}: {name} differs between identical invocations"
            for name in sorted(first) if later.get(name) != first[name]]


def check_rejected(exit_code: int, stderr: str) -> list[str]:
    """A malformed config ends with exit 2 and a message, not a traceback."""
    if exit_code != 2 or not stderr.startswith("qnet:") or "Traceback" in stderr:
        last = stderr.strip().splitlines()[-1:] or [""]
        return [f"exit {exit_code} ({last[0][:120]!r}), expected exit 2 with a message"]
    return []
