"""Acceptance suite. Each criterion prints one pass/fail line; run with

    pytest tests/test_acceptance.py -v -s

The corpus is 104 seeded random all-to-all networks (26 seeds for each of
N = 2, 5, 10, 50) with complex drives and generic load attachments.
"""
import time

import numpy as np
import pytest

import qnet
from qnet.cli import main as cli_main

from conftest import load_settings, two_node_resonant


def _report(num, ok, detail):
    print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_thevenin_exactness(corpus):
    """Reduced load amplitude equals the full solve to 1e-10 over the corpus
    and >= 10 load settings each, in under 10 seconds."""
    t0 = time.perf_counter()
    worst = 0.0
    checks = 0
    for idx, spec in enumerate(corpus):
        th = qnet.thevenin_equivalent(spec)
        for delta_omega, gamma_load in load_settings(idx):
            probe = spec.with_load(delta_omega=delta_omega, gamma_load=gamma_load)
            full = qnet.solve_amplitudes(probe).amplitudes[probe.load.node]
            reduced = qnet.load_amplitude_from_thevenin(th, probe.load)
            worst = max(worst, abs(reduced - full) / abs(full))
            checks += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0 and checks >= 1000
    _report(1, ok, f"{checks} checks, worst rel dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_power_balance(corpus):
    """p_in = p_r + p_l to 1e-8 relative over the corpus and load settings."""
    worst = 0.0
    for idx, spec in enumerate(corpus):
        for delta_omega, gamma_load in load_settings(idx):
            probe = spec.with_load(delta_omega=delta_omega, gamma_load=gamma_load)
            report = qnet.power_report(probe, qnet.solve_amplitudes(probe))
            worst = max(worst, report.balance_residual)
    _report(2, worst <= 1e-8, f"worst balance residual {worst:.2e}")


@pytest.mark.slow
def test_criterion_3_matching_optimality(corpus):
    """200x200 full-solve grid search centered on the prediction: argmax
    within one cell, grid max within 1e-6 of the closed form, max refined
    on nested grids within 1e-10."""
    worst_grid = worst_refined = 0.0
    all_within = True
    for spec in corpus:
        check = qnet.grid_check(spec)
        p_max = check.predicted.p_max
        worst_grid = max(worst_grid, abs(check.p_grid_max - p_max) / p_max)
        worst_refined = max(worst_refined, abs(check.p_refined - p_max) / p_max)
        all_within = all_within and check.within_one_cell
    ok = all_within and worst_grid <= 1e-6 and worst_refined <= 1e-10
    _report(
        3,
        ok,
        f"argmax within one cell on all {len(corpus)} networks, "
        f"grid max dev {worst_grid:.2e}, refined dev {worst_refined:.2e}",
    )


def test_criterion_4_fifty_percent_bound(corpus):
    """Matched-point efficiency never exceeds one half; the resonant
    two-node network with a lossless load node attains it exactly, at the
    hand-derived maximum power."""
    worst_eta = 0.0
    for spec in corpus:
        matched = qnet.matched_load(spec)
        probe = spec.with_load(delta_omega=matched.delta_omega, gamma_load=matched.gamma_load)
        report = qnet.power_report(probe, qnet.solve_amplitudes(probe))
        worst_eta = max(worst_eta, report.eta)

    j, gamma_1, rabi, omega_0 = 2.0, 1.3, 0.9, 1000.0
    spec = two_node_resonant(j=j, gamma_1=gamma_1, rabi=rabi, omega_0=omega_0)
    matched = qnet.matched_load(spec)
    probe = spec.with_load(delta_omega=matched.delta_omega, gamma_load=matched.gamma_load)
    report = qnet.power_report(probe, qnet.solve_amplitudes(probe))
    eta_err = abs(report.eta - 0.5)
    p_err = abs(report.p_l - omega_0 * rabi**2 / gamma_1) / (omega_0 * rabi**2 / gamma_1)

    ok = worst_eta <= 0.5 + 1e-12 and eta_err <= 1e-10 and p_err <= 1e-10
    _report(
        4,
        ok,
        f"max matched eta {worst_eta:.6f}, two-node eta dev {eta_err:.2e}, "
        f"p_max dev {p_err:.2e}",
    )


def test_criterion_5_two_node_efficiency_formula():
    """Closed-form efficiency equals the direct power ratio to 1e-10 over
    1000 random two-node parameter sets."""
    worst = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(900_000 + seed)
        j = rng.normal(2.5, 1.0)
        spec = qnet.NetworkSpec(
            node_frequencies=1000.0 + rng.normal(0.0, 1.5, size=2),
            intrinsic_decays=rng.uniform(0.1, 3.0, size=2),
            couplings=np.array([[0.0, j], [j, 0.0]]),
            drive=qnet.DriveSpec(node=0, omega_d=1000.0 + rng.normal(), rabi=0.2),
            load=qnet.LoadSpec(
                node=1,
                delta_omega=float(rng.normal()),
                gamma_load=float(rng.uniform(0.05, 8.0)),
            ),
        )
        state = qnet.solve_amplitudes(spec)
        direct = qnet.power_report(spec, state).eta
        formula = qnet.matched_efficiency_two_node(spec)
        worst = max(worst, abs(formula - direct) / direct)
    _report(5, worst <= 1e-10, f"1000 parameter sets, worst rel dev {worst:.2e}")


def test_criterion_6_spectral_density_two_peaks():
    """Symmetric two-node sweep at >= 2000 points over +-3J shows exactly
    two local maxima, each within one grid step of omega_0 +- J."""
    j, omega_0 = 2.5, 1000.0
    spec = qnet.NetworkSpec(
        node_frequencies=np.array([omega_0, omega_0]),
        intrinsic_decays=np.array([1.0, 1.0]),
        couplings=np.array([[0.0, j], [j, 0.0]]),
        drive=qnet.DriveSpec(node=0, omega_d=omega_0 + j, rabi=0.1),
        load=qnet.LoadSpec(node=1, gamma_load=0.0),
    )
    n_points = 2001
    omegas = np.linspace(omega_0 - 3 * j, omega_0 + 3 * j, n_points)
    values = qnet.spectral_density_grid(spec, omegas)
    inner = np.arange(1, n_points - 1)
    peaks = inner[(values[inner] > values[inner - 1]) & (values[inner] > values[inner + 1])]
    step = omegas[1] - omegas[0]
    ok = (
        len(peaks) == 2
        and abs(omegas[peaks[0]] - (omega_0 - j)) <= step
        and abs(omegas[peaks[1]] - (omega_0 + j)) <= step
    )
    detail = f"{len(peaks)} maxima at {[f'{omegas[p]:.4f}' for p in peaks]}, step {step:.4f}"
    _report(6, ok, detail)


def test_criterion_7_ode_oracle(corpus):
    """Fixed-step relaxation agrees with the direct solve to 1e-8 over the
    corpus in under 60 seconds total."""
    t0 = time.perf_counter()
    worst = 0.0
    for spec in corpus:
        direct = qnet.solve_amplitudes(spec).amplitudes
        relaxed = qnet.time_domain_steady_state(spec).amplitudes
        worst = max(worst, np.linalg.norm(relaxed - direct) / np.linalg.norm(direct))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(7, ok, f"worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_8_lindblad_oracle():
    """Density-matrix route at n_max = 5 and |rabi| = 0.05*gamma: amplitudes
    to 1e-4, factorization residual <= 1e-3 and monotone over n_max in
    {2,3,4,5}, correlator powers to 1e-3, all in under 60 seconds."""
    t0 = time.perf_counter()
    spec = qnet.NetworkSpec(
        node_frequencies=np.array([1000.0, 1000.0]),
        intrinsic_decays=np.array([1.0, 1.0]),
        couplings=np.array([[0.0, 2.5], [2.5, 0.0]]),
        drive=qnet.DriveSpec(node=0, omega_d=1002.5, rabi=0.05 * np.exp(0.6j)),
        load=qnet.LoadSpec(node=1, delta_omega=0.3, gamma_load=0.4),
    )
    residuals = []
    for n_max in (2, 3, 4, 5):
        cfg = qnet.FockConfig(n_max=n_max, nodes=2)
        state = qnet.steady_state_density(qnet.build_liouvillian(spec, cfg), cfg)
        residuals.append(qnet.factorization_residual(state))
    report = qnet.oracle_report(spec, n_max=5)
    elapsed = time.perf_counter() - t0

    monotone = all(a > b for a, b in zip(residuals, residuals[1:]))
    ok = (
        report["amplitude_rel_discrepancy"] <= 1e-4
        and residuals[-1] <= 1e-3
        and monotone
        and report["p_r_rel_discrepancy"] <= 1e-3
        and report["p_l_rel_discrepancy"] <= 1e-3
        and elapsed < 60.0
    )
    _report(
        8,
        ok,
        f"amp dev {report['amplitude_rel_discrepancy']:.2e}, "
        f"factorization {residuals[-1]:.2e} (monotone: {monotone}), "
        f"power dev {max(report['p_r_rel_discrepancy'], report['p_l_rel_discrepancy']):.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_determinism(tmp_path):
    """Generating a seeded config and sweeping it twice produces
    byte-identical files."""
    artifacts = []
    for run_id in range(2):
        cfg = tmp_path / f"net{run_id}.json"
        omega_csv = tmp_path / f"omega{run_id}.csv"
        gamma_csv = tmp_path / f"gamma{run_id}.csv"
        assert cli_main([
            "gen", "random", "--nodes", "50", "--seed", "7",
            "--gamma-load", "1.0", "--out", str(cfg),
        ]) == 0
        assert cli_main([
            "sweep", "--config", str(cfg), "--var", "omega",
            "--min", "980", "--max", "1020", "--points", "512",
            "--out", str(omega_csv),
        ]) == 0
        assert cli_main([
            "sweep", "--config", str(cfg), "--var", "gamma_load",
            "--min", "0.1", "--max", "10", "--points", "128", "--log",
            "--out", str(gamma_csv),
        ]) == 0
        artifacts.append(
            (cfg.read_bytes(), omega_csv.read_bytes(), gamma_csv.read_bytes())
        )
    ok = artifacts[0] == artifacts[1]
    sizes = [len(b) for b in artifacts[0]]
    _report(9, ok, f"config/omega-sweep/gamma-sweep bytes identical across runs {sizes}")
