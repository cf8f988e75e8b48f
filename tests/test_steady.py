"""Effective matrix construction, direct solve, spectral density and the
time-domain relaxation oracle."""
import numpy as np
import pytest

import qnet
from qnet import steady
from qnet.errors import ConvergenceFailure, SingularNetwork, ValidationError

from conftest import make_random_network


def _one_node(omega_d, gamma=1.0, rabi=0.1 + 0.0j, omega_0=1000.0, gamma_load=0.0):
    return qnet.NetworkSpec(
        node_frequencies=np.array([omega_0]),
        intrinsic_decays=np.array([gamma]),
        couplings=np.zeros((1, 1)),
        drive=qnet.DriveSpec(node=0, omega_d=omega_d, rabi=rabi),
        load=qnet.LoadSpec(node=0, delta_omega=0.0, gamma_load=gamma_load),
    )


def _two_node(omega_d, gamma=(1.0, 1.0), j=2.5, omega_0=1000.0, rabi=0.1,
              delta_omega=0.0, gamma_load=0.0):
    return qnet.NetworkSpec(
        node_frequencies=np.array([omega_0, omega_0]),
        intrinsic_decays=np.asarray(gamma, dtype=float),
        couplings=np.array([[0.0, j], [j, 0.0]]),
        drive=qnet.DriveSpec(node=0, omega_d=omega_d, rabi=rabi),
        load=qnet.LoadSpec(node=1, delta_omega=delta_omega, gamma_load=gamma_load),
    )


class TestEffectiveMatrix:
    def test_one_node_zero_detuning(self):
        m = qnet.effective_matrix(_one_node(omega_d=1000.0, gamma=0.8), loaded=False)
        assert m.shape == (1, 1)
        assert m[0, 0] == -0.4 + 0.0j

    def test_two_node_detuned_by_coupling(self):
        j, g1, g2 = 2.5, 1.0, 0.5
        m = qnet.effective_matrix(_two_node(omega_d=1000.0 + j, gamma=(g1, g2), j=j), loaded=False)
        expected = np.array(
            [[1j * j - g1 / 2, -1j * j], [-1j * j, 1j * j - g2 / 2]]
        )
        assert np.allclose(m, expected, rtol=0, atol=1e-15)

    def test_load_entry(self):
        spec = _two_node(omega_d=1000.0, delta_omega=1.0, gamma_load=4.0)
        load_part = qnet.effective_matrix(spec) - qnet.effective_matrix(spec, loaded=False)
        h_l = steady._load_term(spec.load.delta_omega, spec.load.gamma_load)
        assert h_l == 1j * 1.0 - 2.0
        expected = np.zeros((2, 2), dtype=complex)
        expected[1, 1] = h_l
        assert np.array_equal(load_part, expected)

    def test_total_diagonal_real_parts_nonpositive(self, small_corpus):
        for spec in small_corpus:
            m = qnet.effective_matrix(spec)
            assert np.all(np.real(np.diag(m)) <= 0.0)


class TestSolveAmplitudes:
    def test_unforced_network_is_dark(self):
        spec = _two_node(omega_d=1001.0, rabi=0.0)
        state = qnet.solve_amplitudes(spec)
        assert np.all(state.amplitudes == 0.0)

    @pytest.mark.parametrize("rabi", [0.1, 0.2 - 0.3j])
    def test_one_node_resonant(self, rabi):
        gamma = 0.8
        state = qnet.solve_amplitudes(_one_node(1000.0, gamma=gamma, rabi=rabi))
        assert np.allclose(state.amplitudes[0], -2j * rabi / gamma, rtol=1e-14)

    def test_linearity_in_drive(self):
        spec = make_random_network(5, 3)
        base = qnet.solve_amplitudes(spec).amplitudes
        scaled = qnet.solve_amplitudes(spec.with_drive(rabi=spec.drive.rabi * (2.0 - 1.5j)))
        assert np.allclose(scaled.amplitudes, (2.0 - 1.5j) * base, rtol=1e-12)

    def test_residual_contract(self, small_corpus):
        for spec in small_corpus:
            m = qnet.effective_matrix(spec)
            rhs = np.zeros(spec.n_nodes, dtype=complex)
            rhs[spec.drive.node] = 1j * spec.drive.rabi
            state = qnet.solve_amplitudes(spec)
            residual = np.linalg.norm(m @ state.amplitudes - rhs)
            assert residual <= 1e-10 * np.linalg.norm(rhs)

    def test_overflowing_residual_bound_is_singular(self):
        # |rhs|^2 overflows, so no residual could miss a bound of 1e-10 * |rhs|
        with pytest.raises(SingularNetwork, match="residual bound .* overflows"):
            qnet.solve_amplitudes(_two_node(omega_d=1001.0, rabi=1e300))

    def test_lossless_dark_mode_is_singular(self):
        # drive frequency exactly on a lossless eigenmode
        spec = _two_node(omega_d=1002.5, gamma=(0.0, 0.0), j=2.5)
        with pytest.raises(SingularNetwork):
            qnet.solve_amplitudes(spec)


class TestConditionThreshold:
    """Nearly lossless two-node network driven on its upper mode: the
    condition number is about 5 / (gamma / 2), 1e14 at gamma = 1e-13 and
    1e9 at gamma = 1e-8 in both the 1-norm and the 2-norm. gamma = 1e-11
    sits on the 1e12 limit and is left out."""

    @pytest.mark.parametrize("solver", [qnet.solve_amplitudes, qnet.thevenin_equivalent])
    def test_ill_conditioned_is_singular(self, solver):
        spec = _two_node(omega_d=1002.5, gamma=(1e-13, 1e-13), j=2.5)
        with pytest.raises(SingularNetwork, match="condition estimate"):
            solver(spec)

    def test_well_conditioned_meets_residual_contract(self):
        spec = _two_node(omega_d=1002.5, gamma=(1e-8, 1e-8), j=2.5)
        rhs = np.zeros(spec.n_nodes, dtype=complex)
        rhs[spec.drive.node] = 1j * spec.drive.rabi
        state = qnet.solve_amplitudes(spec)
        residual = np.linalg.norm(qnet.effective_matrix(spec) @ state.amplitudes - rhs)
        assert residual <= 1e-10 * np.linalg.norm(rhs)

        th = qnet.thevenin_equivalent(spec)
        reduced = qnet.load_amplitude_from_thevenin(th, spec.load)
        full = state.amplitudes[spec.load.node]
        assert abs(reduced - full) <= 1e-10 * abs(full)


class TestFactorization:
    @pytest.mark.parametrize("n", [2, 5, 10, 50, 200])
    @pytest.mark.parametrize("loaded", [False, True])
    def test_condition_estimate_brackets_exact_value(self, n, loaded):
        # zgecon estimates |A^-1|_1 from below and is rarely off by more
        # than a factor of 3 (Higham, ch. 15)
        for seed in range(5):
            matrix = qnet.effective_matrix(make_random_network(n, seed), loaded)
            cond1 = np.linalg.cond(matrix, 1)
            estimate = 1.0 / steady._Factorization(matrix).rcond
            assert cond1 / 3.0 <= estimate <= cond1 * (1.0 + 1e-12)

    def test_exact_zero_pivot(self):
        matrix = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(SingularNetwork, match="zero pivot"):
            steady._Factorization(matrix)


class TestSpectralDensity:
    def test_one_node_lorentzian(self):
        gamma, omega_0 = 0.8, 1000.0
        spec = _one_node(omega_d=1000.0, gamma=gamma)
        for omega in (999.0, 999.9, 1000.0, 1000.3, 1002.0):
            expected = (gamma / 2) / ((omega - omega_0) ** 2 + gamma**2 / 4)
            assert np.isclose(qnet.spectral_density(spec, omega), expected, rtol=1e-12)

    def test_two_node_peaks_at_split_frequencies(self):
        j = 2.5
        spec = _two_node(omega_d=1001.0, j=j)
        table = qnet.spectral_density_sweep(spec, 1000.0 - 3 * j, 1000.0 + 3 * j, 3001)
        omegas, values = table[:, 0], table[:, 1]
        inner = np.arange(1, len(values) - 1)
        maxima = inner[(values[inner] > values[inner - 1]) & (values[inner] > values[inner + 1])]
        assert len(maxima) == 2
        step = omegas[1] - omegas[0]
        assert abs(omegas[maxima[0]] - (1000.0 - j)) <= step
        assert abs(omegas[maxima[1]] - (1000.0 + j)) <= step

    def test_chain_band_edges(self):
        # tridiagonal chain modes live at omega_0 + 2 j cos(k pi / (n + 1))
        n, j = 50, 2.5
        spec = qnet.build_chain(
            n, 1000.0, j, 0.25,
            qnet.DriveSpec(node=0, omega_d=1001.0, rabi=0.1),
            qnet.LoadSpec(node=n - 1, gamma_load=0.0),
        )
        modes = 1000.0 + 2 * j * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
        w = np.array(spec.couplings)
        np.fill_diagonal(w, spec.node_frequencies)
        assert np.allclose(np.sort(np.linalg.eigvalsh(w)), np.sort(modes), atol=1e-9)

        table = qnet.spectral_density_sweep(spec, 1000.0 - 4 * j, 1000.0 + 4 * j, 4001)
        omegas, values = table[:, 0], table[:, 1]
        inner = np.arange(1, len(values) - 1)
        maxima = omegas[
            inner[(values[inner] > values[inner - 1]) & (values[inner] > values[inner + 1])]
        ]
        pad = 0.3  # linewidth allowance
        assert np.all(maxima >= 1000.0 - 2 * j - pad)
        assert np.all(maxima <= 1000.0 + 2 * j + pad)

    def test_nonnegative_for_lossy_networks(self, small_corpus):
        rng = np.random.default_rng(5)
        for spec in small_corpus:
            for omega in 1000.0 + rng.uniform(-30, 30, size=5):
                assert qnet.spectral_density(spec, float(omega)) >= 0.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_integral_counts_modes(self, n):
        # total Lorentzian weight is pi per mode; wide-window quadrature
        spec = _one_node(1000.0, gamma=1.0) if n == 1 else _two_node(1001.0, j=2.5)
        half_width = 400.0
        grid = np.linspace(1000.0 - half_width, 1000.0 + half_width, 50_001)
        values = qnet.spectral_density_grid(spec, grid)
        integral = np.trapezoid(values, grid)
        assert abs(integral - np.pi * n) / (np.pi * n) < 5e-3

    @pytest.mark.parametrize("n", [2, 5, 10, 50])
    @pytest.mark.parametrize("seed", range(3))
    def test_grid_matches_per_point_inverse(self, n, seed):
        spec = make_random_network(n, seed)
        grid = np.linspace(850.0, 1150.0, 301)
        values = qnet.spectral_density_grid(spec, grid)
        expected = np.array([qnet.spectral_density(spec, float(w)) for w in grid])
        assert np.abs(values - expected).max() <= 1e-10 * expected.max()

    def test_grid_at_exceptional_point(self):
        # gamma = (1, 0) and J = 1/4 merge both eigenvalues at 1000 - i/4
        # into one defective eigenvalue
        spec = _two_node(omega_d=1000.0, gamma=(1.0, 0.0), j=0.25)
        grid = np.linspace(998.0, 1002.0, 401)
        values = qnet.spectral_density_grid(spec, grid)
        expected = np.array([qnet.spectral_density(spec, float(w)) for w in grid])
        assert expected.max() == pytest.approx(8.0, rel=1e-12)
        assert np.abs(values - expected).max() <= 1e-10 * expected.max()

    def test_exactly_singular_point(self):
        spec = _one_node(omega_d=1000.0, gamma=0.0)
        with pytest.raises(SingularNetwork):
            qnet.spectral_density(spec, 1000.0)

    def test_sweep_gap_rows(self):
        spec = _one_node(omega_d=1000.0, gamma=0.0)
        table = qnet.spectral_density_sweep(spec, 999.0, 1001.0, 3)
        assert np.isnan(table[1, 1])
        assert np.isfinite(table[0, 1]) and np.isfinite(table[2, 1])

    def test_sweep_two_points(self):
        spec = _one_node(omega_d=1000.0)
        table = qnet.spectral_density_sweep(spec, 999.0, 1001.0, 2)
        assert table.shape == (2, 2)
        assert table[0, 0] == 999.0 and table[1, 0] == 1001.0

    @pytest.mark.parametrize(
        "lo,hi", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (1.0, np.nan)]
    )
    def test_sweep_non_finite_bounds(self, lo, hi):
        with pytest.raises(ValidationError, match="need finite omega_min < omega_max"):
            qnet.spectral_density_sweep(_one_node(omega_d=1000.0), lo, hi, 3)

    def test_sweep_bad_ranges(self):
        spec = _one_node(omega_d=1000.0)
        with pytest.raises(ValidationError):
            qnet.spectral_density_sweep(spec, 2.0, 1.0, 10)
        with pytest.raises(ValidationError):
            qnet.spectral_density_sweep(spec, 1.0, 2.0, 1)


class TestTimeDomainOracle:
    def test_unforced_stays_at_zero(self):
        spec = _two_node(omega_d=1001.0, rabi=0.0)
        state = qnet.time_domain_steady_state(spec, t_final=5.0)
        assert np.all(state.amplitudes == 0.0)

    def test_one_node_resonant(self):
        gamma, rabi = 0.8, 0.1
        state = qnet.time_domain_steady_state(_one_node(1000.0, gamma=gamma, rabi=rabi))
        assert np.allclose(state.amplitudes[0], -2j * rabi / gamma, rtol=1e-9)

    def test_two_node_resonant_symmetric(self):
        spec = _two_node(omega_d=1002.5, gamma_load=1.0)
        direct = qnet.solve_amplitudes(spec).amplitudes
        relaxed = qnet.time_domain_steady_state(spec).amplitudes
        assert np.linalg.norm(relaxed - direct) / np.linalg.norm(direct) < 1e-8

    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (5, 2), (10, 3), (50, 4)])
    def test_matches_direct_solve(self, n, seed):
        if n == 1:
            spec = _one_node(1000.3, gamma=0.9, rabi=0.2 - 0.1j, gamma_load=0.5)
        else:
            spec = make_random_network(n, seed)
        direct = qnet.solve_amplitudes(spec).amplitudes
        relaxed = qnet.time_domain_steady_state(spec).amplitudes
        assert np.linalg.norm(relaxed - direct) / np.linalg.norm(direct) < 1e-8

    def test_convergence_failure_reports_residual(self):
        spec = _two_node(omega_d=1001.0)
        with pytest.raises(ConvergenceFailure) as err:
            qnet.time_domain_steady_state(spec, t_final=1e-3, dt=1e-4)
        assert err.value.residual > 0.0

    def test_undamped_network_rejected(self):
        spec = _two_node(omega_d=1001.0, gamma=(0.0, 0.0))
        with pytest.raises(ValidationError):
            qnet.time_domain_steady_state(spec)

    def test_overflowing_drive_is_singular(self):
        spec = _two_node(omega_d=1001.0, rabi=1e200)
        with pytest.raises(SingularNetwork, match="residual bound .* overflows"):
            qnet.time_domain_steady_state(spec)

    @pytest.mark.parametrize(
        "budget", [dict(t_final=np.nan), dict(dt=np.nan), dict(t_final=np.inf), dict(dt=np.inf),
                   dict(t_final=0.0), dict(dt=-1.0), dict(t_final=1e6, dt=1e-6)]
    )
    def test_budget_must_be_finite_positive_and_bounded(self, budget):
        spec = _two_node(omega_d=1001.0)
        with pytest.raises(ValidationError, match="t_final / dt <= 2e8 steps"):
            qnet.time_domain_steady_state(spec, **budget)
