"""Effective matrix construction, direct solve, spectral density and the
time-domain relaxation oracle."""
import gc
import warnings
import weakref

import numpy as np
import pytest

import qnet
from qnet import steady
from qnet.errors import ConvergenceFailure, NonUniqueSteadyState, SingularNetwork, ValidationError

from conftest import make_random_network, make_sparse_network, network


def _one_node(omega_d, gamma=1.0, rabi=0.1 + 0.0j, omega_0=1000.0, gamma_load=0.0):
    return network([omega_0], [gamma], {}, dict(omega_d=omega_d, rabi=rabi), dict(gamma_load=gamma_load))


def _two_node(omega_d, gamma=(1.0, 1.0), j=2.5, omega_0=1000.0, rabi=0.1,
              delta_omega=0.0, gamma_load=0.0):
    return network(
        [omega_0, omega_0], gamma, {(0, 1): j}, dict(omega_d=omega_d, rabi=rabi),
        dict(delta_omega=delta_omega, gamma_load=gamma_load),
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

    @pytest.mark.parametrize(
        "frequencies, omega_d, delta_omega",
        [([-1.7e308, 1000.0], 1.7e308, 0.0), ([0.0, 0.0], 1e308, 1e308)],
        ids=["detuning", "load-shift"],
    )
    def test_overflowing_diagonal_is_singular_without_warnings(self, frequencies, omega_d, delta_omega):
        spec = network(
            frequencies, [1.0, 1.0], {(0, 1): 2.5}, dict(omega_d=omega_d),
            dict(delta_omega=delta_omega, gamma_load=2.0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularNetwork, match="^steady-state matrix entries overflow"):
                qnet.solve_amplitudes(spec)
            if delta_omega:  # only the load entry overflows
                assert np.isfinite(qnet.effective_matrix(spec, loaded=False)).all()

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

    @pytest.mark.parametrize("bad_solves", [1, 2], ids=["repaired", "singular"])
    def test_one_refinement_step_then_singular(self, monkeypatch, bad_solves):
        # a solve off by 1e-6 |a| misses the contract; the one refinement
        # step repairs a miss of the first solve, not one of every solve
        spec = make_random_network(5, 3)
        exact = qnet.solve_amplitudes(spec).amplitudes
        solve = steady._Factorization.solve
        calls = []

        def off_solve(self, rhs):
            calls.append(rhs)
            offset = 1e-6 * np.abs(exact).max() if len(calls) <= bad_solves else 0.0
            return solve(self, rhs) + offset

        monkeypatch.setattr(steady._Factorization, "solve", off_solve)
        if bad_solves == 1:
            assert np.allclose(qnet.solve_amplitudes(spec).amplitudes, exact, rtol=1e-10, atol=0.0)
        else:
            with pytest.raises(SingularNetwork, match=r"^residual \S+ exceeds 1e-10 \* \|rhs\|$"):
                qnet.solve_amplitudes(spec)
        assert len(calls) == 2

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


def _assert_estimate_brackets(matrix):
    # zgecon and zgbcon estimate |A^-1|_1 from below and are rarely off by
    # more than a factor of 3 (Higham, ch. 15)
    cond1 = np.linalg.cond(matrix, 1)
    estimate = 1.0 / steady._Factorization(matrix).rcond
    assert cond1 / 3.0 <= estimate <= cond1 * (1.0 + 1e-12)


class TestFactorization:
    @pytest.mark.parametrize("n", [2, 5, 10, 50, 200])
    @pytest.mark.parametrize("loaded", [False, True])
    def test_condition_estimate_brackets_exact_value(self, n, loaded):
        for seed in range(5):
            _assert_estimate_brackets(qnet.effective_matrix(make_random_network(n, seed), loaded))

    @pytest.mark.parametrize("n", [10, 50, 200])
    @pytest.mark.parametrize("shape", ["chain", "ladder"])
    @pytest.mark.parametrize("loaded", [False, True])
    def test_band_condition_estimate_brackets_exact_value(self, n, shape, loaded):
        for seed in range(5):
            _assert_estimate_brackets(qnet.effective_matrix(make_sparse_network(n, shape, seed), loaded))

    @pytest.mark.parametrize(
        "shape, n, band",
        [("chain", 9, 1), ("chain", 10, 1), ("chain", 200, 1), ("ladder", 10, None),
         ("ladder", 17, 2), ("ladder", 200, 2), ("ring", 50, None), ("ring", 200, None)],
    )
    def test_band_and_dense_routes_match_a_plain_solve(self, shape, n, band):
        # 8 k < n takes band storage; a ring's closing pair makes k = n - 1
        rng = np.random.default_rng(n)
        for seed in range(3):
            matrix = qnet.effective_matrix(make_sparse_network(n, shape, seed))
            factors = steady._Factorization(matrix)
            assert factors.band == band
            rhs = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
            expected = np.linalg.solve(matrix, rhs)
            for got, want in ((factors.solve(rhs), expected), (factors.solve(rhs[:, 0]), expected[:, 0])):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_band_route_on_a_nonsymmetric_matrix(self):
        # network matrices are symmetric; this one tells a transposed band apart
        rng = np.random.default_rng(3)
        n = 40
        matrix = np.triu(np.tril(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1), -3)
        matrix += 4.0 * np.eye(n)
        factors = steady._Factorization(matrix)
        assert factors.band == 3
        rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
        expected = np.linalg.solve(matrix, rhs)
        assert np.linalg.norm(factors.solve(rhs) - expected) <= 1e-12 * np.linalg.norm(expected)
        _assert_estimate_brackets(matrix)

    def test_small_matrices_skip_the_band_route(self):
        # at n <= 8 only a diagonal matrix meets 8 k < n; it goes dense
        assert steady._Factorization(np.diag(np.arange(1.0, 9.0)) + 0j).band is None
        assert steady._Factorization(np.diag(np.arange(1.0, 10.0)) + 0j).band == 0

    def test_exact_zero_pivot(self):
        matrix = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(SingularNetwork, match="zero pivot"):
            steady._Factorization(matrix)

    def test_exact_zero_pivot_in_band_storage(self):
        # the same singular block inside a tridiagonal 10 x 10 matrix
        matrix = np.eye(10, dtype=complex)
        matrix[:2, :2] = [[1.0, 2.0], [2.0, 4.0]]
        assert steady._bandwidth(matrix) == 1
        with pytest.raises(SingularNetwork, match="zero pivot in column 2"):
            steady._Factorization(matrix)

    @pytest.mark.parametrize("shape", ["chain", "ring"])
    def test_factors_die_with_their_last_reference(self, shape):
        # no reference cycle: the factors go at once, not at a gc pass
        factors = steady._Factorization(qnet.effective_matrix(make_sparse_network(50, shape, 0)))
        assert (factors.band is None) == (shape == "ring")
        gc.disable()
        try:
            ref = weakref.ref(factors)
            del factors
            assert ref() is None
        finally:
            gc.enable()


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
        omegas = np.linspace(1000.0 - 3 * j, 1000.0 + 3 * j, 3001)
        values = qnet.spectral_density_grid(spec, omegas)
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

        omegas = np.linspace(1000.0 - 4 * j, 1000.0 + 4 * j, 4001)
        values = qnet.spectral_density_grid(spec, omegas)
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

    @pytest.mark.parametrize("n, seed", [(3, 1), (5, 2), (8, 3)])
    def test_grid_keeps_relative_precision_at_tiny_losses(self, n, seed):
        # frequencies near 1000 and losses near 1e-6: unshifted eigenvalues
        # would carry an error of eps * 1000 against Lorentzians 1e-6 wide
        rng = np.random.default_rng(seed)
        couplings = rng.uniform(-0.5, 0.5, (n, n))
        edges = {(i, j): couplings[i, j] for i, j in zip(*np.triu_indices(n, 1))}
        spec = network(1000.0 + rng.uniform(-1.0, 1.0, n), 1e-6 * rng.uniform(0.5, 2.0, n), edges)
        w = np.array(spec.couplings)
        np.fill_diagonal(w, spec.node_frequencies)
        modes = np.linalg.eigvalsh(w)
        grid = np.concatenate([modes - 1e-3, modes + 1e-3, np.linspace(997.0, 1003.0, 13)])
        values = qnet.spectral_density_grid(spec, grid)
        expected = np.array([qnet.spectral_density(spec, float(w)) for w in grid])
        assert np.abs(values / expected - 1.0).max() <= 1e-10

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

    def test_resolvent_that_overflows_is_singular(self):
        # omega - M = i * 5e-311 is invertible, but its inverse overflows
        spec = _one_node(omega_d=1000.0, gamma=1e-310)
        with pytest.raises(SingularNetwork, match="^resolvent diverges at omega = 1000.0$"):
            qnet.spectral_density(spec, 1000.0)

    def test_frequencies_near_the_largest_double_do_not_overflow(self):
        # the mean of the node frequencies would overflow; the spectrum at
        # the band center is that of the same network at 1000
        spec = _two_node(omega_d=1.5e308, omega_0=1.5e308)
        values = qnet.spectral_density_grid(spec, [990.0, 1.5e308])
        assert values[0] == 0.0
        assert values[1] == pytest.approx(
            qnet.spectral_density_grid(_two_node(omega_d=1000.0), 1000.0)[0], rel=1e-12
        )

    def test_sweep_gap_rows(self):
        spec = _one_node(omega_d=1000.0, gamma=0.0)
        values = qnet.spectral_density_grid(spec, np.linspace(999.0, 1001.0, 3))
        assert np.isnan(values[1])
        assert np.isfinite(values[0]) and np.isfinite(values[2])

    def test_sweep_two_points(self):
        spec = _one_node(omega_d=1000.0)
        values = qnet.spectral_density_grid(spec, np.array([999.0, 1001.0]))
        assert values.shape == (2,)
        assert np.isfinite(values).all()

    def test_number_is_a_one_point_grid(self):
        spec = _two_node(omega_d=1001.0)
        values = qnet.spectral_density_grid(spec, 1000.5)
        assert np.array_equal(values, qnet.spectral_density_grid(spec, [1000.5]))
        assert values.shape == (1,)

    @pytest.mark.parametrize(
        "route, omega, message",
        [
            (qnet.spectral_density, "a", "omega must be real, got 'a'"),
            (qnet.spectral_density, np.nan, "omega must be finite, got nan"),
            (qnet.spectral_density, [999.0, 1001.0], "omega must be a single number"),
            (qnet.spectral_density_grid, ["a"], "grid must be real"),
            (qnet.spectral_density_grid, [999.0, np.nan], "grid must be finite, got nan"),
            (qnet.spectral_density_grid, [[999.0, 1001.0]], "grid must be a number or a 1-D grid"),
        ],
    )
    def test_frequencies_must_be_finite_real_numbers(self, route, omega, message):
        with pytest.raises(ValidationError, match=message):
            route(_one_node(omega_d=1000.0), omega)


class TestTimeDomainOracle:
    def test_unforced_stays_at_zero(self):
        spec = _two_node(omega_d=1001.0, rabi=0.0)
        state = qnet.time_domain_steady_state(spec)
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

    def test_convergence_failure_reports_residual(self, monkeypatch):
        def stalled(a, forcing, dt, max_steps, tol):
            return np.zeros_like(forcing), max_steps, 1.0

        monkeypatch.setattr(steady, "_rk4_fixed_point", stalled)
        spec = _two_node(omega_d=1001.0)
        with pytest.raises(ConvergenceFailure) as err:
            qnet.time_domain_steady_state(spec)
        assert err.value.residual == 1.0

    # a lossless, unloaded node driven on resonance has an all-zero matrix
    LOSSLESS_NODE = network([1000.0], [0.0])

    @pytest.mark.parametrize(
        "spec", [_two_node(omega_d=1001.0, gamma=(0.0, 0.0)), LOSSLESS_NODE], ids=["two-node", "zero-matrix"]
    )
    def test_undamped_network_rejected(self, spec):
        with pytest.raises(NonUniqueSteadyState, match="non-decaying mode"):
            qnet.time_domain_steady_state(spec)

    def test_overflowing_drive_is_singular(self):
        spec = _two_node(omega_d=1001.0, rabi=1e200)
        with pytest.raises(SingularNetwork, match="residual bound .* overflows"):
            qnet.time_domain_steady_state(spec)

    @pytest.mark.parametrize(
        "frequencies, decays, couplings, omega_d, steps",
        [
            # a fast node sets dt = 0.1 / 999, a nearly lossless one sets
            # t_final = 60 / 5e-7
            ([1.0, 1000.0], [1.0, 1e-6], 0.0, 1000.0, r"1\.199e\+12"),
            # the fastest rate overflows to inf, so dt = 0
            ([1.0, 1.0], [1e300, 1e300], 1.5e308, 1.5e308, "inf"),
        ],
        ids=["slow-mode", "overflowing-rate"],
    )
    def test_budget_beyond_2e8_steps_rejected(self, frequencies, decays, couplings, omega_d, steps):
        spec = network(frequencies, decays, {(0, 1): couplings}, dict(omega_d=omega_d))
        with pytest.raises(ValidationError, match=f"needs {steps} RK4 steps, more than 2e8"):
            qnet.time_domain_steady_state(spec)
