"""Power bookkeeping: balance, factorized and correlator forms, efficiency."""
import numpy as np
import pytest

import qnet
from qnet.errors import InvalidMoments, UndefinedEfficiency, UnsupportedTopology

from conftest import load_settings, make_random_network, two_node_resonant


def _one_node(gamma=0.8, rabi=0.1 + 0.0j, omega_0=1000.0):
    return qnet.NetworkSpec(
        node_frequencies=np.array([omega_0]),
        intrinsic_decays=np.array([gamma]),
        couplings=np.zeros((1, 1)),
        drive=qnet.DriveSpec(node=0, omega_d=omega_0, rabi=rabi),
        load=qnet.LoadSpec(node=0, delta_omega=0.0, gamma_load=0.0),
    )


class TestHandComputedCases:
    @pytest.mark.parametrize("rabi", [0.1, 0.3 * np.exp(0.8j)])
    def test_one_node_resonant(self, rabi):
        # a = -2i rabi / gamma, so p_in = 4 omega |rabi|^2 / gamma = p_r
        gamma, omega_0 = 0.8, 1000.0
        spec = _one_node(gamma=gamma, rabi=rabi)
        state = qnet.solve_amplitudes(spec)
        expected = 4 * omega_0 * abs(rabi) ** 2 / gamma
        assert qnet.input_power(spec, state) == pytest.approx(expected, rel=1e-12)
        assert qnet.radiated_power(spec, state) == pytest.approx(expected, rel=1e-12)

    def test_matched_two_node_resonant(self):
        j, g1, rabi, omega_0 = 2.0, 1.3, 0.9, 1000.0
        spec = two_node_resonant(j=j, gamma_1=g1, rabi=rabi)
        matched = qnet.matched_load(spec)
        probe = spec.with_load(delta_omega=matched.delta_omega, gamma_load=matched.gamma_load)
        state = qnet.solve_amplitudes(probe)
        p_l = qnet.load_power(probe, state)
        p_r = qnet.radiated_power(probe, state)
        assert p_l == pytest.approx(omega_0 * rabi**2 / g1, rel=1e-12)
        assert p_l == pytest.approx(matched.p_max, rel=1e-12)
        assert qnet.efficiency(p_l, p_r) == pytest.approx(0.5, abs=1e-12)


class TestZeroCases:
    def test_undriven_network(self):
        spec = _one_node(rabi=0.0)
        state = qnet.solve_amplitudes(spec)
        report = qnet.power_report(spec, state)
        assert report.p_in == report.p_r == report.p_l == 0.0
        assert report.eta is None
        assert report.balance_residual == 0.0

    def test_lossless_network_radiates_nothing(self):
        spec = qnet.NetworkSpec(
            node_frequencies=np.array([1000.0]),
            intrinsic_decays=np.array([0.0]),
            couplings=np.zeros((1, 1)),
            drive=qnet.DriveSpec(node=0, omega_d=1000.5, rabi=0.1),
            load=qnet.LoadSpec(node=0, gamma_load=2.0),
        )
        state = qnet.solve_amplitudes(spec)
        assert qnet.radiated_power(spec, state) == 0.0

    def test_detached_load_draws_nothing(self):
        spec = _one_node()
        state = qnet.solve_amplitudes(spec)
        assert qnet.load_power(spec, state) == 0.0


class TestPowerBalance:
    def test_balance_on_random_networks(self, small_corpus):
        for spec in small_corpus:
            state = qnet.solve_amplitudes(spec)
            report = qnet.power_report(spec, state)
            assert report.balance_residual <= 1e-8
            assert report.p_r >= 0.0 and report.p_l >= 0.0
            assert 0.0 <= report.eta <= 1.0

    def test_balance_across_load_settings(self):
        spec = make_random_network(10, 21)
        for delta_omega, gamma_load in load_settings(21):
            probe = spec.with_load(delta_omega=delta_omega, gamma_load=gamma_load)
            report = qnet.power_report(probe, qnet.solve_amplitudes(probe))
            assert report.balance_residual <= 1e-8


class TestTheveninForm:
    def test_zero_load_rate(self):
        th = qnet.TheveninEquivalent(h_th=-1.0 + 0.2j, omega_th=0.1, load_node=0)
        assert qnet.load_power_thevenin(th, qnet.LoadSpec(node=0, gamma_load=0.0), 1000.0) == 0.0

    def test_matched_value(self):
        th = qnet.TheveninEquivalent(h_th=-0.8 + 0.3j, omega_th=0.2 - 0.1j, load_node=0)
        load = qnet.LoadSpec(node=0, delta_omega=-th.delta_omega_th, gamma_load=th.gamma_th)
        omega_d = 1000.0
        expected = omega_d * abs(th.omega_th) ** 2 / th.gamma_th
        assert qnet.load_power_thevenin(th, load, omega_d) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_agrees_with_full_solve(self, seed):
        spec = make_random_network(50, seed)
        th = qnet.thevenin_equivalent(spec)
        for delta_omega, gamma_load in load_settings(seed, count=5):
            probe = spec.with_load(delta_omega=delta_omega, gamma_load=gamma_load)
            full = qnet.load_power(probe, qnet.solve_amplitudes(probe))
            reduced = qnet.load_power_thevenin(th, probe.load, probe.drive.omega_d)
            assert abs(reduced - full) / full < 1e-10


class TestCorrelatorForm:
    def test_factorized_moments_reduce_to_amplitude_form(self, small_corpus):
        for spec in small_corpus:
            amps = qnet.solve_amplitudes(spec).amplitudes
            corr = np.outer(amps.conj(), amps)
            p_r, p_l = qnet.general_power_from_correlators(spec, amps, corr)
            state = qnet.SteadyState(amplitudes=amps)
            assert p_r == pytest.approx(qnet.radiated_power(spec, state), rel=1e-10, abs=1e-12)
            assert p_l == pytest.approx(qnet.load_power(spec, state), rel=1e-10, abs=1e-12)

    def test_zero_moments(self):
        spec = make_random_network(3, 2)
        p_r, p_l = qnet.general_power_from_correlators(
            spec, np.zeros(3, complex), np.zeros((3, 3), complex)
        )
        assert p_r == 0.0 and p_l == 0.0

    def test_non_hermitian_moments_rejected(self):
        spec = make_random_network(3, 2)
        corr = np.zeros((3, 3), complex)
        corr[0, 1] = 1.0  # missing conjugate partner
        with pytest.raises(InvalidMoments):
            qnet.general_power_from_correlators(spec, np.zeros(3, complex), corr)

    def test_shape_mismatch_rejected(self):
        spec = make_random_network(3, 2)
        with pytest.raises(InvalidMoments):
            qnet.general_power_from_correlators(spec, np.zeros(2, complex), np.zeros((3, 3), complex))


class TestEfficiency:
    def test_limits(self):
        assert qnet.efficiency(1.0, 0.0) == 1.0
        assert qnet.efficiency(0.0, 2.0) == 0.0

    def test_undefined_for_dead_network(self):
        with pytest.raises(UndefinedEfficiency):
            qnet.efficiency(0.0, 0.0)

    def test_scale_invariance(self):
        spec = make_random_network(5, 5, gamma=0.9)
        base = qnet.power_report(spec, qnet.solve_amplitudes(spec))
        scaled_spec = spec.with_drive(rabi=spec.drive.rabi * (0.3 + 2.0j))
        scaled = qnet.power_report(scaled_spec, qnet.solve_amplitudes(scaled_spec))
        assert scaled.eta == pytest.approx(base.eta, rel=1e-12)

    def test_powers_scale_with_drive_frequency_prefactor(self):
        # at a frozen rotating-frame solution every power is linear in omega_d
        spec = make_random_network(4, 9)
        state = qnet.solve_amplitudes(spec)
        doubled = spec.with_drive(omega_d=2 * spec.drive.omega_d)
        frozen = qnet.SteadyState(amplitudes=state.amplitudes)
        assert qnet.radiated_power(doubled, frozen) == pytest.approx(
            2 * qnet.radiated_power(spec, state), rel=1e-14
        )
        assert qnet.load_power(doubled, frozen) == pytest.approx(
            2 * qnet.load_power(spec, state), rel=1e-14
        )
        assert qnet.input_power(doubled, frozen) == pytest.approx(
            2 * qnet.input_power(spec, state), rel=1e-14
        )


class TestTwoNodeEfficiencyFormula:
    def _random_two_node(self, seed):
        rng = np.random.default_rng(seed)
        return qnet.NetworkSpec(
            node_frequencies=1000.0 + rng.normal(0.0, 1.5, size=2),
            intrinsic_decays=rng.uniform(0.1, 3.0, size=2),
            couplings=(lambda j: np.array([[0.0, j], [j, 0.0]]))(rng.normal(2.5, 1.0)),
            drive=qnet.DriveSpec(node=0, omega_d=1000.0 + rng.normal(), rabi=0.2),
            load=qnet.LoadSpec(
                node=1,
                delta_omega=float(rng.normal()),
                gamma_load=float(rng.uniform(0.05, 8.0)),
            ),
        )

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_direct_ratio(self, seed):
        spec = self._random_two_node(seed)
        state = qnet.solve_amplitudes(spec)
        direct = qnet.efficiency(qnet.load_power(spec, state), qnet.radiated_power(spec, state))
        assert abs(qnet.matched_efficiency_two_node(spec) - direct) < 1e-10 * direct + 1e-14

    def test_strong_coupling_limit(self):
        # huge inter-node coupling: only the load node's own loss competes
        g2, g_l = 0.7, 1.9
        spec = qnet.NetworkSpec(
            node_frequencies=np.array([1000.0, 1000.0]),
            intrinsic_decays=np.array([1.0, g2]),
            couplings=np.array([[0.0, 4000.0], [4000.0, 0.0]]),
            drive=qnet.DriveSpec(node=0, omega_d=1000.0, rabi=0.1),
            load=qnet.LoadSpec(node=1, delta_omega=0.0, gamma_load=g_l),
        )
        assert qnet.matched_efficiency_two_node(spec) == pytest.approx(
            g_l / (g2 + g_l), rel=1e-6
        )

    def test_matched_lossless_load_node_hits_half(self):
        spec = two_node_resonant()
        matched = qnet.matched_load(spec)
        probe = spec.with_load(delta_omega=matched.delta_omega, gamma_load=matched.gamma_load)
        assert qnet.matched_efficiency_two_node(probe) == pytest.approx(0.5, abs=1e-12)

    def test_wrong_topology_rejected(self):
        with pytest.raises(UnsupportedTopology):
            qnet.matched_efficiency_two_node(make_random_network(3, 1))
