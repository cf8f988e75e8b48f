"""Single-node reduction: resolvent route, elimination route, load
amplitude equivalence, matching, and the brute-force grid oracle."""
import warnings

import numpy as np
import pytest

import qnet
from qnet.errors import DarkNode, PivotBreakdown, SingularNetwork, UnphysicalMatch, ValidationError

from conftest import load_settings, make_random_network, two_node_resonant


def _two_node(omega_d, gamma=(1.0, 0.5), j=2.5, omega_0=1000.0, rabi=0.1 + 0.05j):
    return qnet.NetworkSpec(
        node_frequencies=np.array([omega_0, omega_0]),
        intrinsic_decays=np.asarray(gamma, dtype=float),
        couplings=np.array([[0.0, j], [j, 0.0]]),
        drive=qnet.DriveSpec(node=0, omega_d=omega_d, rabi=rabi),
        load=qnet.LoadSpec(node=1, delta_omega=0.0, gamma_load=0.0),
    )


class TestResolventRoute:
    def test_single_node_identity_reduction(self):
        omega_0, omega_d, gamma, rabi = 1000.0, 1000.7, 0.8, 0.3 - 0.2j
        spec = qnet.NetworkSpec(
            node_frequencies=np.array([omega_0]),
            intrinsic_decays=np.array([gamma]),
            couplings=np.zeros((1, 1)),
            drive=qnet.DriveSpec(node=0, omega_d=omega_d, rabi=rabi),
            load=qnet.LoadSpec(node=0),
        )
        th = qnet.thevenin_equivalent(spec)
        assert th.h_th == pytest.approx(1j * (omega_d - omega_0) - gamma / 2)
        assert th.omega_th == pytest.approx(rabi)

    def test_two_node_schur_complement(self):
        # by-hand 2x2 reduction: h_th = h_11 + j^2 / h_00, omega_th = i j rabi / h_00
        j, g = 2.5, (1.0, 0.5)
        omega_d, rabi = 1001.3, 0.1 + 0.05j
        spec = _two_node(omega_d, gamma=g, j=j, rabi=rabi)
        h_00 = 1j * (omega_d - 1000.0) - g[0] / 2
        h_11 = 1j * (omega_d - 1000.0) - g[1] / 2
        th = qnet.thevenin_equivalent(spec)
        assert th.h_th == pytest.approx(h_11 + j**2 / h_00)
        assert th.omega_th == pytest.approx(1j * j * rabi / h_00)

    def test_two_node_resonant_lossless_load_node(self):
        j, g1, rabi = 2.0, 1.3, 0.9
        spec = two_node_resonant(j=j, gamma_1=g1, rabi=rabi)
        th = qnet.thevenin_equivalent(spec)
        assert th.h_th == pytest.approx(-2 * j**2 / g1)
        assert th.delta_omega_th == pytest.approx(0.0)
        assert th.gamma_th == pytest.approx(4 * j**2 / g1)
        assert th.omega_th == pytest.approx(-2j * j * rabi / g1)

    def test_dark_load_node(self):
        # lossless resonant first node forces a vanishing resolvent element
        spec = _two_node(omega_d=1000.0, gamma=(0.0, 0.7))
        with pytest.raises(DarkNode):
            qnet.thevenin_equivalent(spec).h_th

    def test_singular_network(self):
        spec = _two_node(omega_d=1002.5, gamma=(0.0, 0.0))
        with pytest.raises(SingularNetwork):
            qnet.thevenin_equivalent(spec).h_th


class TestEliminationRoute:
    def test_two_node_matches_closed_forms(self):
        spec = _two_node(omega_d=1001.3)
        res = qnet.thevenin_equivalent(spec)
        elim = qnet.thevenin_by_elimination(spec)
        assert elim.h_th == pytest.approx(res.h_th, rel=1e-12)
        assert elim.omega_th == pytest.approx(res.omega_th, rel=1e-12)

    def test_decomposition_consistency(self):
        th = qnet.thevenin_by_elimination(_two_node(omega_d=1001.3))
        assert th.h_th == 1j * th.delta_omega_th - th.gamma_th / 2

    def test_decoupled_network_has_no_path(self):
        spec = qnet.NetworkSpec(
            node_frequencies=np.array([1000.0, 1001.0, 999.5]),
            intrinsic_decays=np.array([1.0, 0.5, 0.7]),
            couplings=np.zeros((3, 3)),
            drive=qnet.DriveSpec(node=0, omega_d=1000.3, rabi=0.2),
            load=qnet.LoadSpec(node=2),
        )
        assert qnet.thevenin_by_elimination(spec).omega_th == 0.0
        assert qnet.thevenin_equivalent(spec).omega_th == 0.0

    @pytest.mark.parametrize("n", [2, 5, 10, 50])
    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_resolvent_on_random_networks(self, n, seed):
        spec = make_random_network(n, seed)
        res = qnet.thevenin_equivalent(spec)
        elim = qnet.thevenin_by_elimination(spec)
        assert abs(elim.h_th - res.h_th) / abs(res.h_th) < 1e-10
        assert abs(elim.omega_th - res.omega_th) / abs(res.omega_th) < 1e-10

    def test_agrees_on_fifty_node_chain(self):
        spec = qnet.build_chain(
            50, 1000.0, 2.5, 1.0,
            qnet.DriveSpec(node=0, omega_d=1001.0, rabi=0.1),
            qnet.LoadSpec(node=49),
        )
        res = qnet.thevenin_equivalent(spec)
        elim = qnet.thevenin_by_elimination(spec)
        assert abs(elim.h_th - res.h_th) / abs(res.h_th) < 1e-10
        assert abs(elim.omega_th - res.omega_th) / abs(res.omega_th) < 1e-10

    def test_zero_pivot_breaks_down(self):
        spec = _two_node(omega_d=1000.0, gamma=(0.0, 0.7))  # h_00 exactly zero
        with pytest.raises(PivotBreakdown) as err:
            qnet.thevenin_by_elimination(spec)
        assert err.value.node == 0


class TestLoadAmplitude:
    def test_zero_equivalent_drive(self):
        th = qnet.TheveninEquivalent(h_th=-1.0 + 0.5j, omega_th=0.0, load_node=0)
        assert qnet.load_amplitude_from_thevenin(th, qnet.LoadSpec(node=0, gamma_load=1.0)) == 0.0

    def test_single_node_exact(self):
        omega_d, gamma, rabi, g_l = 1000.4, 0.9, 0.25j, 1.7
        spec = qnet.NetworkSpec(
            node_frequencies=np.array([1000.0]),
            intrinsic_decays=np.array([gamma]),
            couplings=np.zeros((1, 1)),
            drive=qnet.DriveSpec(node=0, omega_d=omega_d, rabi=rabi),
            load=qnet.LoadSpec(node=0, delta_omega=0.3, gamma_load=g_l),
        )
        th = qnet.thevenin_equivalent(spec)
        direct = qnet.solve_amplitudes(spec).amplitudes[0]
        assert qnet.load_amplitude_from_thevenin(th, spec.load) == pytest.approx(direct)

    @pytest.mark.parametrize("seed", range(4))
    def test_reduction_is_exact_on_random_networks(self, seed):
        spec = make_random_network(10, seed)
        th = qnet.thevenin_equivalent(spec)
        for k, (delta_omega, gamma_load) in enumerate(load_settings(seed)):
            probe = spec.with_load(delta_omega=delta_omega, gamma_load=gamma_load)
            full = qnet.solve_amplitudes(probe).amplitudes[probe.load.node]
            reduced = qnet.load_amplitude_from_thevenin(th, probe.load)
            assert abs(reduced - full) / abs(full) < 1e-10, f"load setting {k}"

    def test_exact_cancellation_raises(self):
        th = qnet.TheveninEquivalent(h_th=1.0 + 0.0j, omega_th=0.1, load_node=0)
        load = qnet.LoadSpec(node=0, gamma_load=2.0)
        message = "equivalent energy exactly cancels the load term"
        with pytest.raises(SingularNetwork, match=message):
            qnet.load_amplitude_from_thevenin(th, load)
        with pytest.raises(SingularNetwork, match=message):
            qnet.load_power_thevenin(th, load, 1000.0)


def _weak_loss_chain(n):
    """Chain with gamma = 0.1 on every node, driven inside its band."""
    return qnet.build_chain(
        n, 1000.0, 2.0, 0.1,
        qnet.DriveSpec(node=0, omega_d=1000.7, rabi=0.1 - 0.05j),
        qnet.LoadSpec(node=n - 1, delta_omega=0.3, gamma_load=1.5),
    )


class TestDesignSize:
    """The networks of the size the design studies run, N = 200."""

    @pytest.mark.parametrize(
        "spec", [_weak_loss_chain(200), make_random_network(200, 0)], ids=["chain", "all_to_all"]
    )
    def test_residual_contract_and_exact_reduction(self, spec):
        rhs = np.zeros(spec.n_nodes, dtype=complex)
        rhs[spec.drive.node] = 1j * spec.drive.rabi
        state = qnet.solve_amplitudes(spec)
        residual = np.linalg.norm(qnet.effective_matrix(spec) @ state.amplitudes - rhs)
        assert residual <= 1e-10 * np.linalg.norm(rhs)

        full = state.amplitudes[spec.load.node]
        reduced = qnet.load_amplitude_from_thevenin(qnet.thevenin_equivalent(spec), spec.load)
        assert abs(reduced - full) <= 1e-10 * abs(full)


class TestMatchedLoad:
    def test_two_node_resonant_closed_form(self):
        j, g1, rabi, omega_0 = 2.0, 1.3, 0.9, 1000.0
        matched = qnet.matched_load(two_node_resonant(j=j, gamma_1=g1, rabi=rabi))
        assert matched.delta_omega == pytest.approx(0.0, abs=1e-14)
        assert matched.gamma_load == pytest.approx(4 * j**2 / g1, rel=1e-12)
        assert matched.p_max == pytest.approx(omega_0 * rabi**2 / g1, rel=1e-12)

    def test_single_node_resonant(self):
        gamma, rabi, omega_0 = 1.1, 0.4, 1000.0
        spec = qnet.NetworkSpec(
            node_frequencies=np.array([omega_0]),
            intrinsic_decays=np.array([gamma]),
            couplings=np.zeros((1, 1)),
            drive=qnet.DriveSpec(node=0, omega_d=omega_0, rabi=rabi),
            load=qnet.LoadSpec(node=0),
        )
        matched = qnet.matched_load(spec)
        assert matched.delta_omega == pytest.approx(0.0, abs=1e-14)
        assert matched.gamma_load == pytest.approx(gamma, rel=1e-12)
        assert matched.p_max == pytest.approx(omega_0 * rabi**2 / gamma, rel=1e-12)

    def test_matching_is_drive_independent(self):
        spec = make_random_network(5, 7)
        matched = qnet.matched_load(spec)
        scaled = qnet.matched_load(spec.with_drive(rabi=spec.drive.rabi * (3.0 - 1.0j)))
        assert scaled.delta_omega == matched.delta_omega
        assert scaled.gamma_load == matched.gamma_load
        assert scaled.p_max == pytest.approx(matched.p_max * abs(3.0 - 1.0j) ** 2, rel=1e-12)

    def test_passivity(self, small_corpus):
        for spec in small_corpus:
            assert qnet.thevenin_equivalent(spec).gamma_th >= 0.0

    def test_lossless_network_infeasible(self):
        spec = _two_node(omega_d=1001.7, gamma=(0.0, 0.0))  # detuned, nonsingular
        with pytest.raises(UnphysicalMatch) as err:
            qnet.matched_load(spec)
        assert abs(err.value.gamma_th) < 1e-12


class TestLoadSweep:
    @pytest.mark.parametrize("n", [2, 5, 10, 50])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_point_solves(self, n, seed):
        spec = make_random_network(n, seed)
        assert spec.load.delta_omega != 0.0
        gammas = np.concatenate([[0.0], np.geomspace(0.01, 100.0, 24)])
        rows = qnet.load_sweep(spec, gammas)
        assert rows.shape == (gammas.size, 2)
        for (p_l, eta), gamma_load in zip(rows, gammas):
            probe = spec.with_load(gamma_load=float(gamma_load))
            report = qnet.power_report(probe, qnet.solve_amplitudes(probe))
            assert abs(p_l - report.p_l) <= 1e-10 * report.p_l, f"gamma_load {gamma_load}"
            assert abs(eta - report.eta) <= 1e-10, f"gamma_load {gamma_load}"

    def test_undriven_network_has_no_efficiency(self):
        spec = make_random_network(5, 0).with_drive(rabi=0.0)
        rows = qnet.load_sweep(spec, [0.0, 0.5, 2.0])
        assert np.all(rows[:, 0] == 0.0)
        assert np.all(np.isnan(rows[:, 1]))


class TestGridOracle:
    def test_grid_search_confirms_prediction(self):
        spec = make_random_network(5, 11)
        check = qnet.grid_check(spec)
        assert check.within_one_cell
        assert abs(check.p_grid_max - check.predicted.p_max) / check.predicted.p_max < 1e-6
        assert abs(check.p_refined - check.predicted.p_max) / check.predicted.p_max < 1e-10

    def test_no_grid_point_beats_the_optimum_wide_window(self):
        spec = make_random_network(5, 13)
        matched = qnet.matched_load(spec)
        deltas = matched.delta_omega + np.linspace(-5, 5, 41) * matched.gamma_load
        gammas = np.linspace(0.02, 6.0, 41) * matched.gamma_load
        power = qnet.load_power_map(spec, deltas, gammas)
        assert power.max() <= matched.p_max * (1 + 1e-12)

    def test_map_matches_scalar_solves(self):
        spec = make_random_network(2, 17)
        deltas = np.array([-0.5, 0.0, 0.7])
        gammas = np.array([0.3, 1.1])
        power = qnet.load_power_map(spec, deltas, gammas)
        for i, d in enumerate(deltas):
            for j, g in enumerate(gammas):
                probe = spec.with_load(delta_omega=float(d), gamma_load=float(g))
                state = qnet.solve_amplitudes(probe)
                assert power[i, j] == pytest.approx(qnet.load_power(probe, state), rel=1e-12)

    @pytest.mark.parametrize(
        "delta,gamma,message",
        [
            (np.nan, 1.0, "load delta_omega must be finite, got nan"),
            (np.inf, 1.0, "load delta_omega must be finite, got inf"),
            (-np.inf, 1.0, "load delta_omega must be finite, got -inf"),
            (0.0, np.nan, "load gamma_load must be finite, got nan"),
            (0.0, np.inf, "load gamma_load must be finite, got inf"),
            (0.0, -np.inf, "load gamma_load must be finite, got -inf"),
            (0.0, -1.0, "load decay must be >= 0: -1.0"),
        ],
    )
    def test_map_rejects_load_values_outside_the_domain(self, delta, gamma, message):
        spec = make_random_network(2, 17)
        with pytest.raises(ValidationError, match=message):
            qnet.load_power_map(spec, [0.5, delta], [1.0, gamma])

    def test_map_overflowing_decay_is_singular_without_warnings(self):
        spec = make_random_network(2, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularNetwork, match="overflows"):
                qnet.load_power_map(spec, [0.0], [1e308])

    def test_grid_check_never_calls_the_fast_solver(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("grid_check called the fast path's solver")

        monkeypatch.setattr(qnet.thevenin, "solve_amplitudes", boom, raising=False)
        monkeypatch.setattr(qnet.steady, "solve_amplitudes", boom)
        check = qnet.grid_check(make_random_network(5, 11))
        assert check.within_one_cell
        assert abs(check.p_refined - check.predicted.p_max) <= 1e-10 * check.predicted.p_max

    @pytest.mark.parametrize("n_points", [0, 1, np.nan])
    def test_grid_check_needs_two_points_per_axis(self, n_points):
        with pytest.raises(ValidationError, match="need n_points >= 2"):
            qnet.grid_check(make_random_network(2, 17), n_points=n_points)
