"""Single-node reduction: resolvent route, elimination route, load
amplitude equivalence, matching, and the brute-force grid oracle."""
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import qnet
from qnet.errors import DarkNode, SingularNetwork, UnphysicalMatch, ValidationError

from conftest import (
    load_settings, make_random_network, network, radiated_overflow, thevenin_overflow, two_node_resonant,
)


def _two_node(omega_d, gamma=(1.0, 0.5), j=2.5, omega_0=1000.0, rabi=0.1 + 0.05j):
    return network([omega_0, omega_0], gamma, {(0, 1): j}, dict(omega_d=omega_d, rabi=rabi))


class TestResolventRoute:
    def test_single_node_identity_reduction(self):
        omega_0, omega_d, gamma, rabi = 1000.0, 1000.7, 0.8, 0.3 - 0.2j
        spec = network([omega_0], [gamma], drive=dict(omega_d=omega_d, rabi=rabi))
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

    def test_overflowing_equivalent_is_singular_without_warnings(self):
        spec = thevenin_overflow()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularNetwork, match="^h_th or omega_th overflows double precision$"):
                qnet.thevenin_equivalent(spec)
            with pytest.raises(SingularNetwork, match="^elimination h_th or omega_th overflows double"):
                qnet.thevenin_by_elimination(spec)
        assert spec._resolvent is None  # a refused pair is not kept

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
        spec = network([1000.0, 1001.0, 999.5], [1.0, 0.5, 0.7], drive=dict(omega_d=1000.3, rabi=0.2))
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
        # h_00 exactly zero: the non-load block is singular and h_th = h_11 + j^2 / h_00 is infinite
        spec = _two_node(omega_d=1000.0, gamma=(0.0, 0.7))
        with pytest.raises(SingularNetwork):
            qnet.thevenin_by_elimination(spec)
        with pytest.raises(DarkNode):
            qnet.thevenin_equivalent(spec)

    def test_single_node_has_an_empty_block(self):
        spec = network([1000.0], [0.8], drive=dict(omega_d=1000.7, rabi=0.3 - 0.2j), load=dict(gamma_load=1.1))
        res = qnet.thevenin_equivalent(spec)
        elim = qnet.thevenin_by_elimination(spec)
        assert elim.h_th == pytest.approx(res.h_th, rel=1e-12)
        assert elim.omega_th == pytest.approx(res.omega_th, rel=1e-12)


class TestLoadAmplitude:
    def test_zero_equivalent_drive(self):
        th = qnet.TheveninEquivalent(h_th=-1.0 + 0.5j, omega_th=0.0, load_node=0)
        assert qnet.load_amplitude_from_thevenin(th, qnet.LoadSpec(node=0, gamma_load=1.0)) == 0.0

    def test_single_node_exact(self):
        omega_d, gamma, rabi, g_l = 1000.4, 0.9, 0.25j, 1.7
        spec = network(
            [1000.0], [gamma], {}, dict(omega_d=omega_d, rabi=rabi), dict(delta_omega=0.3, gamma_load=g_l)
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

    def test_overflowing_power_is_singular(self):
        # a_load is -4.4e159, finite, but its square overflows
        spec = network([1000.0, 1000.0], [1.0, 1.0], {(0, 1): 2.0}, dict(rabi=1e160), dict(gamma_load=1.0))
        th = qnet.thevenin_equivalent(spec)
        assert np.isfinite(qnet.load_amplitude_from_thevenin(th, spec.load))
        with pytest.raises(SingularNetwork, match="^reduced load power overflows: p_l = inf$"):
            qnet.load_power_thevenin(th, spec.load, 1000.0)

    def test_load_on_another_node_is_refused(self):
        spec = make_random_network(5, 0)
        th = qnet.thevenin_equivalent(spec)
        load = qnet.LoadSpec(node=0, gamma_load=1.0)
        message = "^load on node 0, but the equivalent is of node 4$"
        with pytest.raises(ValidationError, match=message):
            qnet.load_amplitude_from_thevenin(th, load)
        with pytest.raises(ValidationError, match=message):
            qnet.load_power_thevenin(th, load, 1000.0)

    @pytest.mark.parametrize(
        "omega_d,message",
        [
            (np.nan, "drive omega_d must be finite, got nan"),
            (np.inf, "drive omega_d must be finite, got inf"),
            (0.0, "drive frequency must be positive, got 0.0"),
            (-1.0, "drive frequency must be positive, got -1.0"),
            ("1000", "drive omega_d must be real"),
        ],
    )
    def test_power_refuses_the_drive_frequencies_drivespec_refuses(self, omega_d, message):
        spec = make_random_network(5, 0)
        th = qnet.thevenin_equivalent(spec)
        with pytest.raises(ValidationError, match=f"^{message}"):
            qnet.load_power_thevenin(th, spec.load, omega_d)
        with pytest.raises(ValidationError, match=f"^{message}"):
            qnet.DriveSpec(node=0, omega_d=omega_d, rabi=0.1)


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
        spec = network([omega_0], [gamma], drive=dict(omega_d=omega_0, rabi=rabi))
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

    def test_radiated_power_overflow_raises_as_in_power_report(self):
        # p_l stays finite, so only the overflow rule of power_report catches it
        spec = radiated_overflow()
        with pytest.raises(SingularNetwork, match=r"^power overflows: p_in=inf, p_r=inf, p_l="):
            qnet.power_report(spec, qnet.solve_amplitudes(spec))
        with pytest.raises(SingularNetwork, match=r"^power overflows at gamma_load = 1\.0: p_in=inf, p_r=inf"):
            qnet.load_sweep(spec, [1.0, 2.0])

    def test_residual_beyond_the_contract_is_singular(self, monkeypatch):
        # resolvent columns off by 1e-6 give amplitudes that miss the contract
        solve = qnet.steady._Factorization.solve

        def off_solve(self, rhs):
            return solve(self, rhs) * (1 + 1e-6)

        monkeypatch.setattr(qnet.steady._Factorization, "solve", off_solve)
        with pytest.raises(SingularNetwork, match=r"^load sweep residual \S+ exceeds 1e-10 \* \|rhs\|$"):
            qnet.load_sweep(make_random_network(5, 0), [0.5, 2.0])


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
                assert power[i, j] == pytest.approx(qnet.power_report(probe, state).p_l, rel=1e-12)

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
            (1j, 1.0, "load delta_omega must be real"),
            (0.0, 1 + 0j, "load gamma_load must be real"),
            (0.0, "1.5", "load gamma_load must be real"),
            (0.0, None, "load gamma_load must be real"),
            (0.0, [1.0], "load gamma_load must be real"),  # a ragged grid
        ],
    )
    def test_map_rejects_load_values_outside_the_domain(self, delta, gamma, message):
        spec = make_random_network(2, 17)
        with pytest.raises(ValidationError, match=message):
            qnet.load_power_map(spec, [0.5, delta], [1.0, gamma])
        if delta == 0.0:  # load_sweep takes decays only, under the same rule
            with pytest.raises(ValidationError, match=message):
                qnet.load_sweep(spec, [1.0, gamma])

    def test_map_and_sweep_reject_grids_of_two_dimensions(self):
        spec = make_random_network(2, 17)
        square = [[1.0, 2.0], [3.0, 4.0]]
        shape = r"must be a number or a 1-D grid, got an array of shape \(2, 2\)"
        with pytest.raises(ValidationError, match="load delta_omega " + shape):
            qnet.load_power_map(spec, square, [1.0])
        with pytest.raises(ValidationError, match="load gamma_load " + shape):
            qnet.load_power_map(spec, [0.0], square)
        with pytest.raises(ValidationError, match="load gamma_load " + shape):
            qnet.load_sweep(spec, square)

    def test_number_is_a_one_point_axis(self):
        spec = make_random_network(3, 5)
        power = qnet.load_power_map(spec, 0.25, 1.5)
        assert power.shape == (1, 1)
        assert np.array_equal(power, qnet.load_power_map(spec, [0.25], [1.5]))
        assert np.array_equal(qnet.load_sweep(spec, 1.5), qnet.load_sweep(spec, [1.5]))

    def test_map_overflowing_decay_is_singular_without_warnings(self):
        spec = make_random_network(2, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularNetwork, match="^grid load power overflows$"):
                qnet.load_power_map(spec, [0.0], [1e308])

    def test_grid_check_never_calls_the_fast_solver(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("grid_check called the fast path's solver")

        monkeypatch.setattr(qnet.thevenin, "solve_amplitudes", boom, raising=False)
        monkeypatch.setattr(qnet.steady, "solve_amplitudes", boom)
        check = qnet.grid_check(make_random_network(5, 11))
        assert check.within_one_cell
        assert abs(check.p_refined - check.predicted.p_max) <= 1e-10 * check.predicted.p_max

    def test_grid_check_on_an_undriven_network_is_within_one_cell(self):
        # every cell delivers the predicted 0, so argmax's first cell is a maximum too
        check = qnet.grid_check(make_random_network(5, 11).with_drive(rabi=0.0))
        assert check.predicted.p_max == 0.0
        assert check.p_grid_max == 0.0
        assert check.within_one_cell

    def test_grid_check_is_capped_when_rounding_stops_the_widths(self, monkeypatch):
        # the matched delta_omega is 1e5 - 1, so the nested boxes stop shrinking
        # some ulps wide, above 1e-9 of two cells, and the cap of 60 grids ends
        # the search
        calls = []
        power_map = qnet.thevenin.load_power_map
        monkeypatch.setattr(qnet.thevenin, "load_power_map", lambda *args: calls.append(1) or power_map(*args))
        check = qnet.grid_check(network([1e5], [1.0], drive=dict(omega_d=1.0)))
        assert check.within_one_cell
        assert abs(check.p_refined - check.predicted.p_max) <= 1e-10 * check.predicted.p_max
        assert len(calls) <= 61

    def test_refined_point_lies_within_one_cell_of_the_grid_argmax(self):
        check = qnet.grid_check(make_random_network(5, 3))
        assert abs(check.refined_delta_omega - check.argmax_delta_omega) <= check.cell_delta
        assert abs(check.refined_gamma_load - check.argmax_gamma_load) <= check.cell_gamma

    def test_grid_check_scans_a_fixed_200_by_200_grid(self):
        check = qnet.grid_check(make_random_network(2, 17))
        g_th = check.predicted.gamma_load
        assert qnet.thevenin.GRID_POINTS == 200
        assert check.cell_delta == pytest.approx(0.2 * g_th / 199, rel=1e-9)
        assert check.cell_gamma == pytest.approx(0.4 * g_th / 199, rel=1e-9)


def _points_per_chunk(n):
    return qnet.thevenin.GRID_CHUNK_BYTES // (n * n * 16)


class TestGridMapChunks:
    """load_power_map splits its grid into chunks of GRID_CHUNK_BYTES of
    matrices and maps them over a pool of one thread per usable CPU. A
    grid row no longer than one chunk runs inline, so row-by-row calls
    are the serial map."""

    @pytest.mark.parametrize(
        "n, rows, cpus", [(10, 7, None), (50, 30, None), (10, 30, 8)],
        ids=["n10", "n50", "n10-8-workers"],
    )
    def test_map_is_bitwise_the_row_by_row_map(self, n, rows, cpus, monkeypatch):
        if cpus is not None:  # more workers than this machine has cores
            monkeypatch.setattr(qnet.thevenin, "_usable_cpus", lambda: cpus)
        started = []

        class SpyThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", SpyThread)
        spec = make_random_network(n, 5)
        matched = qnet.matched_load(spec)
        deltas = matched.delta_omega + np.linspace(-1.0, 1.0, rows) * matched.gamma_load
        # rows of two thirds of a chunk, so chunks straddle row boundaries
        gammas = np.linspace(0.5, 1.5, 2 * _points_per_chunk(n) // 3) * matched.gamma_load
        serial = np.vstack([qnet.load_power_map(spec, [d], gammas) for d in deltas])
        assert started == []

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
        try:
            power = qnet.load_power_map(spec, deltas, gammas)
        finally:
            sys.setswitchinterval(interval)
        chunks = -(-power.size // _points_per_chunk(n))
        assert chunks > 1
        workers = min(qnet.thevenin._usable_cpus(), chunks)
        assert len(started) == (workers if workers > 1 else 0)  # one worker runs inline
        assert power.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("deltas, gammas", [([], [1.0, 2.0]), ([0.1], [])])
    def test_empty_grid_gives_an_empty_map(self, deltas, gammas):
        power = qnet.load_power_map(make_random_network(5, 1), deltas, gammas)
        assert power.shape == (len(deltas), len(gammas))

    def test_first_failing_chunk_in_grid_order_raises(self, monkeypatch):
        spec = make_random_network(50, 5)
        load = spec.load.node
        base_imag = qnet.effective_matrix(spec, loaded=False)[load, load].imag
        deltas = np.arange(6.0)
        gammas = np.ones(_points_per_chunk(50))  # chunk k is grid row k
        solve = np.linalg.solve

        def failing_solve(a, b):
            row = round(a[0, load, load].imag - base_imag)
            if row == 1:
                time.sleep(0.2)  # fails last in time, first in grid order
            if row in (1, 2, 3):
                raise np.linalg.LinAlgError(f"chunk {row}")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        threads_before = threading.active_count()
        with pytest.raises(SingularNetwork, match="^chunk 1$"):
            qnet.load_power_map(spec, deltas, gammas)
        assert threading.active_count() == threads_before

    def test_residual_miss_in_a_pool_chunk_is_singular(self, monkeypatch):
        # six chunks on two pool threads; chunk 4 misses the residual bound, so
        # its error reaches the caller through the pool
        monkeypatch.setattr(qnet.thevenin, "_usable_cpus", lambda: 2)
        spec = make_random_network(50, 5)
        load = spec.load.node
        base_imag = qnet.effective_matrix(spec, loaded=False)[load, load].imag
        gammas = np.ones(_points_per_chunk(50))  # chunk k is grid row k
        solve = np.linalg.solve
        failed_on = []

        def off_solve(a, b):
            if round(a[0, load, load].imag - base_imag) != 4:
                return solve(a, b)
            failed_on.append(threading.current_thread())
            return solve(a, b) * (1 + 1e-6)

        monkeypatch.setattr(np.linalg, "solve", off_solve)
        with pytest.raises(SingularNetwork, match=r"^grid solve residual \S+ exceeds 1e-10 \* \|rhs\|$"):
            qnet.load_power_map(spec, np.arange(6.0), gammas)
        assert len(failed_on) == 1 and failed_on[0] is not threading.main_thread()

    def test_a_failing_chunk_stops_the_map(self, monkeypatch):
        # 385 chunks of a 200 x 200 grid; chunk 0 fails, so only the chunks
        # already running may be solved after it
        monkeypatch.setattr(qnet.thevenin, "_usable_cpus", lambda: 2)
        spec = make_random_network(50, 5)
        load = spec.load.node
        deltas, gammas = np.linspace(-1.0, 1.0, 200), np.linspace(0.5, 1.5, 200)
        first = qnet.effective_matrix(spec, loaded=False)[load, load] + qnet.steady._load_term(
            deltas[0], gammas[0]
        )
        solve = np.linalg.solve
        calls = []

        def failing_solve(a, b):
            calls.append(a.shape[0])
            if a[0, load, load] == first:
                raise np.linalg.LinAlgError("chunk 0")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        with pytest.raises(SingularNetwork, match="^chunk 0$"):
            qnet.load_power_map(spec, deltas, gammas)
        assert len(calls) <= 2 * 2

    def test_no_chunk_is_solved_after_a_failure(self, monkeypatch):
        # chunk 0 fails; a chunk that a worker takes after that returns
        # unsolved, however soon the worker takes it
        monkeypatch.setattr(qnet.thevenin, "_usable_cpus", lambda: 2)
        spec = make_random_network(50, 5)
        load = spec.load.node
        deltas, gammas = np.linspace(-1.0, 1.0, 200), np.linspace(0.5, 1.5, 200)
        first = qnet.effective_matrix(spec, loaded=False)[load, load] + qnet.steady._load_term(
            deltas[0], gammas[0]
        )
        solve = np.linalg.solve
        failed = threading.Event()
        late = []

        def failing_solve(a, b):
            if failed.is_set():
                late.append(a[0, load, load])
            if a[0, load, load] == first:
                failed.set()
                raise np.linalg.LinAlgError("chunk 0")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        with pytest.raises(SingularNetwork, match="^chunk 0$"):
            qnet.load_power_map(spec, deltas, gammas)
        assert late == []

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(qnet.thevenin.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(qnet.thevenin.os, "cpu_count", lambda: 3)
        assert qnet.thevenin._usable_cpus() == 3
        monkeypatch.setattr(qnet.thevenin.os, "cpu_count", lambda: None)
        assert qnet.thevenin._usable_cpus() == 1

    def test_map_memory_is_bounded_by_the_chunk_bytes(self):
        # a stack of all 100 matrices of this grid would take 64 MB
        spec = make_random_network(200, 1)
        matched = qnet.matched_load(spec)
        deltas = matched.delta_omega + np.linspace(-1.0, 1.0, 10) * matched.gamma_load
        gammas = np.linspace(0.5, 1.5, 10) * matched.gamma_load
        chunks = -(-deltas.size * gammas.size // _points_per_chunk(200))
        workers = min(qnet.thevenin._usable_cpus(), chunks)
        tracemalloc.start()
        try:
            qnet.load_power_map(spec, deltas, gammas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * qnet.thevenin.GRID_CHUNK_BYTES * workers
