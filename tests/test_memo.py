"""The load-free resolvent pair a spec keeps and the check a spec gets
when it is built: how often each route validates and factors, that a
kept result is bitwise the fresh one, also with many threads, that the
pair dies with its spec and is never kept for a failure, that an invalid
copy raises where it is made, and that the oracles never read the pair."""
import dataclasses
import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import qnet
import qnet.network
import qnet.steady
import qnet.thevenin
from qnet.cli import SweepRequest, main, run_sweep
from qnet.errors import DarkNode, ValidationError

from conftest import make_random_network, two_node_resonant

TWO_NODE = str(Path(__file__).resolve().parent.parent / "configs" / "two_node.json")


@pytest.fixture
def counts(monkeypatch):
    """Live counts of validate calls and of LU factorizations."""
    seen = {"validate": 0, "lu": 0}
    validate = qnet.network.validate

    def counting_validate(spec):
        seen["validate"] += 1
        return validate(spec)

    class CountingFactorization(qnet.steady._Factorization):
        def __init__(self, matrix):
            seen["lu"] += 1
            super().__init__(matrix)

    monkeypatch.setattr(qnet.network, "validate", counting_validate)
    monkeypatch.setattr(qnet.steady, "_Factorization", CountingFactorization)
    monkeypatch.setattr(qnet.thevenin, "_Factorization", CountingFactorization)
    return seen


def fresh(spec):
    """An equal spec that keeps no resolvent pair yet."""
    return dataclasses.replace(spec)


class TestCounts:
    def test_design_study(self, counts):
        # solve, reduce, match, solve at the match: the reduction and the
        # match share one factorization, and only the with_load probe is
        # checked, when it is built
        for n in (2, 10, 50):
            spec = fresh(make_random_network(n, 0))
            before = dict(counts)
            qnet.power_report(spec, qnet.solve_amplitudes(spec))
            qnet.thevenin_equivalent(spec)
            matched = qnet.matched_load(spec)
            probe = spec.with_load(delta_omega=matched.delta_omega, gamma_load=matched.gamma_load)
            qnet.power_report(probe, qnet.solve_amplitudes(probe))
            assert counts["lu"] - before["lu"] == 3
            assert counts["validate"] - before["validate"] == 1

    def test_grid_check(self, counts):
        spec = two_node_resonant()
        assert counts == {"validate": 1, "lu": 0}
        qnet.grid_check(spec)
        assert counts == {"validate": 1, "lu": 1}

    def test_cold_match_with_grid_check(self, counts, capsys):
        assert main(["match", "--config", TWO_NODE, "--grid-check"]) == 0
        capsys.readouterr()
        assert counts == {"validate": 1, "lu": 1}

    def test_gamma_load_sweep(self, counts):
        run_sweep(SweepRequest(TWO_NODE, "gamma_load", 0.1, 5.0, 7))
        assert counts == {"validate": 1, "lu": 1}

    def test_with_load_copy_is_a_miss(self, counts):
        spec = make_random_network(5, 1)
        counts.update(validate=0, lu=0)
        qnet.thevenin_equivalent(spec)
        qnet.thevenin_equivalent(spec.with_load(gamma_load=2.0))
        assert counts == {"validate": 1, "lu": 2}

    def test_interleaved_specs_keep_their_own_pairs(self, counts):
        a, b = make_random_network(5, 1), make_random_network(6, 2)
        counts.update(lu=0)
        for spec in (a, b, a, b):
            qnet.matched_load(spec)
        assert counts["lu"] == 2

    def test_routes_never_check_an_existing_spec(self, counts):
        spec = two_node_resonant().with_load(gamma_load=1.0)
        counts.update(validate=0)
        qnet.solve_amplitudes(spec)
        qnet.thevenin_equivalent(spec)
        qnet.matched_load(spec)
        qnet.load_sweep(spec, [0.5, 1.0])
        qnet.grid_check(spec)
        qnet.thevenin_by_elimination(spec)
        qnet.time_domain_steady_state(spec)
        qnet.load_power_map(spec, [0.0], [1.0])
        qnet.oracle_report(spec, n_max=2)
        assert counts["validate"] == 0


class TestMemoisedEqualsFresh:
    @pytest.mark.parametrize("n,seed", [(2, 0), (10, 3), (50, 1)])
    def test_bitwise(self, n, seed):
        spec = make_random_network(n, seed)
        gammas = np.geomspace(0.05, 20.0, 9)
        routes = (qnet.thevenin_equivalent, qnet.matched_load, lambda s: qnet.load_sweep(s, gammas))
        # the second and third calls on `spec` read the pair it keeps ...
        memoised = [route(spec) for route in routes]
        assert spec._resolvent is not None
        # ... and each call on a copy factors afresh
        copies = [fresh(spec) for _ in routes]
        assert all(copy._resolvent is None for copy in copies)
        fresh_results = [route(copy) for route, copy in zip(routes, copies)]
        assert memoised[0] == fresh_results[0]
        assert memoised[1] == fresh_results[1]
        assert memoised[2].tobytes() == fresh_results[2].tobytes()

    def test_memoised_columns_are_read_only(self):
        spec = make_random_network(5, 0)
        x, y = qnet.thevenin._resolvent_pair(spec)
        assert not x.flags.writeable and not y.flags.writeable
        assert qnet.thevenin._resolvent_pair(spec)[0] is x

    def test_threads_each_get_their_own_specs_pair(self):
        # single-node specs keep each factorization short; with them a pair
        # shared by all threads was swapped inside a call in every run
        specs = [make_random_network(1, seed) for seed in range(8)]
        expected = [qnet.thevenin_equivalent(fresh(spec)) for spec in specs]
        start = threading.Barrier(len(specs))

        def wrong_results(k):
            start.wait()
            return sum(qnet.thevenin_equivalent(specs[k]) != expected[k] for _ in range(1000))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(len(specs)) as pool:
                wrong = list(pool.map(wrong_results, range(len(specs))))
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [0] * len(specs)


class TestLifetime:
    def test_memos_do_not_keep_a_spec_alive(self):
        spec = fresh(make_random_network(10, 2))
        qnet.load_sweep(spec, [0.5, 1.0])
        alive = weakref.ref(spec)
        pair_alive = weakref.ref(spec._resolvent[0])
        del spec
        gc.collect()
        assert alive() is None
        assert pair_alive() is None

    def test_invalid_copy_raises_where_it_is_made(self):
        spec = two_node_resonant()
        qnet.thevenin_equivalent(spec)
        pair = spec._resolvent
        copies = {
            "load decay must be >= 0": lambda: spec.with_load(gamma_load=-1.0),
            "load delta_omega must be finite": lambda: spec.with_load(delta_omega=np.nan),
            "drive frequency must be positive": lambda: spec.with_drive(omega_d=0.0),
            "couplings not symmetric": lambda: dataclasses.replace(
                spec, couplings=np.array([[0.0, 2.0], [2.1, 0.0]])
            ),
            "intrinsic decay must be >= 0": lambda: dataclasses.replace(
                spec, intrinsic_decays=np.array([1.3, -0.5])
            ),
        }
        for _ in range(2):
            for message, copy in copies.items():
                with pytest.raises(ValidationError, match=message):
                    copy()
        # the valid spec still holds its pair
        assert spec._resolvent is pair

    def test_dark_node_is_not_remembered(self):
        # a lossless resonant first node makes the load-node resolvent vanish
        dark = dataclasses.replace(two_node_resonant(), intrinsic_decays=np.array([0.0, 0.7]))
        lit = two_node_resonant()
        qnet.thevenin_equivalent(lit)
        pair = lit._resolvent
        for _ in range(2):
            with pytest.raises(DarkNode):
                qnet.thevenin_equivalent(dark)
            assert dark._resolvent is None
            assert lit._resolvent is pair


class TestOraclesIgnoreTheMemo:
    def test_poisoned_memo_reaches_only_the_fast_routes(self):
        spec = make_random_network(5, 4)
        truth = qnet.thevenin_equivalent(spec)
        x, y = qnet.thevenin._resolvent_pair(spec)
        object.__setattr__(spec, "_resolvent", (2.0 * x, 2.0 * y))
        # the fast route reads the poisoned pair ...
        assert qnet.thevenin_equivalent(spec).h_th == pytest.approx(truth.h_th / 2.0, rel=1e-12)
        # ... and no oracle does
        elimination = qnet.thevenin_by_elimination(spec)
        assert elimination.h_th == pytest.approx(truth.h_th, rel=1e-10)
        full = qnet.solve_amplitudes(spec).amplitudes[spec.load.node]
        reduced = qnet.load_amplitude_from_thevenin(truth, spec.load)
        assert full == pytest.approx(reduced, rel=1e-10)
        grid = qnet.load_power_map(spec, [spec.load.delta_omega], [spec.load.gamma_load])
        p_l = qnet.power_report(spec, qnet.solve_amplitudes(spec)).p_l
        assert grid[0, 0] == pytest.approx(p_l, rel=1e-10)
