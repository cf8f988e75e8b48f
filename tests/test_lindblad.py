"""Density-matrix ground truth: generator structure, steady states,
moments, and cross-validation of the amplitude route. The product's
matrix form (qnet.build_liouvillian, qnet.steady_state_density) is checked
against the sparse vectorized Liouvillian of liouvillian_reference and
against the term-by-term master equation."""
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import qnet
import qnet.cli
from qnet.errors import CapacityError, NonUniqueSteadyState, QnetError, SingularNetwork, ValidationError

import liouvillian_reference as reference
from conftest import make_random_network, network

TWO_NODE = Path(__file__).resolve().parent.parent / "configs" / "two_node.json"
WEAK_DRIVE = 0.05 * np.exp(0.6j)  # |rabi| = 0.05 * gamma with a nontrivial phase


def _one_node(gamma=1.0, rabi=0.0 + 0.0j, omega_d=1000.0, gamma_load=0.0):
    return network([1000.0], [gamma], {}, dict(omega_d=omega_d, rabi=rabi), dict(gamma_load=gamma_load))


def _two_node(rabi=WEAK_DRIVE, delta_omega=0.3, gamma_load=0.4):
    """Weak coherent drive on a lossy pair; occupations stay far below the
    truncation so the Fock-space route converges quickly."""
    return network(
        [1000.0, 1000.0], [1.0, 1.0], {(0, 1): 2.5}, dict(omega_d=1002.5, rabi=rabi),
        dict(delta_omega=delta_omega, gamma_load=gamma_load),
    )


class TestFockConfig:
    def test_dimension(self):
        assert qnet.FockConfig(n_max=5, nodes=2).dim == 36

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            qnet.FockConfig(n_max=64, nodes=2)  # 65^2 > 1024

    def test_cap_boundary_allowed(self):
        assert qnet.FockConfig(n_max=31, nodes=2).dim == 1024

    @pytest.mark.parametrize("n_max, nodes, dim", [(32, 2, 1089), (3, 6, 4096)])
    def test_a_dimension_the_oracle_cannot_finish_is_refused(self, n_max, nodes, dim):
        # dim 1024 took 144 s; dim 4096 would take hours
        with pytest.raises(
            CapacityError, match=rf"^Fock dimension {dim} exceeds the cap of 1024 \(n_max={n_max}, nodes={nodes}\)$"
        ):
            qnet.FockConfig(n_max=n_max, nodes=nodes)

    def test_cutoff_must_be_positive(self):
        with pytest.raises(ValidationError, match="^n_max must be >= 1, got 0$"):
            qnet.FockConfig(n_max=0, nodes=1)

    def test_node_count_must_be_positive(self):
        with pytest.raises(ValidationError, match="^nodes must be >= 1, got 0$"):
            qnet.FockConfig(n_max=2, nodes=0)

    @pytest.mark.parametrize(
        "sizes, name",
        [(dict(n_max=2.5, nodes=2), "n_max"), (dict(n_max=True, nodes=1), "n_max"),
         (dict(n_max=2, nodes=2.0), "nodes")],
    )
    def test_sizes_must_be_integers(self, sizes, name):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            qnet.FockConfig(**sizes)

    def test_oracle_refuses_a_fractional_cutoff(self):
        with pytest.raises(ValidationError, match="n_max must be an integer, got 2.5"):
            qnet.oracle_report(_two_node(), 2.5)


class TestGeneratorStructure:
    def test_amplitude_damping_spectrum(self):
        # resonant undriven two-level boson: rates 0, -g/2, -g/2, -g
        gamma = 0.8
        cfg = qnet.FockConfig(n_max=1, nodes=1)
        liou = reference.build_liouvillian(_one_node(gamma=gamma), cfg)
        eigs = np.sort(np.linalg.eigvals(liou.toarray()).real)
        assert np.allclose(eigs, [-gamma, -gamma / 2, -gamma / 2, 0.0], atol=1e-12)

    def test_trace_preservation(self):
        cfg = qnet.FockConfig(n_max=2, nodes=2)
        liou = reference.build_liouvillian(_two_node(), cfg)
        rng = np.random.default_rng(0)
        for _ in range(5):
            m = rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
            rho = m + m.conj().T
            drho = (liou @ rho.reshape(-1, order="F")).reshape((cfg.dim, cfg.dim), order="F")
            assert abs(np.trace(drho)) <= 1e-12 * np.abs(drho).max()

    def test_hermiticity_preservation(self):
        cfg = qnet.FockConfig(n_max=2, nodes=2)
        liou = reference.build_liouvillian(_two_node(), cfg)
        rng = np.random.default_rng(1)
        m = rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
        rho = m + m.conj().T
        drho = (liou @ rho.reshape(-1, order="F")).reshape((cfg.dim, cfg.dim), order="F")
        assert np.abs(drho - drho.conj().T).max() <= 1e-12 * np.abs(drho).max()

    def test_node_count_mismatch_rejected(self):
        for build in (qnet.build_liouvillian, reference.build_liouvillian):
            with pytest.raises(ValidationError, match="^FockConfig is for 3 nodes but the network has 2$"):
                build(_two_node(), qnet.FockConfig(n_max=2, nodes=3))

    def test_overflowing_load_rate_is_singular_without_warnings(self):
        # the load node's loss rate gamma_1 + gamma_load overflows
        spec = network([1000.0, 1000.0], [1.0, 1e308], {(0, 1): 2.5}, {}, dict(gamma_load=1e308))
        for build in (qnet.build_liouvillian, reference.build_liouvillian):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularNetwork, match="^generator entries overflow double precision$"):
                    build(spec, qnet.FockConfig(n_max=2, nodes=2))

    def test_sparse_output(self):
        liou = reference.build_liouvillian(_one_node(), qnet.FockConfig(n_max=2, nodes=1))
        assert sp.issparse(liou)

    def test_route_never_calls_the_amplitude_solver(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the density-matrix route called the amplitude route")

        for name in ("effective_matrix", "solve_amplitudes"):
            monkeypatch.setattr(qnet.steady, name, boom)
            monkeypatch.setattr(qnet.lindblad, name, boom, raising=False)
        spec = _two_node()
        cfg = qnet.FockConfig(n_max=3, nodes=2)
        for route in (qnet, reference):
            state = route.steady_state_density(route.build_liouvillian(spec, cfg), cfg)
            assert abs(np.trace(state.rho) - 1.0) <= 1e-10

    def test_the_reference_shares_no_algebra_with_the_matrix_form(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the sparse reference called the matrix form")

        for name in ("_non_hermitian", "_jumps", "_schur", "build_liouvillian", "steady_state_density"):
            monkeypatch.setattr(qnet.lindblad, name, boom)
        cfg = qnet.FockConfig(n_max=3, nodes=2)
        state = reference.steady_state_density(reference.build_liouvillian(_two_node(), cfg), cfg)
        assert abs(np.trace(state.rho) - 1.0) <= 1e-10


def _textbook_generator(spec, n_max):
    """Dense reference -i[H, rho] + sum_k r_k (a_k rho adag_k - {adag_k a_k, rho} / 2),
    with H assembled term by term from the Fock matrices; returns a map
    from rho to d rho / dt."""
    d, n = n_max + 1, spec.n_nodes
    single = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    ops = [np.kron(np.kron(np.eye(d**k), single), np.eye(d ** (n - k - 1))) for k in range(n)]
    numbers = [a.conj().T @ a for a in ops]
    h = sum((w - spec.drive.omega_d) * num for w, num in zip(spec.node_frequencies, numbers))
    for i in range(n):
        for j in range(i + 1, n):
            h = h + spec.couplings[i, j] * (ops[i].conj().T @ ops[j] + ops[j].conj().T @ ops[i])
    h = h - spec.load.delta_omega * numbers[spec.load.node]
    a_drive, rabi = ops[spec.drive.node], complex(spec.drive.rabi)
    h = h + np.conj(rabi) * a_drive + rabi * a_drive.conj().T
    rates = np.array(spec.intrinsic_decays, dtype=float)
    rates[spec.load.node] += spec.load.gamma_load

    def apply(rho):
        drho = -1j * (h @ rho - rho @ h)
        for rate, a, num in zip(rates, ops, numbers):
            drho = drho + rate * (a @ rho @ a.conj().T - 0.5 * (num @ rho + rho @ num))
        return drho

    return apply


TEXTBOOK_SPECS = {
    "one-node": (network(
        [1000.0], [0.7], {}, dict(node=0, omega_d=1000.9, rabi=0.3 - 0.2j),
        dict(node=0, delta_omega=0.4, gamma_load=0.5),
    ), 4),
    "two-node-lossless": (network(
        [1000.0, 1001.2], [0.8, 0.0], {(0, 1): 1.7}, dict(node=0, omega_d=1000.5, rabi=0.25j),
        dict(node=0, delta_omega=-0.6, gamma_load=0.3),
    ), 3),
    "three-node-chain": (network(
        [999.5, 1000.0, 1000.8], [0.5, 1.1, 0.0], {(0, 1): 1.3, (1, 2): -0.9},
        dict(node=0, omega_d=1000.2, rabi=0.2 * np.exp(2.1j)),
        dict(node=1, delta_omega=0.35, gamma_load=0.6),
    ), 2),
}


class TestTextbookForm:
    @pytest.mark.parametrize("name", list(TEXTBOOK_SPECS))
    def test_generator_matches_the_term_by_term_master_equation(self, name):
        spec, n_max = TEXTBOOK_SPECS[name]
        cfg = qnet.FockConfig(n_max=n_max, nodes=spec.n_nodes)
        liou = reference.build_liouvillian(spec, cfg)
        textbook = _textbook_generator(spec, n_max)
        rng = np.random.default_rng(3)
        for _ in range(3):
            m = rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
            rho = m + m.conj().T
            expected = textbook(rho)
            drho = (liou @ rho.reshape(-1, order="F")).reshape((cfg.dim, cfg.dim), order="F")
            assert np.linalg.norm(drho - expected) <= 1e-13 * np.linalg.norm(expected)


def _random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


# Tolerance of the matrix-form route against the sparse kernel solve. Both
# solves are backward stable, and the fixed point stops once no entry of
# rho moves by more than FIXED_POINT_TOL = 1e-14 in one step; 1e-12 leaves
# a hundredfold margin over that stop for a slow contraction and for the
# conditioning of either route. Observed: 1.7e-15 or less for the weak
# drives, 2.0e-14 at |rabi| = gamma, where the steps shrink more slowly.
RHO_ATOL = 1e-12

MATRIX_FORM_SPECS = {
    **TEXTBOOK_SPECS,
    "random-3-node-seed-0": (make_random_network(3, 0), 3),
    "random-3-node-seed-1": (make_random_network(3, 1), 3),
}


class TestMatrixForm:
    @pytest.mark.parametrize("name", list(MATRIX_FORM_SPECS))
    def test_matches_the_sparse_kernel_solve(self, name):
        spec, n_max = MATRIX_FORM_SPECS[name]
        cfg = qnet.FockConfig(n_max=n_max, nodes=spec.n_nodes)
        sparse = reference.steady_state_density(reference.build_liouvillian(spec, cfg), cfg).rho
        assert np.abs(qnet.steady_state_density(qnet.build_liouvillian(spec, cfg), cfg).rho - sparse).max() <= RHO_ATOL

    @pytest.mark.parametrize("name", list(TEXTBOOK_SPECS))
    def test_its_generator_matches_the_term_by_term_master_equation(self, name):
        # the bound of the vectorized generator's test: the rounding of a
        # few dozen terms per entry stays far below 1e-13 of the norm
        spec, n_max = TEXTBOOK_SPECS[name]
        cfg = qnet.FockConfig(n_max=n_max, nodes=spec.n_nodes)
        k, rates = qnet.lindblad._mode_matrix(spec)
        big = qnet.lindblad._non_hermitian(spec, cfg, k)
        textbook = _textbook_generator(spec, n_max)
        rng = np.random.default_rng(4)
        for _ in range(3):
            rho = _random_hermitian(rng, cfg.dim)
            expected = textbook(rho)
            drho = -1j * (big @ rho - rho @ big.conj().T) + qnet.lindblad._jumps(rho, rates, cfg)
            assert np.linalg.norm(drho - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_moments_match_the_operator_products(self):
        # moments() sums the terms of tr(a_m rho) and tr(adag_n a_m rho) with
        # the sparse operators in another order: 1e-13 of sum |rho| is ample
        spec, n_max = TEXTBOOK_SPECS["three-node-chain"]
        cfg = qnet.FockConfig(n_max=n_max, nodes=spec.n_nodes)
        rho = _random_hermitian(np.random.default_rng(5), cfg.dim)
        ops = reference.annihilators(cfg)
        amps, corr = qnet.moments(qnet.DensityState(rho=rho, config=cfg))
        expected_amps = np.array([(a @ rho).diagonal().sum() for a in ops])
        expected_corr = np.array([[(a_n.conj().T @ a_m @ rho).diagonal().sum() for a_m in ops] for a_n in ops])
        assert np.abs(amps - expected_amps).max() <= 1e-13 * np.abs(rho).sum()
        assert np.abs(corr - expected_corr).max() <= 1e-13 * np.abs(rho).sum()

    def test_a_drive_as_strong_as_the_loss_converges(self):
        # |rabi| = gamma takes about 45 steps, against 7 for a weak drive
        spec = _two_node(rabi=1.0)
        cfg = qnet.FockConfig(n_max=6, nodes=2)
        sparse = reference.steady_state_density(reference.build_liouvillian(spec, cfg), cfg).rho
        assert np.abs(qnet.steady_state_density(qnet.build_liouvillian(spec, cfg), cfg).rho - sparse).max() <= RHO_ATOL

    def test_an_undriven_network_relaxes_to_vacuum(self):
        # K has the vacuum in its kernel here, so S is singular along it
        cfg = qnet.FockConfig(n_max=3, nodes=2)
        rho = qnet.steady_state_density(qnet.build_liouvillian(_two_node(rabi=0.0), cfg), cfg).rho
        vacuum = np.zeros((cfg.dim, cfg.dim))
        vacuum[0, 0] = 1.0
        assert np.abs(rho - vacuum).max() <= RHO_ATOL

    def test_a_dark_mode_that_rounding_hides_never_settles(self):
        # (node 0 - node 2) / sqrt(2) lives on the lossless nodes and never
        # decays, but rounding puts its rate at -4.9e-18 in k, so the
        # eigenvalue test passes it and the fixed point never settles
        spec = network(
            [1000.0, 1000.2, 1000.0], [0.0, 1.0, 0.0], {(0, 1): 1.3, (1, 2): 1.3},
            dict(omega_d=1000.7, rabi=0.1), dict(node=1, gamma_load=0.5),
        )
        with pytest.raises(NonUniqueSteadyState, match="^fixed point not reached in 1000 steps"):
            qnet.oracle_report(spec, n_max=2)

    def test_a_state_past_the_cutoff_is_refused(self):
        spec = qnet.load_config(TWO_NODE).with_drive(rabi=10.0)
        with pytest.raises(
            CapacityError, match="^state does not fit n_max = 2: population 3.2e-01 at the cutoff of node 0$"
        ):
            qnet.oracle_report(spec, n_max=2)

    def test_the_cutoff_bound_is_below_an_even_spread_at_every_cutoff(self):
        # a drive that overfills the space spreads rho about evenly over
        # its n_max + 1 levels; the Poisson bound must refuse that spread
        assert qnet.lindblad._cutoff_bound(2) == pytest.approx(2.25 * np.exp(-1.5) / 2.0, rel=1e-14)
        assert all(1.0 / (n + 1) > qnet.lindblad._cutoff_bound(n) for n in range(1, qnet.lindblad.DIM_CAP))

    def test_an_overflowing_jump_weight_is_singular_without_warnings(self):
        # every entry of K fits, but r_1 n_max = 2e308 does not
        spec = network([1000.0, 1000.0], [1.0, 1e308], {(0, 1): 2.5})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularNetwork, match="^generator entries overflow double precision$"):
                qnet.oracle_report(spec, n_max=2)


class TestSteadyStateDensity:
    def test_undriven_relaxes_to_vacuum(self):
        cfg = qnet.FockConfig(n_max=3, nodes=1)
        state = qnet.steady_state_density(qnet.build_liouvillian(_one_node(), cfg), cfg)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(state.rho, expected, atol=1e-12)

    def test_invariants(self):
        cfg = qnet.FockConfig(n_max=4, nodes=2)
        spec = _two_node()
        state = qnet.steady_state_density(qnet.build_liouvillian(spec, cfg), cfg)
        assert abs(np.trace(state.rho) - 1.0) <= 1e-10
        assert np.abs(state.rho - state.rho.conj().T).max() <= 1e-10
        assert np.linalg.eigvalsh(0.5 * (state.rho + state.rho.conj().T)).min() >= -1e-8

    def test_one_node_weak_drive_matches_scalar_solve(self):
        gamma, rabi = 1.0, 0.05
        spec = _one_node(gamma=gamma, rabi=rabi)
        cfg = qnet.FockConfig(n_max=4, nodes=1)
        state = qnet.steady_state_density(qnet.build_liouvillian(spec, cfg), cfg)
        amp = qnet.moments(state)[0][0]
        assert abs(amp - (-2j * rabi / gamma)) / (2 * rabi / gamma) < 1e-4

    def test_two_node_weak_drive_matches_linear_solve(self):
        spec = _two_node()
        cfg = qnet.FockConfig(n_max=5, nodes=2)
        state = qnet.steady_state_density(qnet.build_liouvillian(spec, cfg), cfg)
        amps, _ = qnet.moments(state)
        linear = qnet.solve_amplitudes(spec).amplitudes
        assert np.linalg.norm(amps - linear) / np.linalg.norm(linear) < 1e-4

    def test_amplitude_residual_shrinks_with_cutoff(self):
        spec = _two_node()
        linear = qnet.solve_amplitudes(spec).amplitudes
        residuals = []
        for n_max in (2, 3, 4, 5):
            cfg = qnet.FockConfig(n_max=n_max, nodes=2)
            state = qnet.steady_state_density(qnet.build_liouvillian(spec, cfg), cfg)
            amps, _ = qnet.moments(state)
            residuals.append(np.linalg.norm(amps - linear) / np.linalg.norm(linear))
        assert all(a > b for a, b in zip(residuals, residuals[1:]))

    def test_degenerate_kernel_detected(self):
        # no dissipation at all: every diagonal state is stationary
        spec = network([1000.0], [0.0], drive=dict(omega_d=1000.4, rabi=0.0))
        cfg = qnet.FockConfig(n_max=2, nodes=1)
        with pytest.raises(NonUniqueSteadyState):
            qnet.steady_state_density(qnet.build_liouvillian(spec, cfg), cfg)

    def test_overflowing_kernel_norms_are_singular_without_warnings(self):
        # every generator entry is finite, but |L|_F^2 is not
        cfg = qnet.FockConfig(n_max=2, nodes=2)
        liou = reference.build_liouvillian(_two_node(rabi=1e150), cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularNetwork, match="^kernel residual or its scale overflows double"):
                reference.steady_state_density(liou, cfg)

    def test_generator_of_another_dimension_rejected(self):
        cfg = qnet.FockConfig(n_max=1, nodes=1)
        with pytest.raises(ValidationError, match=r"generator shape \(9, 9\) does not match dim 2"):
            reference.steady_state_density(sp.identity(9, dtype=complex, format="csr"), cfg)

    def test_generator_without_a_kernel_detected(self):
        # the trace row makes the identity's first row solvable, but the
        # solution then fails the unmodified generator
        cfg = qnet.FockConfig(n_max=1, nodes=1)
        with pytest.raises(NonUniqueSteadyState, match="kernel residual 1.000e[+]00 too large"):
            reference.steady_state_density(sp.identity(4, dtype=complex, format="csr"), cfg)

    def test_real_generator_gives_the_complex_routes_state(self):
        # on resonance and undriven, the 1-node generator has no imaginary part
        cfg = qnet.FockConfig(n_max=2, nodes=1)
        liou = reference.build_liouvillian(_one_node(gamma=0.7, gamma_load=0.5), cfg)
        assert not liou.imag.count_nonzero()
        rho = reference.steady_state_density(liou, cfg).rho
        real_rho = reference.steady_state_density(liou.real, cfg).rho
        assert real_rho.dtype == rho.dtype and real_rho.tobytes() == rho.tobytes()

    def test_real_generator_without_a_kernel_detected(self):
        cfg = qnet.FockConfig(n_max=1, nodes=1)
        with pytest.raises(NonUniqueSteadyState, match="kernel residual"):
            reference.steady_state_density(np.eye(4), cfg)

    def test_kernel_that_is_no_density_matrix_rejected(self):
        # the projector off vec(rho) has rho as its kernel: unit trace,
        # Hermitian, but with a negative eigenvalue
        cfg = qnet.FockConfig(n_max=1, nodes=1)
        vec = np.diag([1.5, -0.5]).astype(complex).reshape(-1, order="F")
        generator = np.eye(4) - np.outer(vec, vec.conj()) / np.vdot(vec, vec)
        with pytest.raises(QnetError, match="failed its invariants .* min eigenvalue -5.00e-01"):
            reference.steady_state_density(sp.csr_matrix(generator), cfg)

    def test_a_sparse_matrix_is_refused(self):
        cfg = qnet.FockConfig(n_max=1, nodes=1)
        liou = reference.build_liouvillian(_one_node(), cfg)
        with pytest.raises(ValidationError, match="^not a generator of build_liouvillian: csr_"):
            qnet.steady_state_density(liou, cfg)

    def test_a_generator_for_another_truncation_is_refused(self):
        spec = _two_node()
        with pytest.raises(
            ValidationError,
            match=r"^generator was built for FockConfig\(n_max=2, nodes=2\), not FockConfig\(n_max=3, nodes=2\)$",
        ):
            qnet.steady_state_density(qnet.build_liouvillian(spec, qnet.FockConfig(2, 2)), qnet.FockConfig(3, 2))

    @pytest.mark.parametrize(
        "wrong_build, message",
        [
            (reference.build_liouvillian, "not a generator of build_liouvillian: csr_matrix"),
            (lambda spec, cfg: qnet.build_liouvillian(spec, qnet.FockConfig(cfg.n_max + 1, cfg.nodes)),
             "generator was built for FockConfig(n_max=3, nodes=2), not FockConfig(n_max=2, nodes=2)"),
        ],
        ids=["sparse", "other-truncation"],
    )
    def test_a_wrong_generator_exits_2(self, capsys, monkeypatch, wrong_build, message):
        # oracle_report hands whatever build_liouvillian returns to steady_state_density
        monkeypatch.setattr(qnet.lindblad, "build_liouvillian", wrong_build)
        code = qnet.cli.main(["oracle", "--config", str(TWO_NODE), "--n-max", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"qnet: input error: {message}\n")

    def test_sparse_path_matches_scalar_solve(self):
        # a large truncation: the generator is 5041 x 5041
        gamma, rabi = 1.0, 0.05
        spec = _one_node(gamma=gamma, rabi=rabi)
        cfg = qnet.FockConfig(n_max=70, nodes=1)
        assert cfg.dim**2 > 4096
        state = reference.steady_state_density(reference.build_liouvillian(spec, cfg), cfg)
        amp = qnet.moments(state)[0][0]
        assert abs(amp - (-2j * rabi / gamma)) / (2 * rabi / gamma) < 1e-4


class TestMoments:
    def test_vacuum_moments(self):
        cfg = qnet.FockConfig(n_max=2, nodes=1)
        state = qnet.steady_state_density(qnet.build_liouvillian(_one_node(), cfg), cfg)
        amps, corr = qnet.moments(state)
        assert amps[0] == pytest.approx(0.0, abs=1e-12)
        assert corr[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert qnet.factorization_residual(state) == 0.0

    def test_occupation_bounds_amplitude(self):
        # Cauchy-Schwarz: <n> >= |<a>|^2
        spec = _two_node()
        cfg = qnet.FockConfig(n_max=4, nodes=2)
        state = qnet.steady_state_density(qnet.build_liouvillian(spec, cfg), cfg)
        amps, corr = qnet.moments(state)
        for k in range(2):
            occupation = corr[k, k].real
            assert occupation >= abs(amps[k]) ** 2 - 1e-12

    def test_factorization_residual_small_and_shrinking(self):
        spec = _two_node()
        residuals = []
        for n_max in (2, 3, 4, 5):
            cfg = qnet.FockConfig(n_max=n_max, nodes=2)
            state = qnet.steady_state_density(qnet.build_liouvillian(spec, cfg), cfg)
            residuals.append(qnet.factorization_residual(state))
        assert residuals[-1] <= 1e-3
        assert all(a > b for a, b in zip(residuals, residuals[1:]))


class TestOracleReport:
    def test_two_node_report(self):
        report = qnet.oracle_report(_two_node(), n_max=5)
        assert report["dim"] == 36
        assert report["amplitude_rel_discrepancy"] < 1e-4
        assert report["factorization_residual"] < 1e-3
        assert report["p_r_rel_discrepancy"] < 1e-3
        assert report["p_l_rel_discrepancy"] < 1e-3
        assert report["balance_rel_residual"] < 1e-3

    def test_report_echoes_a_numpy_cutoff_as_an_int(self):
        report = qnet.oracle_report(_two_node(), np.int64(2))
        assert type(report["n_max"]) is int
        json.dumps(report)

    def test_the_report_runs_each_stage_once(self, monkeypatch):
        calls = []
        build, solve = qnet.lindblad.build_liouvillian, qnet.lindblad.steady_state_density

        def spy_build(spec, cfg):
            calls.append(("build", cfg))
            return build(spec, cfg)

        def spy_solve(generator, cfg):
            calls.append(("solve", cfg))
            return solve(generator, cfg)

        monkeypatch.setattr(qnet.lindblad, "build_liouvillian", spy_build)
        monkeypatch.setattr(qnet.lindblad, "steady_state_density", spy_solve)
        qnet.oracle_report(_two_node(), n_max=3)
        cfg = qnet.FockConfig(n_max=3, nodes=2)
        assert calls == [("build", cfg), ("solve", cfg)]

    def test_capacity_propagates(self):
        with pytest.raises(CapacityError):
            qnet.oracle_report(_two_node(), n_max=100)

    def test_a_mode_that_never_decays_is_refused(self):
        # node 0 has no loss and no edge, so its driven mode oscillates forever
        spec = network([1000.0, 1000.0], [0.0, 1.24], drive=dict(omega_d=1000.5), load=dict(gamma_load=0.5))
        with pytest.raises(NonUniqueSteadyState, match=r"max Im eigenvalue of k 0\.000e\+00"):
            qnet.oracle_report(spec, n_max=3)
