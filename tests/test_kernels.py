"""The RK4 relaxation recurrence against a plain fixed-step RK4 loop."""
import numpy as np
import pytest

import qnet
from qnet.steady import _rk4_fixed_point


def _system(n=12, seed=3):
    # oscillatory part from a real symmetric matrix, strict damping on the
    # diagonal: every eigenvalue has negative real part
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    a = 1j * (m + m.T) / 2.0 - np.diag(rng.uniform(0.5, 2.0, size=n))
    forcing = rng.normal(size=n) + 1j * rng.normal(size=n)
    return a, forcing


def _rk4_loop(a, forcing, dt, steps):
    """Reference: classical RK4 on dy/dt = a @ y + forcing from y = 0."""
    y = np.zeros(a.shape[0], dtype=complex)
    for _ in range(steps):
        k1 = a @ y + forcing
        k2 = a @ (y + 0.5 * dt * k1) + forcing
        k3 = a @ (y + 0.5 * dt * k2) + forcing
        k4 = a @ (y + dt * k3) + forcing
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def test_python_backend_always_available():
    assert qnet.BACKEND == "python"


@pytest.mark.parametrize("j", [0, 1, 4, 7, 10])
def test_recurrence_equals_step_loop(j):
    a, forcing = _system()
    # zero tolerance never stops early; the budget stops short of step 2^(j+1)
    y, steps, res = _rk4_fixed_point(a, forcing, 0.005, 2 ** (j + 1) - 1, 0.0)
    assert steps == 2**j
    expected = _rk4_loop(a, forcing, 0.005, 2**j)
    assert np.linalg.norm(y - expected) <= 1e-12 * np.linalg.norm(expected)
    assert res == pytest.approx(np.linalg.norm(a @ y + forcing), rel=1e-12)


def test_converged_result_is_the_fixed_point():
    a, forcing = _system()
    tol = 1e-12 * np.linalg.norm(forcing)
    y, steps, res = _rk4_fixed_point(a, forcing, 0.01, 100_000, tol)
    assert res <= tol
    assert steps < 100_000
    fixed = np.linalg.solve(a, -forcing)
    assert np.linalg.norm(y - fixed) / np.linalg.norm(fixed) < 1e-10


def test_zero_budget_returns_initial_state():
    a, forcing = _system(n=4)
    y, steps, res = _rk4_fixed_point(a, forcing, 0.01, 0, 0.0)
    assert np.all(y == 0.0)
    assert steps == 0
    assert res == pytest.approx(np.linalg.norm(forcing))


def test_zero_forcing_converges_immediately():
    a, _ = _system(n=4)
    y, steps, res = _rk4_fixed_point(a, np.zeros(4, complex), 0.01, 1000, 0.0)
    assert np.all(y == 0.0)
    assert steps == 0
    assert res == 0.0
