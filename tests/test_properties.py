"""Property tests of the single-node reduction on random weak-coupling
networks: the resolvent and elimination routes agree, the reduced load
amplitude equals the full solve, and a matched load takes at most half the
power."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import qnet  # noqa: E402

_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def weak_coupling_networks(draw, max_nodes=12):
    """Networks with N <= 12 nodes near 1000, losses in [0.1, 2] and
    couplings of magnitude at most 5, driven and loaded anywhere."""
    n = draw(st.integers(1, max_nodes))
    frequencies = draw(st.lists(st.floats(995.0, 1005.0, **_finite), min_size=n, max_size=n))
    decays = draw(st.lists(st.floats(0.1, 2.0, **_finite), min_size=n, max_size=n))
    upper = draw(st.lists(st.floats(-5.0, 5.0, **_finite), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    couplings = np.zeros((n, n))
    couplings[np.triu_indices(n, 1)] = upper
    couplings += couplings.T
    rabi = draw(st.floats(0.01, 1.0, **_finite)) * np.exp(1j * draw(st.floats(0.0, 6.3, **_finite)))
    return qnet.NetworkSpec(
        node_frequencies=np.array(frequencies),
        intrinsic_decays=np.array(decays),
        couplings=couplings,
        drive=qnet.DriveSpec(
            node=draw(st.integers(0, n - 1)),
            omega_d=draw(st.floats(990.0, 1010.0, **_finite)),
            rabi=complex(rabi),
        ),
        load=qnet.LoadSpec(
            node=draw(st.integers(0, n - 1)),
            delta_omega=draw(st.floats(-3.0, 3.0, **_finite)),
            gamma_load=draw(st.floats(0.0, 10.0, **_finite)),
        ),
    )


def _close(a, b, rtol=1e-10):
    # relative to b, but never to less than the smallest normal double: a
    # subnormal result carries fewer significant bits than rtol asks for
    return abs(a - b) <= rtol * max(abs(b), np.finfo(float).tiny)


# Found by Hypothesis: couplings of 3.6e-56 and 9.8e-264 leave a load
# amplitude of 1.2e-321, a subnormal; the two routes land one subnormal
# step (4.9e-324) apart, 0.4 % of the value.
_SUBNORMAL_LOAD_AMPLITUDE = qnet.NetworkSpec(
    node_frequencies=np.array([995.0, 995.0, 995.0]),
    intrinsic_decays=np.array([0.5, 0.25, 0.125]),
    couplings=np.array([[0.0, 3.59876162e-56, 0.0],
                        [3.59876162e-56, 0.0, 9.80846761e-264],
                        [0.0, 9.80846761e-264, 0.0]]),
    drive=qnet.DriveSpec(node=2, omega_d=990.0, rabi=0.4375 + 0j),
    load=qnet.LoadSpec(node=0, delta_omega=0.0, gamma_load=0.0),
)


@settings(max_examples=100, deadline=None)
@given(weak_coupling_networks())
def test_resolvent_agrees_with_elimination(spec):
    res = qnet.thevenin_equivalent(spec)
    elim = qnet.thevenin_by_elimination(spec)
    assert _close(elim.h_th, res.h_th)
    assert _close(elim.omega_th, res.omega_th)


@settings(max_examples=100, deadline=None)
@given(weak_coupling_networks())
@example(_SUBNORMAL_LOAD_AMPLITUDE)
def test_reduced_load_amplitude_matches_full_solve(spec):
    full = qnet.solve_amplitudes(spec).amplitudes[spec.load.node]
    reduced = qnet.load_amplitude_from_thevenin(qnet.thevenin_equivalent(spec), spec.load)
    assert _close(reduced, full)


@settings(max_examples=100, deadline=None)
@given(weak_coupling_networks())
def test_matched_load_takes_at_most_half(spec):
    matched = qnet.matched_load(spec)
    probe = spec.with_load(delta_omega=matched.delta_omega, gamma_load=matched.gamma_load)
    report = qnet.power_report(probe, qnet.solve_amplitudes(probe))
    assert report.eta is None or report.eta <= 0.5 + 1e-12
