"""Property tests on random weak-coupling networks: the resolvent and
elimination routes agree, the reduced load amplitude equals the full solve
(also on banded networks factored in band storage), the equivalent is
passive, a matched load takes at most half the power, gamma_th equals its
loss-weighted identity, the steady state balances input against dissipated
power, and configs survive a round trip. A config fuzzer checks that the
CLI answers every mutated config with a documented exit code and strict
JSON, and a failing property is reported under this project's pytest
settings."""
import contextlib
import dataclasses
import io
import json
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import qnet  # noqa: E402
from qnet import steady  # noqa: E402
from qnet.cli import main  # noqa: E402

from conftest import (  # noqa: E402
    bundled_config, child, lossless_resonant_node, make_random_network, network, strict_json,
)

_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def weak_coupling_networks(draw, max_nodes=12, banded=False):
    """Networks with N <= max_nodes nodes near 1000, losses in [0.1, 2] and
    couplings of magnitude at most 5, driven and loaded anywhere. With
    `banded`, N >= 9 and only nodes at most k apart in index are coupled,
    with 8 k < N, so that every matrix is factored in band storage."""
    n = draw(st.integers(9 if banded else 1, max_nodes))
    frequencies = draw(st.lists(st.floats(995.0, 1005.0, **_finite), min_size=n, max_size=n))
    decays = draw(st.lists(st.floats(0.1, 2.0, **_finite), min_size=n, max_size=n))
    reach = draw(st.integers(1, (n - 1) // 8)) if banded else n - 1
    rows, cols = np.triu_indices(n, 1)
    inside = cols - rows <= reach
    size = int(inside.sum())
    upper = draw(st.lists(st.floats(-5.0, 5.0, **_finite), min_size=size, max_size=size))
    couplings = np.zeros((n, n))
    couplings[rows[inside], cols[inside]] = upper
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
_SUBNORMAL_LOAD_AMPLITUDE = network(
    [995.0, 995.0, 995.0], [0.5, 0.25, 0.125], {(0, 1): 3.59876162e-56, (1, 2): 9.80846761e-264},
    dict(node=2, omega_d=990.0, rabi=0.4375 + 0j), dict(node=0),
)


@settings(max_examples=100, deadline=None)
@given(weak_coupling_networks())
@example(lossless_resonant_node())
@example(lossless_resonant_node(j01=30.0, omega_d=1000.0 + 1e-13))
@example(lossless_resonant_node(j01=30.0, omega_d=1000.0 + 1e-10))
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
@given(weak_coupling_networks(max_nodes=60, banded=True))
def test_reduced_load_amplitude_matches_full_solve_in_band_storage(spec):
    assert 8 * steady._bandwidth(qnet.effective_matrix(spec)) < spec.n_nodes
    full = qnet.solve_amplitudes(spec).amplitudes[spec.load.node]
    reduced = qnet.load_amplitude_from_thevenin(qnet.thevenin_equivalent(spec), spec.load)
    assert _close(reduced, full)


@settings(max_examples=100, deadline=None)
@given(weak_coupling_networks())
def test_thevenin_equivalent_is_passive(spec):
    # every loss is at least 0.1, so the Hermitian part of H is -Gamma/2 < 0,
    # Re x_L = Re (H^-1)_LL < 0 and gamma_th = -2 Re(1 / x_L) > 0
    assert qnet.thevenin_equivalent(spec).gamma_th > 0


def _gamma_th_identity(spec):
    """gamma_th = sum_n gamma_n |x_n|^2 / |x_L|^2 with x = H^-1 e_L, from
    the real part of x^H H x = conj(x_L): a sum of nonnegative terms, so
    it suffers no cancellation."""
    x = np.linalg.solve(qnet.effective_matrix(spec, loaded=False), np.eye(spec.n_nodes)[spec.load.node])
    return float(np.sum(spec.intrinsic_decays * np.abs(x) ** 2) / np.abs(x[spec.load.node]) ** 2)


@settings(max_examples=100, deadline=None)
@given(weak_coupling_networks())
def test_gamma_th_identity(spec):
    assert _close(qnet.thevenin_equivalent(spec).gamma_th, _gamma_th_identity(spec))


@pytest.mark.parametrize("n", (2, 5, 10, 50))
def test_gamma_th_identity_on_corpus(n):
    for seed in range(5):
        spec = make_random_network(n, seed)
        assert _close(qnet.thevenin_equivalent(spec).gamma_th, _gamma_th_identity(spec))


@settings(max_examples=100, deadline=None)
@given(weak_coupling_networks())
def test_matched_load_takes_at_most_half(spec):
    matched = qnet.matched_load(spec)
    probe = spec.with_load(delta_omega=matched.delta_omega, gamma_load=matched.gamma_load)
    report = qnet.power_report(probe, qnet.solve_amplitudes(probe))
    assert report.eta is None or report.eta <= 0.5 + 1e-12


@settings(max_examples=100, deadline=None)
@given(weak_coupling_networks())
def test_power_balance(spec):
    report = qnet.power_report(spec, qnet.solve_amplitudes(spec))
    assert report.balance_residual <= 1e-8


@settings(max_examples=100, deadline=None)
@given(weak_coupling_networks())
def test_config_round_trip(spec):
    # a node taken from a numpy array is written as a JSON integer
    drive = dataclasses.replace(spec.drive, node=np.int64(spec.drive.node))
    spec = dataclasses.replace(spec, drive=drive)
    back = qnet.from_config_dict(json.loads(json.dumps(qnet.to_config_dict(spec))))
    for name in ("node_frequencies", "intrinsic_decays", "couplings"):
        assert np.array_equal(getattr(back, name), getattr(spec, name))
    assert back.drive == spec.drive
    assert back.load == spec.load


_BUNDLED = json.loads((Path(__file__).resolve().parent.parent / "configs" / "two_node.json").read_text())
_DELETE = object()


def _field_paths(node, prefix=()):
    """Every key path into a parsed config, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    paths = [prefix] if prefix else []
    for key, child in items:
        paths += _field_paths(child, prefix + (key,))
    return paths


_replacements = st.one_of(
    st.just(_DELETE),
    st.none(),
    st.booleans(),
    st.integers(10**300, 10**400) | st.integers(-(10**400), -(10**300)),
    st.sampled_from([1e308, -1e308]),
    st.text(max_size=5),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_field_paths(_BUNDLED)), _replacements)
@example(("edges",), None)
@example(("edges",), 5)
@example(("nodes", 0, "omega"), 10**400)
@example(("drive", "rabi_re"), 1e154)
@example(("drive", "rabi_re"), 1e308)
@example(("drive", "omega_d"), 1e308)
@example(("load", "gamma_load"), 1e308)
@example(("drive", "rabi_re"), 1e150)
@example(("drive", "omega_d"), 1e200)
def test_mutated_config_gets_a_documented_answer(path, value):
    def change(data):
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value

    with tempfile.TemporaryDirectory() as tmp:
        config = bundled_config(Path(tmp), change)
        for argv in (["solve"], ["thevenin"], ["match"], ["oracle", "--n-max", "2"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--config", config])
            assert code in (0, 2, 3, 4, 5)
            if code == 0:
                strict_json(out.getvalue())
            else:
                assert out.getvalue() == "" and err.getvalue().startswith("qnet: ")


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    # Hypothesis's failure report imports libcst, whose import warns; under
    # filterwarnings = error that warning must not abort the session
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 10

        def test_runs_after_it():
            pass
    """))
    settings_file = Path(__file__).resolve().parent.parent / "pyproject.toml"
    done = child(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(settings_file), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
