"""Shared corpus of seeded random networks and load settings, and the
helpers that build every hand-made network, mutated config and child
interpreter of the suite."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qnet

ROOT = Path(__file__).resolve().parent.parent
CORPUS_SIZES = (2, 5, 10, 50)
SEEDS_PER_SIZE = 26
LOADS_PER_NETWORK = 10


def network(frequencies, decays, edges={}, drive={}, load={}):
    """A hand-made network. The node frequencies and decays pass through as
    given; `edges` maps node pairs (i, j) to couplings J, set symmetrically.
    `drive` and `load` are DriveSpec and LoadSpec keywords over the defaults
    node=0, omega_d=1000, rabi=0.1 and node=N - 1, no load."""
    n = len(frequencies)
    couplings = np.zeros((n, n))
    for (i, j), value in edges.items():
        couplings[i, j] = couplings[j, i] = value
    return qnet.NetworkSpec(
        frequencies, decays, couplings,
        qnet.DriveSpec(**{"node": 0, "omega_d": 1000.0, "rabi": 0.1, **drive}),
        qnet.LoadSpec(**{"node": n - 1, **load}),
    )


def bundled_config(tmp_path, change):
    """Write configs/two_node.json to tmp_path / "bad.json" after
    change(data) has edited its parsed JSON in place or returned the data
    to write instead; return the path."""
    data = json.loads((ROOT / "configs" / "two_node.json").read_text())
    changed = change(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data if changed is None else changed))
    return str(path)


def child(argv, cwd=None):
    """Run `python *argv` in a new interpreter with src/ on the path and
    return the finished process with its text output."""
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )


def _drive_and_load(rng, n):
    """Keywords of a complex drive at node 0 and a generic load at node n - 1."""
    drive = dict(
        node=0,
        omega_d=1000.0 + rng.uniform(-4.0, 4.0),
        rabi=rng.uniform(0.05, 0.3) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)),
    )
    load = dict(
        node=n - 1,
        delta_omega=rng.uniform(-2.0, 2.0),
        gamma_load=float(np.exp(rng.uniform(np.log(0.2), np.log(5.0)))),
    )
    return drive, load


def make_random_network(n, seed, gamma=1.0, j_avg=2.5, j_std=1.0):
    """Deterministic random all-to-all network with a complex drive and a
    generic load attachment."""
    drive, load = _drive_and_load(np.random.default_rng(10_000 + 131 * n + seed), n)
    return qnet.build_random_all_to_all(
        n, 1000.0, j_avg, j_std, gamma, seed, qnet.DriveSpec(**drive), qnet.LoadSpec(**load)
    )


def sparse_edges(n, shape):
    """Coupled node pairs of a chain (bandwidth 1), a ladder (bandwidth 2:
    the even and the odd nodes form its two legs, and nodes 2r and 2r + 1
    its rungs) or a ring (a chain closed by the pair (0, n - 1), so its
    bandwidth is n - 1)."""
    chain = [(i, i + 1) for i in range(n - 1)]
    if shape == "chain":
        return chain
    if shape == "ring":
        return chain + [(0, n - 1)]
    if shape == "ladder":
        return [(i, i + 2) for i in range(n - 2)] + chain[::2]
    raise ValueError(shape)


def make_sparse_network(n, shape, seed):
    """Deterministic network with N(2.5, 1) couplings on the edges of
    `sparse_edges(n, shape)` only, losses in [0.5, 1.5] and the drive and
    load of make_random_network."""
    rng = np.random.default_rng(20_000 + 131 * n + seed)
    drive, load = _drive_and_load(rng, n)
    edges = sparse_edges(n, shape)
    weights = rng.normal(2.5, 1.0, size=len(edges))
    return network(np.full(n, 1000.0), rng.uniform(0.5, 1.5, size=n), dict(zip(edges, weights)), drive, load)


def load_settings(network_id, count=LOADS_PER_NETWORK):
    """Deterministic set of (delta_omega, gamma_load) probes per network."""
    rng = np.random.default_rng(77_000 + network_id)
    return [
        (float(rng.uniform(-3.0, 3.0)), float(np.exp(rng.uniform(np.log(0.05), np.log(10.0)))))
        for _ in range(count)
    ]


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not strict JSON."""
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="session")
def corpus():
    """The full acceptance corpus: 26 seeds per size in (2, 5, 10, 50)."""
    return [
        make_random_network(n, seed)
        for n in CORPUS_SIZES
        for seed in range(SEEDS_PER_SIZE)
    ]


@pytest.fixture(scope="session")
def small_corpus():
    """A light sample for unit-level property tests."""
    return [make_random_network(n, seed) for n in (2, 5, 10) for seed in range(3)]


def radiated_overflow():
    """Two weakly coupled lossy nodes driven so hard that the radiated
    power overflows double precision while the power delivered to the load
    stays finite."""
    return network([1000.0, 1000.0], [1.0, 1.0], {(0, 1): 1e-3}, dict(rabi=1e154), dict(gamma_load=1.0))


def thevenin_overflow():
    """Two nodes with losses of 1e-9 driven so hard that the Thevenin drive
    omega_th = y_L / x_L overflows double precision while h_th stays finite."""
    return network([1000.0, 1000.0], [1e-9, 1e-9], {(0, 1): 1.0}, dict(rabi=1e300), dict(gamma_load=1e-9))


def two_node_resonant(j=2.0, gamma_1=1.3, rabi=0.9, omega_0=1000.0):
    """Two nodes, everything on resonance, lossless load node. The case with
    hand-derivable equivalents: h_th = -2 j^2 / gamma_1, matched load
    gamma_load = 4 j^2 / gamma_1, maximum power omega_0 |rabi|^2 / gamma_1."""
    return network([omega_0, omega_0], [gamma_1, 0.0], {(0, 1): j}, dict(omega_d=omega_0, rabi=rabi))


def lossless_resonant_node(j01=3.0, omega_d=1000.0):
    """Three nodes with a lossless node 0 driven on its resonance through
    node 1, loaded at node 2. Node 0's diagonal entry of the load-free
    matrix is exactly zero, so elimination in node order without pivoting
    breaks down at once; with j01 = 30 and omega_d 1e-13 off resonance it
    takes a tiny pivot there and loses 7.9e-4 of h_th."""
    return network(
        [1000.0, 1000.3, 999.8], [0.0, 0.9, 0.4], {(0, 1): j01, (0, 2): 0.5, (1, 2): 2.0},
        dict(node=1, omega_d=omega_d), dict(node=2),
    )
