"""Shared corpus of seeded random networks and load settings."""
import json

import numpy as np
import pytest

import qnet

CORPUS_SIZES = (2, 5, 10, 50)
SEEDS_PER_SIZE = 26
LOADS_PER_NETWORK = 10


def make_random_network(n, seed, gamma=1.0, j_avg=2.5, j_std=1.0):
    """Deterministic random all-to-all network with a complex drive and a
    generic load attachment."""
    rng = np.random.default_rng(10_000 + 131 * n + seed)
    drive = qnet.DriveSpec(
        node=0,
        omega_d=1000.0 + rng.uniform(-4.0, 4.0),
        rabi=rng.uniform(0.05, 0.3) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)),
    )
    load = qnet.LoadSpec(
        node=n - 1,
        delta_omega=rng.uniform(-2.0, 2.0),
        gamma_load=float(np.exp(rng.uniform(np.log(0.2), np.log(5.0)))),
    )
    return qnet.build_random_all_to_all(n, 1000.0, j_avg, j_std, gamma, seed, drive, load)


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


def two_node_resonant(j=2.0, gamma_1=1.3, rabi=0.9, omega_0=1000.0):
    """Two nodes, everything on resonance, lossless load node. The case with
    hand-derivable equivalents: h_th = -2 j^2 / gamma_1, matched load
    gamma_load = 4 j^2 / gamma_1, maximum power omega_0 |rabi|^2 / gamma_1."""
    return qnet.NetworkSpec(
        node_frequencies=np.array([omega_0, omega_0]),
        intrinsic_decays=np.array([gamma_1, 0.0]),
        couplings=np.array([[0.0, j], [j, 0.0]]),
        drive=qnet.DriveSpec(node=0, omega_d=omega_0, rabi=rabi),
        load=qnet.LoadSpec(node=1, delta_omega=0.0, gamma_load=0.0),
    )
