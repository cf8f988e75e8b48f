"""Network data model: node frequencies, intrinsic losses, symmetric real
couplings, one coherent drive and one dissipative load attachment.

All frequencies and rates are expressed in units of a reference decay rate,
with hbar = 1, so powers carry units of (rate)^2.
"""
from __future__ import annotations

import cmath
import dataclasses
import json
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "DriveSpec",
    "LoadSpec",
    "NetworkSpec",
    "Violation",
    "validate",
    "require_valid",
    "build_chain",
    "build_random_all_to_all",
    "from_config_dict",
    "to_config_dict",
    "load_config",
    "save_config",
]


@dataclass(frozen=True)
class DriveSpec:
    """Coherent drive on a single node: angular frequency omega_d and
    complex amplitude rabi."""

    node: int
    omega_d: float
    rabi: complex


@dataclass(frozen=True)
class LoadSpec:
    """Dissipative load attached to a single node: induced frequency shift
    delta_omega and outcoupling decay rate gamma_load."""

    node: int
    delta_omega: float = 0.0
    gamma_load: float = 0.0


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Immutable description of a driven, lossy coupling network.

    Attributes
    ----------
    node_frequencies : (N,) float array of bare node frequencies.
    intrinsic_decays : (N,) float array of nonnegative loss rates.
    couplings : (N, N) symmetric real hopping matrix, zero diagonal.
    drive : DriveSpec
    load : LoadSpec
    """

    node_frequencies: np.ndarray
    intrinsic_decays: np.ndarray
    couplings: np.ndarray
    drive: DriveSpec
    load: LoadSpec

    def __post_init__(self):
        for name in ("node_frequencies", "intrinsic_decays", "couplings"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_nodes(self) -> int:
        return len(self.node_frequencies)

    def with_load(self, delta_omega=None, gamma_load=None) -> "NetworkSpec":
        """Copy of this spec with load parameters replaced."""
        load = LoadSpec(
            node=self.load.node,
            delta_omega=self.load.delta_omega if delta_omega is None else delta_omega,
            gamma_load=self.load.gamma_load if gamma_load is None else gamma_load,
        )
        return dataclasses.replace(self, load=load)

    def with_drive(self, rabi=None, omega_d=None) -> "NetworkSpec":
        """Copy of this spec with drive parameters replaced."""
        drive = DriveSpec(
            node=self.drive.node,
            omega_d=self.drive.omega_d if omega_d is None else omega_d,
            rabi=self.drive.rabi if rabi is None else rabi,
        )
        return dataclasses.replace(self, drive=drive)


@dataclass(frozen=True)
class Violation:
    severity: str  # "error" or "warning"
    message: str


def validate(spec: NetworkSpec) -> list[Violation]:
    """Check a NetworkSpec against its invariants.

    Returns an empty list when everything holds. Dimension, finiteness,
    symmetry, sign and index problems are reported with severity "error"; the
    weak-coupling plausibility check (rates not small against the node
    frequencies) is reported as a "warning" only.
    """
    out = []
    err = lambda msg: out.append(Violation("error", msg))

    omega = spec.node_frequencies
    gamma = spec.intrinsic_decays
    J = spec.couplings
    n = len(omega)

    if n < 1:
        err("network must contain at least one node")
        return out
    if omega.ndim != 1 or gamma.shape != (n,):
        err(f"node_frequencies/intrinsic_decays shapes differ: {omega.shape} vs {gamma.shape}")
        return out
    if J.shape != (n, n):
        err(f"couplings must be {n}x{n}, got {J.shape}")
        return out

    for name, arr in (("node_frequencies", omega), ("intrinsic_decays", gamma), ("couplings", J)):
        if not np.isfinite(arr).all():
            first = np.argwhere(~np.isfinite(arr))[0]
            at = ",".join(map(str, first))
            err(f"{name} must be finite: {name}[{at}]={float(arr[tuple(first)])!r}")
    for name, value in (
        ("drive omega_d", spec.drive.omega_d),
        ("drive rabi", spec.drive.rabi),
        ("load delta_omega", spec.load.delta_omega),
        ("load gamma_load", spec.load.gamma_load),
    ):
        if not cmath.isfinite(value):
            err(f"{name} must be finite, got {value!r}")
    if out:
        # the checks below compare and rank values, which NaN and Infinity defeat
        return out

    if not np.array_equal(J, J.T):
        bad = np.argwhere(J != J.T)
        i, j = bad[0]
        err(f"couplings not symmetric: J[{i},{j}]={J[i, j]!r} != J[{j},{i}]={J[j, i]!r}")
    if np.any(np.diag(J) != 0.0):
        i = int(np.nonzero(np.diag(J))[0][0])
        err(f"couplings must have zero diagonal: J[{i},{i}]={J[i, i]!r}")
    if np.any(gamma < 0.0):
        i = int(np.argmin(gamma))
        err(f"intrinsic decay must be >= 0: gamma[{i}]={gamma[i]!r}")

    if not 0 <= spec.drive.node < n:
        err(f"drive node {spec.drive.node} out of range [0, {n})")
    if not spec.drive.omega_d > 0:
        err(f"drive frequency must be positive, got {spec.drive.omega_d!r}")
    if not 0 <= spec.load.node < n:
        err(f"load node {spec.load.node} out of range [0, {n})")
    if spec.load.gamma_load < 0:
        err(f"load decay must be >= 0: {spec.load.gamma_load!r}")

    # Born-Markov plausibility: rates should sit far below the node frequencies.
    rate_scale = max(
        float(np.abs(J).max(initial=0.0)),
        float(gamma.max(initial=0.0)),
        float(spec.load.gamma_load),
    )
    if n >= 1 and rate_scale >= float(omega.min()) / 10.0:
        out.append(
            Violation(
                "warning",
                "couplings/decays are not small against the node frequencies "
                f"(scale {rate_scale!r} vs min frequency {float(omega.min())!r}); "
                "the weak-coupling model may be inaccurate",
            )
        )
    return out


def require_valid(spec: NetworkSpec) -> None:
    """Raise ValidationError when the spec has error-severity violations."""
    problems = [v.message for v in validate(spec) if v.severity == "error"]
    if problems:
        raise ValidationError("; ".join(problems))


def build_chain(n_nodes, omega_0, j, gamma, drive: DriveSpec, load: LoadSpec) -> NetworkSpec:
    """Uniform nearest-neighbour chain.

    Every node gets frequency omega_0 and decay gamma; consecutive nodes are
    coupled with strength j. A single node has no neighbours and therefore a
    zero coupling matrix.
    """
    if n_nodes < 1:
        raise ValidationError(f"n_nodes must be >= 1, got {n_nodes}")
    couplings = np.zeros((n_nodes, n_nodes))
    idx = np.arange(n_nodes - 1)
    couplings[idx, idx + 1] = j
    couplings[idx + 1, idx] = j
    spec = NetworkSpec(
        node_frequencies=np.full(n_nodes, float(omega_0)),
        intrinsic_decays=np.full(n_nodes, float(gamma)),
        couplings=couplings,
        drive=drive,
        load=load,
    )
    require_valid(spec)
    return spec


def build_random_all_to_all(
    n_nodes, omega_0, j_avg, j_std, gamma, seed, drive: DriveSpec, load: LoadSpec
) -> NetworkSpec:
    """Dense network with normally distributed couplings.

    Each unordered node pair receives one draw from N(j_avg, j_std^2),
    assigned symmetrically. Draws are consumed in row-major pair order from
    a generator seeded with `seed`, so identical arguments reproduce the
    identical spec bit for bit. Negative draws are kept.
    """
    if n_nodes < 1:
        raise ValidationError(f"n_nodes must be >= 1, got {n_nodes}")
    if j_std < 0:
        raise ValidationError(f"j_std must be >= 0, got {j_std}")
    rng = np.random.default_rng(seed)
    couplings = np.zeros((n_nodes, n_nodes))
    iu = np.triu_indices(n_nodes, k=1)
    couplings[iu] = rng.normal(j_avg, j_std, size=len(iu[0]))
    couplings = couplings + couplings.T
    spec = NetworkSpec(
        node_frequencies=np.full(n_nodes, float(omega_0)),
        intrinsic_decays=np.full(n_nodes, float(gamma)),
        couplings=couplings,
        drive=drive,
        load=load,
    )
    require_valid(spec)
    return spec


# --- config file (JSON) serialization ---------------------------------------
#
# Schema: {"nodes": [{"omega": f, "gamma": f}, ...],
#          "edges": [{"i": int, "j": int, "J": f}, ...],   # unlisted -> 0
#          "drive": {"node": int, "omega_d": f, "rabi_re": f, "rabi_im": f},
#          "load":  {"node": int, "delta_omega": f, "gamma_load": f}}
# Indices are 0-based. An optional top-level "seed" records provenance of
# generated configs and is ignored when reading.


def _get(mapping, key, kind, where):
    try:
        value = mapping[key]
    except (KeyError, TypeError):
        raise ValidationError(f"missing field '{key}' in {where}") from None
    # int() would read true as 1 and truncate 1.5 to 1; indices must be exact
    if kind is int and (
        isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())
    ):
        raise ValidationError(f"field '{key}' in {where} must be int, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"field '{key}' in {where} must be {kind.__name__}, got {reprlib.repr(value)}"
        ) from None


def from_config_dict(data: dict) -> NetworkSpec:
    """Build a NetworkSpec from a parsed config dictionary."""
    if not isinstance(data, dict):
        raise ValidationError("config root must be a JSON object")
    nodes = data.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise ValidationError("config must list at least one node under 'nodes'")
    n = len(nodes)
    omega = np.array([_get(nd, "omega", float, f"nodes[{k}]") for k, nd in enumerate(nodes)])
    gamma = np.array([_get(nd, "gamma", float, f"nodes[{k}]") for k, nd in enumerate(nodes)])

    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise ValidationError(f"'edges' must be a list, got {edges!r}")
    couplings = np.zeros((n, n))
    seen = set()
    for k, edge in enumerate(edges):
        i = _get(edge, "i", int, f"edges[{k}]")
        j = _get(edge, "j", int, f"edges[{k}]")
        val = _get(edge, "J", float, f"edges[{k}]")
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"edges[{k}] index ({i},{j}) out of range for {n} nodes")
        if i == j:
            raise ValidationError(f"edges[{k}] is a self-coupling on node {i}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValidationError(f"edges[{k}] duplicates pair {key}")
        seen.add(key)
        couplings[i, j] = couplings[j, i] = val

    dr = data.get("drive")
    if dr is None:
        raise ValidationError("missing field 'drive' in config root")
    drive = DriveSpec(
        node=_get(dr, "node", int, "drive"),
        omega_d=_get(dr, "omega_d", float, "drive"),
        rabi=complex(_get(dr, "rabi_re", float, "drive"), _get(dr, "rabi_im", float, "drive")),
    )
    ld = data.get("load")
    if ld is None:
        raise ValidationError("missing field 'load' in config root")
    load = LoadSpec(
        node=_get(ld, "node", int, "load"),
        delta_omega=_get(ld, "delta_omega", float, "load"),
        gamma_load=_get(ld, "gamma_load", float, "load"),
    )

    spec = NetworkSpec(omega, gamma, couplings, drive, load)
    require_valid(spec)
    return spec


def to_config_dict(spec: NetworkSpec, seed=None) -> dict:
    """Serialize a NetworkSpec to the config schema (canonical edge order)."""
    n = spec.n_nodes
    data = {
        "nodes": [
            {"omega": float(spec.node_frequencies[k]), "gamma": float(spec.intrinsic_decays[k])}
            for k in range(n)
        ],
        "edges": [
            {"i": int(i), "j": int(j), "J": float(spec.couplings[i, j])}
            for i in range(n)
            for j in range(i + 1, n)
            if spec.couplings[i, j] != 0.0
        ],
        "drive": {
            "node": spec.drive.node,
            "omega_d": float(spec.drive.omega_d),
            "rabi_re": float(spec.drive.rabi.real),
            "rabi_im": float(spec.drive.rabi.imag),
        },
        "load": {
            "node": spec.load.node,
            "delta_omega": float(spec.load.delta_omega),
            "gamma_load": float(spec.load.gamma_load),
        },
    }
    if seed is not None:
        data["seed"] = int(seed)
    return data


def load_config(path) -> NetworkSpec:
    """Read and validate a network config file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
        except ValueError as exc:  # bytes not in UTF-8, or an int past the digit limit
            raise ValidationError(f"{path}: {exc}") from None
    return from_config_dict(data)


def save_config(spec: NetworkSpec, path, seed=None) -> None:
    """Write a network config file (deterministic layout)."""
    with open(path, "w") as fh:
        json.dump(to_config_dict(spec, seed=seed), fh, indent=2, sort_keys=True)
        fh.write("\n")
