"""Network data model: node frequencies, intrinsic losses, symmetric real
couplings, one coherent drive and one dissipative load attachment.

All frequencies and rates are expressed in units of a reference decay rate,
with hbar = 1, so powers carry units of (rate)^2.
"""
from __future__ import annotations

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
    "validate",
    "build_chain",
    "build_random_all_to_all",
    "from_config_dict",
    "to_config_dict",
    "load_config",
    "save_config",
]


def _integer(name, value, minimum=None) -> int:
    """value as a Python int, or ValidationError naming the argument; True
    is not 1, nor 0.5 a node index or a count. A count below `minimum`
    fails too."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def _finite(name, values, kinds="iuf") -> np.ndarray:
    """The one rule for an input number: values, a scalar or an array of
    any rank, as a fresh float or complex array (0-d for a scalar) of
    finite numbers, or ValidationError naming the field.

    The numpy dtype kind must be in `kinds`: real ints and floats by
    default, "iufc" where complex numbers are allowed. That refuses bools,
    strings, None, ragged arrays and Python ints too large for 64 bits.
    For an array, the message gives the index of the first entry that is
    not finite.
    """
    try:
        raw = np.asarray(values)
    except ValueError:  # nested sequences of unequal lengths
        raw = None
    if raw is None or raw.dtype.kind not in kinds:
        what = "a number" if "c" in kinds else "real"
        raise ValidationError(f"{name} must be {what}, got {reprlib.repr(values)}")
    arr = raw.astype(complex if raw.dtype.kind == "c" else float)
    finite = np.isfinite(arr)
    if np.count_nonzero(finite) < arr.size:  # cheaper than .all() on one value
        first = np.argwhere(~finite)[0]
        at = f" at [{', '.join(map(str, first))}]" if arr.ndim else ""
        raise ValidationError(f"{name} must be finite, got {arr[tuple(first)].item()!r}{at}")
    return arr


def _scalar(name, arr):
    """The one Python number in arr, a 0-d array from _finite."""
    if arr.ndim:
        raise ValidationError(f"{name} must be a single number, got an array of shape {arr.shape}")
    return arr.item()


def _grid(name, arr):
    """arr, a 0-d or 1-D array from _finite, as a 1-D grid: a scalar is one
    point."""
    if arr.ndim > 1:
        raise ValidationError(f"{name} must be a number or a 1-D grid, got an array of shape {arr.shape}")
    return arr.reshape(-1)


def _load_values(delta_omega, gamma_load):
    """The rule for load values, on scalars or grids alike: real, finite
    shifts and decays, every decay >= 0. Returns both as float arrays."""
    delta_omega = _finite("load delta_omega", delta_omega)
    gamma_load = _finite("load gamma_load", gamma_load)
    negative = gamma_load < 0
    if np.count_nonzero(negative):
        raise ValidationError(f"load decay must be >= 0: {gamma_load[negative][0].item()!r}")
    return delta_omega, gamma_load


def _drive_frequency(omega_d) -> float:
    """The rule for a drive frequency: one finite real number > 0."""
    omega_d = _scalar("drive omega_d", _finite("drive omega_d", omega_d))
    if not omega_d > 0:
        raise ValidationError(f"drive frequency must be positive, got {omega_d!r}")
    return omega_d


@dataclass(frozen=True)
class DriveSpec:
    """Coherent drive on a single node: angular frequency omega_d > 0 and
    complex amplitude rabi, stored as int, float and complex. A field that
    breaks the rules of _integer, _finite and _scalar raises ValidationError."""

    node: int
    omega_d: float
    rabi: complex

    def __post_init__(self):
        object.__setattr__(self, "node", _integer("drive node", self.node))
        object.__setattr__(self, "omega_d", _drive_frequency(self.omega_d))
        rabi = _scalar("drive rabi", _finite("drive rabi", self.rabi, "iufc"))
        object.__setattr__(self, "rabi", complex(rabi))


@dataclass(frozen=True)
class LoadSpec:
    """Dissipative load attached to a single node: induced frequency shift
    delta_omega and outcoupling decay rate gamma_load, stored as int and
    floats. A field that breaks the rules of _integer, _load_values and
    _scalar raises ValidationError."""

    node: int
    delta_omega: float = 0.0
    gamma_load: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "node", _integer("load node", self.node))
        delta_omega, gamma_load = _load_values(self.delta_omega, self.gamma_load)
        object.__setattr__(self, "delta_omega", _scalar("load delta_omega", delta_omega))
        object.__setattr__(self, "gamma_load", _scalar("load gamma_load", gamma_load))


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Immutable description of a driven, lossy coupling network.

    A spec is validated when it is built: construction, with_load,
    with_drive and dataclasses.replace raise ValidationError, so every
    spec that exists is valid. DriveSpec and LoadSpec check their own
    fields. Each array passes the rule of every input number (_finite)
    and is stored as a read-only float copy, never the caller's array;
    validate then checks how the fields relate.

    Specs must not be mutated. A spec keeps its load-free resolvent pair
    in _resolvent (thevenin._resolvent_pair), so one changed in place, say
    through object.__setattr__ or an array made writable again, would be
    served its old results and would bypass validation. Derive a changed
    network with with_load, with_drive or dataclasses.replace; each copy
    starts with no pair.

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
    _resolvent: tuple | None = dataclasses.field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("node_frequencies", "intrinsic_decays", "couplings"):
            arr = _finite(name, getattr(self, name))  # a copy: the caller's array stays writable
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        validate(self)

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


def validate(spec: NetworkSpec) -> None:
    """Check the invariants of a NetworkSpec that relate its fields.

    Raises ValidationError for array shapes that disagree or an empty
    network, else with every other problem joined by "; ": symmetric
    couplings with zero diagonal, nonnegative decays, and drive and load
    nodes inside [0, N). NetworkSpec runs this when it is built, after
    each array has passed _finite, so it passes on every spec that exists.
    """
    omega = spec.node_frequencies
    gamma = spec.intrinsic_decays
    J = spec.couplings
    if omega.ndim != 1 or gamma.shape != omega.shape:
        raise ValidationError(
            f"node_frequencies/intrinsic_decays shapes differ: {omega.shape} vs {gamma.shape}"
        )
    n = len(omega)
    if n < 1:
        raise ValidationError("network must contain at least one node")
    if J.shape != (n, n):
        raise ValidationError(f"couplings must be {n}x{n}, got {J.shape}")

    problems = []
    if not np.array_equal(J, J.T):
        i, j = np.argwhere(J != J.T)[0]
        problems.append(
            f"couplings not symmetric: J[{i},{j}]={J[i, j]!r} != J[{j},{i}]={J[j, i]!r}"
        )
    if np.any(np.diag(J) != 0.0):
        i = int(np.nonzero(np.diag(J))[0][0])
        problems.append(f"couplings must have zero diagonal: J[{i},{i}]={J[i, i]!r}")
    if np.any(gamma < 0.0):
        i = int(np.argmin(gamma))
        problems.append(f"intrinsic decay must be >= 0: gamma[{i}]={gamma[i]!r}")
    for role, node in (("drive", spec.drive.node), ("load", spec.load.node)):
        if not 0 <= node < n:
            problems.append(f"{role} node {node} out of range [0, {n})")
    if problems:
        raise ValidationError("; ".join(problems))


def build_chain(n_nodes, omega_0, j, gamma, drive: DriveSpec, load: LoadSpec) -> NetworkSpec:
    """Uniform nearest-neighbour chain.

    Every node gets frequency omega_0 and decay gamma; consecutive nodes are
    coupled with strength j. A single node has no neighbours and therefore a
    zero coupling matrix.
    """
    n_nodes = _integer("n_nodes", n_nodes, 1)
    omega_0 = _scalar("omega_0", _finite("omega_0", omega_0))
    j = _scalar("j", _finite("j", j))
    gamma = _scalar("gamma", _finite("gamma", gamma))
    couplings = np.zeros((n_nodes, n_nodes))
    idx = np.arange(n_nodes - 1)
    couplings[idx, idx + 1] = j
    couplings[idx + 1, idx] = j
    return NetworkSpec(np.full(n_nodes, omega_0), np.full(n_nodes, gamma), couplings, drive, load)


def build_random_all_to_all(
    n_nodes, omega_0, j_avg, j_std, gamma, seed, drive: DriveSpec, load: LoadSpec
) -> NetworkSpec:
    """Dense network with normally distributed couplings.

    Each unordered node pair receives one draw from N(j_avg, j_std^2),
    assigned symmetrically. Draws are consumed in row-major pair order from
    a generator seeded with `seed`, so identical arguments reproduce the
    identical spec bit for bit. Negative draws are kept.
    """
    n_nodes = _integer("n_nodes", n_nodes, 1)
    omega_0 = _scalar("omega_0", _finite("omega_0", omega_0))
    j_avg = _scalar("j_avg", _finite("j_avg", j_avg))
    j_std = _scalar("j_std", _finite("j_std", j_std))
    if j_std < 0:
        raise ValidationError(f"j_std must be >= 0, got {j_std}")
    gamma = _scalar("gamma", _finite("gamma", gamma))
    seed = _integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    couplings = np.zeros((n_nodes, n_nodes))
    iu = np.triu_indices(n_nodes, k=1)
    couplings[iu] = rng.normal(j_avg, j_std, size=len(iu[0]))
    couplings = couplings + couplings.T
    return NetworkSpec(np.full(n_nodes, omega_0), np.full(n_nodes, gamma), couplings, drive, load)


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
    # int() would read true as 1, "1" as 1 and truncate 1.5 to 1; indices
    # must be exact, no field is a switch and numbers are JSON numbers
    if not isinstance(value, (bool, str)) and not (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(
        f"field '{key}' in {where} must be {kind.__name__}, got {reprlib.repr(value)}"
    )


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
        raise ValidationError(f"'edges' must be a list, got {reprlib.repr(edges)}")
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

    return NetworkSpec(omega, gamma, couplings, drive, load)


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
        except RecursionError:
            raise ValidationError(f"{path}: JSON nested too deeply") from None
    return from_config_dict(data)


def save_config(spec: NetworkSpec, path, seed=None) -> None:
    """Write a network config file (deterministic layout)."""
    with open(path, "w") as fh:
        json.dump(to_config_dict(spec, seed=seed), fh, indent=2, sort_keys=True)
        fh.write("\n")
