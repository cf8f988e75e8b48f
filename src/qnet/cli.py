"""Command-line interface.

    qnet solve    --config net.json [--out report.json]
    qnet thevenin --config net.json [--out th.json]
    qnet match    --config net.json [--grid-check] [--out match.json]
    qnet sweep    --config net.json --var {omega,gamma_load}
                  --min F --max F --points N [--log] [--out sweep.csv]
    qnet gen      chain  --nodes N [--j F] [shared flags] --out net.json
    qnet gen      random --nodes N [--j-avg F] [--j-std F] [--seed N]
                         [shared flags] --out net.json
    qnet oracle   --config net.json [--n-max N] [--out report.json]

The shared gen flags are --omega0, --gamma, --drive-node, --omega-d,
--rabi-re, --rabi-im, --load-node, --delta-omega and --gamma-load; a flag
of the other kind is refused.

Exit codes; past argument parsing (whose errors exit 2 with the usage of
the command being parsed), each failure prints one line on stderr:
    0  success
    2  bad input: "qnet: input error: ...", or "qnet: ..." for a file
       that cannot be read or written
    3  singular network, decoupled load, a result that overflows or
       (oracle) a mode that never decays: "qnet: ..."
    4  infeasible match, gamma_th <= 1e-14 * |h_th|: "qnet: infeasible match: ..."
    5  Fock-space capacity exceeded: "qnet: capacity: ..."

Outputs are deterministic: identical invocations produce identical bytes.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, QnetError, UnphysicalMatch, ValidationError
from .lindblad import oracle_report
from .network import DriveSpec, LoadSpec, build_chain, build_random_all_to_all, load_config, save_config
from .network import _finite, _integer, _scalar
from .power import _rel, power_report
from .steady import solve_amplitudes, spectral_density_grid
from .thevenin import grid_check, load_sweep, matched_load, thevenin_by_elimination, thevenin_equivalent

__all__ = ["SweepRequest", "run_sweep", "main"]


def _fmt(x: float) -> str:
    """Full double precision, shortest-stable CSV field."""
    return format(float(x), ".17g")


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _complex_dict(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _solve(spec, args) -> dict:
    state = solve_amplitudes(spec)
    return {
        "amplitudes": [_complex_dict(a) for a in state.amplitudes],
        "power": vars(power_report(spec, state)),
    }


def _thevenin(spec, args) -> dict:
    resolvent = thevenin_equivalent(spec)
    elimination = thevenin_by_elimination(spec)
    return {
        "load_node": resolvent.load_node,
        "h_th": _complex_dict(resolvent.h_th),
        "omega_th": _complex_dict(resolvent.omega_th),
        "delta_omega_th": resolvent.delta_omega_th,
        "gamma_th": resolvent.gamma_th,
        "elimination": {
            "h_th": _complex_dict(elimination.h_th),
            "omega_th": _complex_dict(elimination.omega_th),
        },
        "rel_discrepancy": {
            "h_th": _rel(elimination.h_th, resolvent.h_th),
            "omega_th": _rel(elimination.omega_th, resolvent.omega_th),
        },
    }


def _match(spec, args) -> dict:
    matched = matched_load(spec)
    payload = {**vars(matched), "feasible": True}
    if args.grid_check:
        gc = grid_check(spec)
        fields = {k: v for k, v in vars(gc).items() if k != "predicted"}
        payload["grid_check"] = {**fields, "p_refined_rel_error": _rel(gc.p_refined, matched.p_max)}
    return payload


def _oracle(spec, args) -> dict:
    return oracle_report(spec, args.n_max)


# the commands that read one config and print one JSON report
_REPORTS = {"solve": _solve, "thevenin": _thevenin, "match": _match, "oracle": _oracle}


@dataclass(frozen=True)
class SweepRequest:
    """A validated sweep: which variable over what grid."""

    config_path: str
    variable: str  # "omega" or "gamma_load"
    min: float
    max: float
    n_points: int
    log_scale: bool = False

    def __post_init__(self):
        if self.variable not in ("omega", "gamma_load"):
            raise ValidationError(f"unknown sweep variable {self.variable!r}")
        lo = _scalar("min", _finite("min", self.min))
        hi = _scalar("max", _finite("max", self.max))
        if not lo < hi:
            raise ValidationError(f"need min < max, got {lo} and {hi}")
        if not hi - lo < math.inf:
            raise ValidationError(f"need a finite max - min, got {lo} and {hi}")
        if _integer("n_points", self.n_points) < 2:
            raise ValidationError(f"need at least 2 points, got {self.n_points}")
        if not isinstance(self.log_scale, (bool, np.bool_)):
            raise ValidationError(f"log_scale must be a bool, got {self.log_scale!r}")
        if self.log_scale and lo <= 0:
            raise ValidationError("a logarithmic grid requires min > 0")

    @property
    def grid(self) -> np.ndarray:
        if self.log_scale:
            return np.geomspace(self.min, self.max, self.n_points)
        return np.linspace(self.min, self.max, self.n_points)


def run_sweep(request: SweepRequest) -> str:
    """Execute a sweep request and return its CSV text."""
    spec = load_config(request.config_path)
    grid = request.grid
    lines = []
    if request.variable == "omega":
        values = spectral_density_grid(spec, grid)
        lines.append("omega,S")
        for omega, s in zip(grid, values):
            lines.append(f"{_fmt(omega)},{_fmt(s)}")
    else:
        th = thevenin_equivalent(spec)
        lines.append(f"# gamma_th={_fmt(th.gamma_th)},delta_omega_th={_fmt(th.delta_omega_th)}")
        lines.append("gamma_load,p_l,eta")
        for gamma_load, (p_l, eta) in zip(grid, load_sweep(spec, grid)):
            lines.append(f"{_fmt(gamma_load)},{_fmt(p_l)},{_fmt(eta)}")
    return "\n".join(lines) + "\n"


def _gen(args) -> None:
    load_node = args.load_node if args.load_node is not None else args.nodes - 1
    chain = args.kind == "chain"
    omega_d = args.omega_d if args.omega_d is not None else args.omega0 + (args.j if chain else args.j_avg)
    drive = DriveSpec(node=args.drive_node, omega_d=omega_d, rabi=complex(args.rabi_re, args.rabi_im))
    load = LoadSpec(node=load_node, delta_omega=args.delta_omega, gamma_load=args.gamma_load)
    if chain:
        save_config(build_chain(args.nodes, args.omega0, args.j, args.gamma, drive, load), args.out)
    else:
        spec = build_random_all_to_all(
            args.nodes, args.omega0, args.j_avg, args.j_std, args.gamma, args.seed, drive, load
        )
        save_config(spec, args.out, seed=args.seed)


class _Parser(argparse.ArgumentParser):
    """Refuses its own leftover arguments, which argparse would hand to the
    top-level parser; add_subparsers gives each sub-parser this class."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="network config JSON")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    with_config(sub.add_parser("solve", help="steady state, amplitudes and power report"))
    with_config(sub.add_parser("thevenin", help="single-node equivalent, both computation routes"))
    match = with_config(sub.add_parser("match", help="conjugate-matched load and maximum power"))
    match.add_argument("--grid-check", action="store_true", help="verify against brute-force grid search")

    sweep = with_config(sub.add_parser("sweep", help="spectral-density or load sweep as CSV"))
    sweep.add_argument("--var", required=True, choices=("omega", "gamma_load"))
    sweep.add_argument("--min", required=True, type=float)
    sweep.add_argument("--max", required=True, type=float)
    sweep.add_argument("--points", required=True, type=int)
    sweep.add_argument("--log", action="store_true", help="logarithmic grid (requires --min > 0)")

    # flags of both generator kinds; each kind adds its own coupling flags
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--nodes", required=True, type=int)
    shared.add_argument("--omega0", type=float, default=1000.0, help="node frequency (default 1000)")
    shared.add_argument("--gamma", type=float, default=1.0, help="intrinsic decay (default 1.0)")
    shared.add_argument("--drive-node", type=int, default=0)
    shared.add_argument("--omega-d", type=float, help="drive frequency (default omega0 + coupling)")
    shared.add_argument("--rabi-re", type=float, default=0.1)
    shared.add_argument("--rabi-im", type=float, default=0.0)
    shared.add_argument("--load-node", type=int, help="default: last node")
    shared.add_argument("--delta-omega", type=float, default=0.0)
    shared.add_argument("--gamma-load", type=float, default=0.0)
    shared.add_argument("--out", required=True, help="config path to write")
    kinds = sub.add_parser("gen", help="write a generated network config").add_subparsers(
        dest="kind", required=True
    )
    chain = kinds.add_parser("chain", parents=[shared], help="uniform nearest-neighbour chain")
    chain.add_argument("--j", type=float, default=2.5, help="chain coupling (default 2.5)")
    dense = kinds.add_parser("random", parents=[shared], help="all-to-all, normally distributed couplings")
    dense.add_argument("--j-avg", type=float, default=2.5, help="random coupling mean (default 2.5)")
    dense.add_argument("--j-std", type=float, default=1.0, help="random coupling std (default 1.0)")
    dense.add_argument("--seed", type=int, default=0, help="random generator seed")

    oracle = with_config(sub.add_parser("oracle", help="density-matrix cross-check report"))
    oracle.add_argument("--n-max", type=int, default=4, help="per-node occupation cutoff")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            _gen(args)
        elif args.command == "sweep":
            request = SweepRequest(args.config, args.var, args.min, args.max, args.points, args.log)
            _emit(run_sweep(request), args.out)
        else:
            _emit(_json(_REPORTS[args.command](load_config(args.config), args)), args.out)
    except (ValidationError, MemoryError) as exc:
        # an array too large to allocate (numpy says how large) is bad input
        print(f"qnet: input error: {exc}", file=sys.stderr)
        return 2
    except UnphysicalMatch as exc:
        print(f"qnet: infeasible match: {exc}", file=sys.stderr)
        return 4
    except CapacityError as exc:
        print(f"qnet: capacity: {exc}", file=sys.stderr)
        return 5
    except QnetError as exc:
        print(f"qnet: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"qnet: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
