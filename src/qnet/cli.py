"""Command-line interface.

    qnet solve    --config net.json [--out report.json]
    qnet thevenin --config net.json [--out th.json]
    qnet match    --config net.json [--grid-check] [--out match.json]
    qnet sweep    --config net.json --var {omega,gamma_load}
                  --min F --max F --points N [--log] [--out sweep.csv]
    qnet gen      {chain,random} --nodes N [generator flags] --out net.json
    qnet oracle   --config net.json [--n-max N] [--out report.json]

Exit codes: 0 success, 2 bad input, 3 singular network, decoupled load or
a result that overflows, 4 infeasible match, 5 Fock-space capacity exceeded.
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
from .power import power_report
from .steady import solve_amplitudes, spectral_density_grid
from .thevenin import grid_check, load_sweep, matched_load, thevenin_by_elimination, thevenin_equivalent

__all__ = ["SweepRequest", "run_sweep", "main", "main_entry"]


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


def _cmd_solve(args) -> int:
    spec = load_config(args.config)
    state = solve_amplitudes(spec)
    report = power_report(spec, state)
    payload = {
        "amplitudes": [_complex_dict(a) for a in state.amplitudes],
        "power": vars(report),
    }
    _emit(_json(payload), args.out)
    return 0


def _cmd_thevenin(args) -> int:
    spec = load_config(args.config)
    resolvent = thevenin_equivalent(spec)
    elimination = thevenin_by_elimination(spec)

    def rel(a, b):
        return abs(a - b) / max(abs(a), 1e-300)

    payload = {
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
            "h_th": rel(resolvent.h_th, elimination.h_th),
            "omega_th": rel(resolvent.omega_th, elimination.omega_th),
        },
    }
    _emit(_json(payload), args.out)
    return 0


def _cmd_match(args) -> int:
    spec = load_config(args.config)
    matched = matched_load(spec)
    payload = {**vars(matched), "feasible": True}
    if args.grid_check:
        gc = grid_check(spec)
        fields = {k: v for k, v in vars(gc).items() if k != "predicted"}
        rel_error = abs(gc.p_refined - matched.p_max) / matched.p_max
        payload["grid_check"] = {**fields, "p_refined_rel_error": rel_error}
    _emit(_json(payload), args.out)
    return 0


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
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValidationError(f"need finite min and max, got {self.min} and {self.max}")
        if not self.min < self.max:
            raise ValidationError(f"need min < max, got {self.min} and {self.max}")
        if self.n_points < 2:
            raise ValidationError(f"need at least 2 points, got {self.n_points}")
        if self.log_scale and self.min <= 0:
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


def _cmd_sweep(args) -> int:
    request = SweepRequest(
        config_path=args.config,
        variable=args.var,
        min=args.min,
        max=args.max,
        n_points=args.points,
        log_scale=args.log,
    )
    _emit(run_sweep(request), args.out)
    return 0


def _cmd_gen(args) -> int:
    drive_node = args.drive_node
    load_node = args.load_node if args.load_node is not None else args.nodes - 1
    j_scale = args.j if args.kind == "chain" else args.j_avg
    omega_d = args.omega_d if args.omega_d is not None else args.omega0 + j_scale
    drive = DriveSpec(node=drive_node, omega_d=omega_d, rabi=complex(args.rabi_re, args.rabi_im))
    load = LoadSpec(node=load_node, delta_omega=args.delta_omega, gamma_load=args.gamma_load)
    if args.kind == "chain":
        spec = build_chain(args.nodes, args.omega0, args.j, args.gamma, drive, load)
        seed = None
    else:
        spec = build_random_all_to_all(
            args.nodes, args.omega0, args.j_avg, args.j_std, args.gamma, args.seed, drive, load
        )
        seed = args.seed
    save_config(spec, args.out, seed=seed)
    return 0


def _cmd_oracle(args) -> int:
    spec = load_config(args.config)
    _emit(_json(oracle_report(spec, args.n_max)), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qnet", description=__doc__.splitlines()[0])
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

    gen = sub.add_parser("gen", help="write a generated network config")
    gen.add_argument("kind", choices=("chain", "random"))
    gen.add_argument("--nodes", required=True, type=int)
    gen.add_argument("--omega0", type=float, default=1000.0, help="node frequency (default 1000)")
    gen.add_argument("--j", type=float, default=2.5, help="chain coupling (default 2.5)")
    gen.add_argument("--j-avg", type=float, default=2.5, help="random coupling mean (default 2.5)")
    gen.add_argument("--j-std", type=float, default=1.0, help="random coupling std (default 1.0)")
    gen.add_argument("--gamma", type=float, default=1.0, help="intrinsic decay (default 1.0)")
    gen.add_argument("--seed", type=int, default=0, help="random generator seed")
    gen.add_argument("--drive-node", type=int, default=0)
    gen.add_argument("--omega-d", type=float, default=None, help="drive frequency (default omega0 + coupling)")
    gen.add_argument("--rabi-re", type=float, default=0.1)
    gen.add_argument("--rabi-im", type=float, default=0.0)
    gen.add_argument("--load-node", type=int, default=None, help="default: last node")
    gen.add_argument("--delta-omega", type=float, default=0.0)
    gen.add_argument("--gamma-load", type=float, default=0.0)
    gen.add_argument("--out", required=True, help="config path to write")

    oracle = with_config(sub.add_parser("oracle", help="density-matrix cross-check report"))
    oracle.add_argument("--n-max", type=int, default=4, help="per-node occupation cutoff")

    return parser


_HANDLERS = {
    "solve": _cmd_solve,
    "thevenin": _cmd_thevenin,
    "match": _cmd_match,
    "sweep": _cmd_sweep,
    "gen": _cmd_gen,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValidationError as exc:
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


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
