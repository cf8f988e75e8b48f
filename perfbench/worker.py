"""One benchmark process: set up a workload, run it for a fixed time, check
its outputs and write its measurements as JSON.

    python3 perfbench/worker.py --workload design --seed 1 --seconds 20 \\
        --trace 0 --root . --result out.json [--setup-only]

`run.py` starts this process with one BLAS thread and the checkout's `src/`
on the path. It measures set-up time from the start of the process to the
`ready` line printed here, which comes after `import qnet`, input generation
and BLAS warm-up. With `--setup-only` the process exits at that point.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import qnet
import qnet.cli

import checks
import reference as ref

MIB = 1024.0 * 1024.0


class Tracer:
    """Per-layer timing: seconds spent in spans, summed by span name.

    A span marked `extra` is a call the traced run makes only to time an
    inner function separately; its time is also summed in `extra_s`, so the
    op's own time can be compared with the untraced run.
    """

    enabled = True

    def __init__(self):
        self.seconds = defaultdict(float)
        self.peak_mib = defaultdict(float)
        self.counts = defaultdict(int)
        self.extra_s = 0.0

    @contextmanager
    def span(self, name, extra=False):
        start = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - start
            self.seconds[name] += took
            if extra:
                self.extra_s += took

    @contextmanager
    def peak(self, name, extra=True):
        """Span that also records the tracemalloc peak of the call."""
        tracemalloc.start()
        try:
            with self.span(name, extra):
                yield
            self.peak_mib[name] = max(self.peak_mib[name], tracemalloc.get_traced_memory()[1] / MIB)
        finally:
            tracemalloc.stop()


class Untraced:
    enabled = False
    extra_s = 0.0

    def span(self, name, extra=False):
        return nullcontext()


def to_spec(net: ref.Network) -> qnet.NetworkSpec:
    return qnet.NetworkSpec(
        node_frequencies=net.omega,
        intrinsic_decays=net.gamma,
        couplings=net.J,
        drive=qnet.DriveSpec(node=net.drive_node, omega_d=net.omega_d, rabi=net.rabi),
        load=qnet.LoadSpec(node=net.load_node, delta_omega=net.delta_omega, gamma_load=net.gamma_load),
    )


def _drive_and_load(rng, n, omega_d):
    return dict(
        drive_node=0,
        omega_d=float(omega_d),
        rabi=complex(rng.uniform(0.05, 0.3) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))),
        load_node=n - 1,
        delta_omega=float(rng.uniform(-2.0, 2.0)),
        gamma_load=float(np.exp(rng.uniform(np.log(0.2), np.log(5.0)))),
    )


def random_network(rng, n) -> ref.Network:
    """All-to-all couplings N(2.5, 1), as the acceptance corpus uses."""
    J = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    J[iu] = rng.normal(2.5, 1.0, size=len(iu[0]))
    return ref.Network(
        omega=np.full(n, 1000.0),
        gamma=rng.uniform(0.5, 1.5, size=n),
        J=J + J.T,
        **_drive_and_load(rng, n, 1000.0 + rng.uniform(-4.0, 4.0)),
    )


def chain_network(rng, n) -> ref.Network:
    """Nearest-neighbour chain, driven at one end and loaded at the other.
    Losses are small enough that the drive reaches the far end of a
    200-node chain, and the drive sits inside the band."""
    j = rng.uniform(1.5, 3.5)
    idx = np.arange(n - 1)
    J = np.zeros((n, n))
    J[idx, idx + 1] = J[idx + 1, idx] = j
    return ref.Network(
        omega=np.full(n, 1000.0),
        gamma=rng.uniform(0.05, 0.2, size=n),
        J=J,
        **_drive_and_load(rng, n, 1000.0 + rng.uniform(-j, j)),
    )


def warm_up():
    """First calls into the LAPACK routines the workloads use."""
    a = np.eye(8) + 0.1j * np.ones((8, 8))
    np.linalg.solve(a, np.ones(8))
    np.linalg.cond(a)
    np.linalg.eigvals(a)
    np.linalg.inv(a)
    np.linalg.solve(np.broadcast_to(a, (4, 8, 8)), np.ones((4, 8, 1)))


class Workload:
    """A workload runs in passes of ops. Outputs of a pass are checked
    after it, outside the timed phase, and then dropped."""

    min_passes = 1

    def __init__(self):
        self.outputs = []
        self.problems = []

    def end_pass(self, tr):
        self.problems += self.check_outputs()
        self.outputs.clear()

    def check(self):
        return self.problems


class Design(Workload):
    """Each op is one seeded design study: a chain and a random all-to-all
    network at each size, each solved, reduced, matched and solved again at
    the matched load."""

    name = "design"
    sizes = (2, 10, 50, 200)
    studies = 8  # distinct studies; one pass runs each once

    def __init__(self, seed, workdir, root):
        super().__init__()
        self.inputs = []
        for k in range(self.studies):
            rng = np.random.default_rng([seed, 1, k])
            nets = [make(rng, n) for n in self.sizes for make in (chain_network, random_network)]
            self.inputs.append([(net, to_spec(net)) for net in nets])
        self.matched_nets = {}

    def ops(self, pass_index):
        return [("study", lambda tr, k=k: self.study(k, tr)) for k in range(self.studies)]

    def study(self, k, tr):
        results = []
        for net, spec in self.inputs[k]:
            if tr.enabled:
                with tr.span("network.validate", extra=True):
                    qnet.validate(spec)
                with tr.span("steady.effective_matrix", extra=True):
                    qnet.effective_matrix(spec)
            with tr.span("steady.solve_amplitudes"):
                state = qnet.solve_amplitudes(spec)
            with tr.span("power.power_report"):
                report = qnet.power_report(spec, state)
            with tr.span("thevenin.thevenin_equivalent"):
                th = qnet.thevenin_equivalent(spec)
            with tr.span("thevenin.matched_load"):
                matched = qnet.matched_load(spec)
            probe = spec.with_load(delta_omega=matched.delta_omega, gamma_load=matched.gamma_load)
            with tr.span("steady.solve_amplitudes"):
                state_m = qnet.solve_amplitudes(probe)
            with tr.span("power.power_report"):
                report_m = qnet.power_report(probe, state_m)
            # plain data only: qnet's result objects keep their N x N spec alive
            results.append((solve_dict(state, report), th.h_th, th.omega_th, matched.__dict__,
                            solve_dict(state_m, report_m)))
        self.outputs.append((k, results))
        return True

    def check_outputs(self):
        problems = []
        matched_nets = self.matched_nets
        for k, results in self.outputs:
            for (net, _), (solved, h_th, omega_th, matched, solved_m) in zip(self.inputs[k], results):
                problems += checks.check_solve(net, solved)
                problems += checks.check_thevenin(net, h_th, omega_th)
                problems += checks.check_match(net, matched)
                problems += checks.check_passive(net, [solved["p_l"]], "design solve")
                key = (id(net), matched["delta_omega"], matched["gamma_load"])
                if key not in matched_nets:
                    matched_nets[key] = net.with_load(matched["delta_omega"], matched["gamma_load"])
                problems += checks.check_solve(matched_nets[key], solved_m)
                problems += checks.check_at_match(net, solved_m)
        return problems


def solve_dict(state, report) -> dict:
    return dict(report.__dict__, amplitudes=state.amplitudes)


class Verify(Workload):
    """Each op verifies one seeded family of random all-to-all networks at
    the acceptance-corpus sizes by the brute-force routes, then runs the
    density-matrix oracle on a weakly driven two-node network."""

    name = "verify"
    sizes = (2, 5, 10, 50)
    families = 8  # distinct families, one per pass, used in turn
    n_max = 5

    def __init__(self, seed, workdir, root):
        super().__init__()
        self.inputs = []
        for k in range(self.families):
            rng = np.random.default_rng([seed, 2, k])
            nets = [random_network(rng, n) for n in self.sizes]
            j = rng.uniform(1.5, 3.5)
            weak = ref.Network(
                omega=np.full(2, 1000.0),
                gamma=np.ones(2),
                J=np.array([[0.0, j], [j, 0.0]]),
                drive_node=0,
                omega_d=1000.0 + j,
                rabi=complex(0.05 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))),
                load_node=1,
                delta_omega=float(rng.uniform(-0.5, 0.5)),
                gamma_load=float(rng.uniform(0.2, 2.0)),
            )
            self.inputs.append(([(net, to_spec(net)) for net in nets], (weak, to_spec(weak))))

    def ops(self, pass_index):
        k = pass_index % self.families
        return [("family", lambda tr: self.family(k, tr))]

    def family(self, k, tr):
        nets, (weak, weak_spec) = self.inputs[k]
        results = []
        for net, spec in nets:
            with tr.span("thevenin.grid_check"):
                gc = qnet.grid_check(spec)
            with tr.span("steady.time_domain_steady_state"):
                relaxed = qnet.time_domain_steady_state(spec)
            with tr.span("thevenin.thevenin_by_elimination"):
                elim = qnet.thevenin_by_elimination(spec)
            if tr.enabled:
                self.trace_grid(spec, gc, tr)
            results.append((gc.__dict__, relaxed.amplitudes, elim.h_th, elim.omega_th))
        with tr.span("lindblad.oracle_report"):
            oracle = qnet.oracle_report(weak_spec, self.n_max)
        if tr.enabled:
            cfg = qnet.FockConfig(n_max=self.n_max, nodes=2)
            with tr.span("lindblad.build_liouvillian", extra=True):
                liou = qnet.build_liouvillian(weak_spec, cfg)
            with tr.peak("lindblad.steady_state_density"):
                qnet.steady_state_density(liou, cfg)
        self.outputs.append((k, results, oracle))
        return True

    @staticmethod
    def trace_grid(spec, gc, tr, n_points=200, delta_window=0.1, gamma_window=0.2):
        """Time grid_check's inner calls separately on the same inputs: the
        batched map over grid_check's default grid, and the direct solves
        of its axis refinement (a ternary search to 1e-9 of one cell on
        each side of the argmax, first along delta, then along gamma)."""
        p = gc.predicted
        deltas = np.linspace(p.delta_omega - delta_window * p.gamma_load,
                             p.delta_omega + delta_window * p.gamma_load, n_points)
        gammas = np.linspace(p.gamma_load * (1 - gamma_window), p.gamma_load * (1 + gamma_window), n_points)
        with tr.peak("thevenin.load_power_map"):
            qnet.load_power_map(spec, deltas, gammas)
        tr.counts["thevenin.load_power_map_cells"] += deltas.size * gammas.size

        def power(delta, gamma):
            probe = spec.with_load(delta_omega=delta, gamma_load=gamma)
            with tr.span("steady.solve_amplitudes", extra=True):
                amp = qnet.solve_amplitudes(probe).amplitudes[probe.load.node]
            return probe.drive.omega_d * gamma * abs(amp) ** 2

        def search(f, lo, hi):
            span0 = hi - lo
            for _ in range(120):
                if hi - lo <= 1e-9 * span0:
                    break
                third = (hi - lo) / 3.0
                if f(lo + third) < f(hi - third):
                    lo += third
                else:
                    hi -= third
            mid = 0.5 * (lo + hi)
            f(mid)
            return mid

        d = search(lambda x: power(x, gc.argmax_gamma_load),
                   gc.argmax_delta_omega - gc.cell_delta, gc.argmax_delta_omega + gc.cell_delta)
        search(lambda x: power(d, x), gc.argmax_gamma_load - gc.cell_gamma, gc.argmax_gamma_load + gc.cell_gamma)

    def check_outputs(self):
        problems = []
        for k, results, oracle in self.outputs:
            nets, (weak, _) = self.inputs[k]
            for (net, _), (gc, amps, h_th, omega_th) in zip(nets, results):
                problems += checks.check_grid(net, gc)
                problems += checks.check_relaxed(net, amps)
                problems += checks.check_thevenin(net, h_th, omega_th, route="elimination")
            problems += checks.check_oracle(weak, oracle)
        return problems


class Cli(Workload):
    """Cold `python -m qnet.cli` processes, run from the checkout's `src/`.
    One op is one invocation; a pass runs the fixed sequence below. The
    last invocation gives `solve` a config whose node frequency is JSON NaN,
    which must end with exit 2 and a message."""

    name = "cli"
    nodes = 50
    min_passes = 2  # outputs of identical invocations are compared

    def __init__(self, seed, workdir, root):
        super().__init__()
        self.seed = seed
        self.src = root / "src"
        self.dir = workdir / "cli"
        self.dir.mkdir(parents=True)
        bundled = root / "configs" / "two_node.json"
        self.bundled = ref.from_config(json.loads(bundled.read_text()))
        bad = json.loads(bundled.read_text())
        bad["nodes"][0]["omega"] = float("nan")
        nan_cfg = self.dir / "nan.json"
        nan_cfg.write_text(json.dumps(bad))
        cfg = str(self.dir / "net.json")
        out = lambda name: str(self.dir / name)
        self.omega_grid = ("980", "1020", "2000")
        self.gamma_grid = ("0.1", "100", "400")
        self.sequence = [
            ("gen", ["gen", "random", "--nodes", str(self.nodes), "--seed", str(seed),
                     "--gamma-load", "1.0", "--out", cfg]),
            ("solve", ["solve", "--config", cfg, "--out", out("solve.json")]),
            ("thevenin", ["thevenin", "--config", cfg, "--out", out("thevenin.json")]),
            ("match", ["match", "--config", cfg, "--out", out("match.json")]),
            ("sweep_omega", ["sweep", "--config", cfg, "--var", "omega", "--min", self.omega_grid[0],
                             "--max", self.omega_grid[1], "--points", self.omega_grid[2],
                             "--out", out("omega.csv")]),
            ("sweep_gamma_load", ["sweep", "--config", cfg, "--var", "gamma_load", "--min", self.gamma_grid[0],
                                  "--max", self.gamma_grid[1], "--points", self.gamma_grid[2], "--log",
                                  "--out", out("gamma_load.csv")]),
            ("oracle", ["oracle", "--config", str(bundled), "--out", out("oracle.json")]),
            ("solve_nan", ["solve", "--config", str(nan_cfg), "--out", out("nan.json.out")]),
        ]
        self.outputs_first = None
        self.child_cpu_s = 0.0
        self.child_peak_mib = 0.0
        self.walls = defaultdict(list)

    def ops(self, pass_index):
        return [(kind, lambda tr, kind=kind, argv=argv: self.invoke(kind, argv, tr))
                for kind, argv in self.sequence]

    def spawn(self, argv, stem):
        """Run one child to its end; returns (exit code, stderr, wall s)."""
        err_path = self.dir / f"{stem}.stderr"
        with open(self.dir / f"{stem}.stdout", "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, *argv], cwd=self.src, stdout=out, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        self.child_cpu_s += usage.ru_utime + usage.ru_stime
        self.child_peak_mib = max(self.child_peak_mib, usage.ru_maxrss / 1024.0)
        return child.returncode, err_path.read_text(errors="replace"), wall

    def invoke(self, kind, argv, tr):
        code, stderr, wall = self.spawn(["-m", "qnet.cli", *argv], kind)
        self.walls[kind].append(wall)
        if kind == "solve_nan":
            return not checks.check_rejected(code, stderr)
        if code != 0:
            self.problems.append(f"cli {kind}: exit {code}: {stderr.strip()[-300:]}")
            return False
        return True

    def end_pass(self, tr):
        """After each pass: keep the first pass's outputs, compare later
        passes with them, and make the traced run's in-process calls."""
        paths = [self.dir / name for name in ("net.json", "solve.json", "thevenin.json", "match.json",
                                              "omega.csv", "gamma_load.csv", "oracle.json")]
        outputs = {p.name: p.read_bytes() if p.exists() else b"" for p in paths}
        if self.outputs_first is None:
            self.outputs_first = outputs
        else:
            self.problems += checks.check_identical(self.outputs_first, outputs, "cli")
        if tr.enabled and outputs["net.json"]:
            _, _, wall = self.spawn(["-c", "import qnet"], "import")
            self.walls["import"].append(wall)
            cfg = str(self.dir / "net.json")
            with tr.span("network.load_config"):
                qnet.load_config(cfg)
            for var, grid, name in (("omega", self.omega_grid, "omega.csv"),
                                    ("gamma_load", self.gamma_grid, "gamma_load.csv")):
                request = qnet.cli.SweepRequest(config_path=cfg, variable=var, min=float(grid[0]),
                                                max=float(grid[1]), n_points=int(grid[2]),
                                                log_scale=var == "gamma_load")
                with tr.span(f"cli.run_sweep_{var}"):
                    text = qnet.cli.run_sweep(request)
                if text.encode() != outputs[name]:
                    self.problems.append(f"cli: in-process run_sweep differs from `qnet sweep --var {var}`")
        for p in paths:  # a failed invocation must not leave this pass's file to the next
            p.unlink(missing_ok=True)

    def check(self):
        try:
            return self.problems + self.check_first_pass(self.outputs_first)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return self.problems + [f"cli: unreadable output: {exc!r}"]

    def check_first_pass(self, first):
        problems = []
        config = json.loads(first["net.json"])
        problems += checks.check_generated(config, self.nodes, self.seed, 2.5, 1.0)
        net = ref.from_config(config)
        solve = json.loads(first["solve.json"])
        amps = [complex(a["re"], a["im"]) for a in solve["amplitudes"]]
        problems += checks.check_solve(net, dict(solve["power"], amplitudes=amps))
        problems += checks.check_passive(net, [solve["power"]["p_l"]], "cli solve")
        th = json.loads(first["thevenin.json"])
        cplx = lambda d: complex(d["re"], d["im"])
        problems += checks.check_thevenin(net, cplx(th["h_th"]), cplx(th["omega_th"]))
        problems += checks.check_thevenin(net, cplx(th["elimination"]["h_th"]),
                                          cplx(th["elimination"]["omega_th"]), route="elimination")
        problems += checks.check_match(net, json.loads(first["match.json"]))
        lo, hi, n = self.omega_grid
        problems += checks.check_omega_sweep(net, first["omega.csv"].decode(),
                                             np.linspace(float(lo), float(hi), int(n)))
        lo, hi, n = self.gamma_grid
        problems += checks.check_load_sweep(net, first["gamma_load.csv"].decode(),
                                            np.geomspace(float(lo), float(hi), int(n)))
        problems += checks.check_oracle(self.bundled, json.loads(first["oracle.json"]))
        return problems


WORKLOADS = {cls.name: cls for cls in (Design, Verify, Cli)}

# Per-layer metrics: name -> (unit, the workloads whose ops measure it).
LAYER_METRICS = {
    "cli.import_s": ("s", ("cli",)),
    "cli.gen_s": ("s", ("cli",)),
    "cli.solve_s": ("s", ("cli",)),
    "cli.thevenin_s": ("s", ("cli",)),
    "cli.match_s": ("s", ("cli",)),
    "cli.oracle_s": ("s", ("cli",)),
    "cli.sweep_omega_s": ("s", ("cli",)),
    "cli.sweep_gamma_load_s": ("s", ("cli",)),
    "cli.run_sweep_omega_s": ("s", ("cli",)),
    "cli.run_sweep_gamma_load_s": ("s", ("cli",)),
    "network.load_config_s": ("s", ("cli",)),
    "network.validate_s": ("s", ("design",)),
    "steady.effective_matrix_s": ("s", ("design",)),
    "power.power_report_s": ("s", ("design",)),
    "steady.solve_amplitudes_s": ("s", ("design", "verify")),
    "thevenin.thevenin_equivalent_s": ("s", ("design",)),
    "thevenin.matched_load_s": ("s", ("design",)),
    "thevenin.grid_check_s": ("s", ("verify",)),
    "thevenin.load_power_map_s": ("s", ("verify",)),
    "thevenin.load_power_map_cells_per_s": ("1/s", ("verify",)),
    "thevenin.load_power_map_peak_mib": ("MiB", ("verify",)),
    "steady.time_domain_steady_state_s": ("s", ("verify",)),
    "thevenin.thevenin_by_elimination_s": ("s", ("verify",)),
    "lindblad.build_liouvillian_s": ("s", ("verify",)),
    "lindblad.steady_state_density_s": ("s", ("verify",)),
    "lindblad.oracle_report_s": ("s", ("verify",)),
    "lindblad.steady_state_density_peak_mib": ("MiB", ("verify",)),
}


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def run_passes(workload, seconds, tr, min_passes):
    """Run whole passes until the timed phase reaches `seconds` and at
    least `min_passes` passes are done. The timed phase is the sum of the
    passes; the checks between them are not in it. Returns per-op records,
    the timed seconds, this process's CPU seconds in them, and the number
    of passes."""
    records = []
    timed = cpu = 0.0
    passes = 0
    while passes < min_passes or timed < seconds:
        start, cpu0 = time.perf_counter(), cpu_seconds()
        for kind, op in workload.ops(passes):
            extra0 = tr.extra_s
            t0 = time.perf_counter()
            try:
                ok = op(tr)
            except Exception:  # the op failed; report it and go on
                workload.problems.append(f"{workload.name} {kind}: {traceback.format_exc(limit=3)}")
                ok = False
            wall = time.perf_counter() - t0
            records.append({"kind": kind, "ok": ok, "wall": wall, "own": wall - (tr.extra_s - extra0)})
        timed += time.perf_counter() - start
        cpu += cpu_seconds() - cpu0
        workload.end_pass(tr)
        passes += 1
    return records, timed, cpu, passes


def layer_metrics(runs, named) -> dict:
    """Per-layer metrics from traced runs, {workload: (workload, tracer,
    records)}. A metric measured by the named workload is taken from it,
    any other from the first workload that measures it."""
    out = {}
    for name, (unit, homes) in LAYER_METRICS.items():
        wl, tr, records = runs[named if named in homes else homes[0]]
        key = name[: -len("_s")] if name.endswith("_s") else name
        if isinstance(wl, Cli) and name.startswith("cli.") and not name.startswith("cli.run_sweep"):
            value = statistics.median(wl.walls[key[len("cli."):]])
        elif name.endswith("_cells_per_s"):
            value = tr.counts["thevenin.load_power_map_cells"] / tr.seconds["thevenin.load_power_map"]
        elif name.endswith("_peak_mib"):
            value = tr.peak_mib[name[: -len("_peak_mib")]]
        else:
            # per op; for cli, per pass (one in-process call each)
            ops = sum(1 for r in records if not isinstance(wl, Cli) or r["kind"] == "gen")
            value = tr.seconds[key] / ops
        out[name] = {"value": value, "unit": unit}
    return out


def metadata(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("blas"),
        "lapack": blas.get("lapack"),
        "qnet_backend": qnet.BACKEND,
        "qnet_file": qnet.__file__,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS") or k.startswith("QNET_")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    if not Path(qnet.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"qnet was imported from {qnet.__file__}, not from {root / 'src'}")
    names = list(WORKLOADS) if args.trace else [args.workload]
    workloads = {name: WORKLOADS[name](args.seed, args.workdir, root) for name in names}
    warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return

    runs = {}
    if args.trace:
        # One pass of every other workload first, so that the traced run
        # reports every per-layer metric from the workload that exercises it.
        for name, wl in workloads.items():
            if name != args.workload:
                tr = Tracer()
                runs[name] = (wl, tr, run_passes(wl, 0.0, tr, 1)[0])
    main_wl = workloads[args.workload]
    tr = Tracer() if args.trace else Untraced()
    records, elapsed, cpu_s, passes = run_passes(main_wl, args.seconds, tr, main_wl.min_passes)
    runs[args.workload] = (main_wl, tr, records)

    problems = []
    for wl, _, _ in runs.values():
        problems += wl.check()
    done = [r for r in records if r["ok"]]
    unexpected = [r["kind"] for r in records if not r["ok"] and r["kind"] != "solve_nan"]
    if unexpected:
        problems.append(f"unexpected failed ops: {sorted(set(unexpected))}")

    if isinstance(main_wl, Cli):
        cpu_s = main_wl.child_cpu_s
        peak_mib = main_wl.child_peak_mib
    else:
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": {"value": len(done) / elapsed, "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(r["wall"] for r in done), "unit": "s"},
        "cpu_s_per_op": {"value": cpu_s / len(records), "unit": "s"},
        "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
    }
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(records) - len(done),
        "problems": problems[:50],
        "passes": passes,
        "elapsed_s": elapsed,
        "metrics": metrics,
        "metadata": metadata(args),
    }
    if args.trace:
        result["layers"] = layer_metrics(runs, args.workload)
        # Op time without the separate calls made only for tracing: compare
        # with op_p50_s of an untraced run to see what tracing costs.
        result["traced_own_op_p50_s"] = statistics.median(r["own"] for r in done)
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
