"""Quick self-test of the benchmark; run it from the root of a checkout:

    python3 perfbench/selftest.py

1. Runs each workload for one second, untraced, and one traced run, and
   checks that the last line names every metric of BENCHMARK.json with its
   unit, and that the only failed ops are the known NaN-config ones.
2. Feeds every check in checks.py a genuine qnet output, which it must
   accept, and a deliberately perturbed copy, which it must reject.

Exits 1 when anything is wrong.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qnet  # noqa: E402
import qnet.cli  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import worker  # noqa: E402

failures = []


def expect(name, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(name)


def test_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    runs = [(w["name"], 0) for w in spec["workloads"]] + [(spec["workloads"][0]["name"], 1)]
    for workload, trace in runs:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300,
        )
        name = f"run {workload} trace={trace}"
        if proc.returncode != 0:
            expect(name, False, proc.stderr.strip()[-500:])
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        printed = {key: m["unit"] for key, m in result["metrics"].items()}
        expect(f"{name}: metric names and units", printed == wanted[trace],
               f"printed {printed}, wanted {wanted[trace]}")
        expect(f"{name}: every metric on its own line",
               all(any(ln.split()[:1] == [k] and ln.split()[-1] == u for ln in lines) for k, u in printed.items()))
        expect(f"{name}: correct", result["correct"] is True, "\n".join(lines[:-1])[-1500:])
        known = result["attempted"] // 8 if workload == "cli" else 0  # one NaN solve per pass of 8
        expect(f"{name}: only the known fault fails", result["failed"] == known,
               f"{result['failed']} of {result['attempted']} failed")


def perturb_csv(text, row, col, factor):
    lines = text.splitlines()
    body = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    idx = body[1 + row]
    fields = lines[idx].split(",")
    fields[col] = format(float(fields[col]) * factor, ".17g")
    lines[idx] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_checks():
    rng = np.random.default_rng(123)
    net = worker.random_network(rng, 5)
    spec = worker.to_spec(net)
    state = qnet.solve_amplitudes(spec)
    report = qnet.power_report(spec, state)
    solved = worker.solve_dict(state, report)
    th = qnet.thevenin_equivalent(spec)
    matched = qnet.matched_load(spec)
    at_match_spec = spec.with_load(delta_omega=matched.delta_omega, gamma_load=matched.gamma_load)
    at_match = qnet.power_report(at_match_spec, qnet.solve_amplitudes(at_match_spec)).__dict__
    grid = qnet.grid_check(spec).__dict__
    relaxed = qnet.time_domain_steady_state(spec).amplitudes
    weak = ref.Network(omega=np.full(2, 1000.0), gamma=np.ones(2), J=np.array([[0, 2.5], [2.5, 0]]),
                       drive_node=0, omega_d=1002.5, rabi=0.05j, load_node=1, delta_omega=0.2, gamma_load=0.8)
    oracle = qnet.oracle_report(worker.to_spec(weak), 3)

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        cfg = str(Path(tmp) / "net.json")
        assert qnet.cli.main(["gen", "random", "--nodes", "6", "--seed", "3", "--gamma-load", "1", "--out", cfg]) == 0
        generated = json.loads(Path(cfg).read_text())
        gen_net = ref.from_config(generated)
        omega_grid = np.linspace(990.0, 1030.0, 60)
        gamma_grid = np.geomspace(0.1, 100.0, 40)
        omega_csv = qnet.cli.run_sweep(qnet.cli.SweepRequest(cfg, "omega", 990.0, 1030.0, 60))
        gamma_csv = qnet.cli.run_sweep(qnet.cli.SweepRequest(cfg, "gamma_load", 0.1, 100.0, 40, log_scale=True))

    def scaled(d, key, factor):
        out = dict(d)
        out[key] = out[key] * factor
        return out

    far_grid = dict(grid, argmax_gamma_load=grid["argmax_gamma_load"] + 2 * grid["cell_gamma"])
    bad_config = json.loads(json.dumps(generated))
    bad_config["edges"][0]["J"] *= 1 + 1e-12
    cases = [
        ("check_solve", lambda d: checks.check_solve(net, d), solved, scaled(solved, "amplitudes", 1 + 1e-8)),
        ("check_solve (power)", lambda d: checks.check_solve(net, d), solved, scaled(solved, "p_l", 1 + 1e-6)),
        ("check_thevenin", lambda z: checks.check_thevenin(net, z, th.omega_th), th.h_th, th.h_th * (1 + 1e-8)),
        ("check_match", lambda d: checks.check_match(net, d), matched.__dict__,
         scaled(matched.__dict__, "p_max", 1 + 1e-8)),
        ("check_at_match", lambda d: checks.check_at_match(net, d), at_match, scaled(at_match, "p_l", 1 + 1e-8)),
        ("check_passive", lambda p: checks.check_passive(net, [p], "t"), report.p_l,
         net.equivalent["p_max"] * (1 + 1e-8)),
        ("check_grid (refined)", lambda d: checks.check_grid(net, d), grid, scaled(grid, "p_refined", 1 - 1e-8)),
        ("check_grid (argmax)", lambda d: checks.check_grid(net, d), grid, far_grid),
        ("check_relaxed", lambda a: checks.check_relaxed(net, a), relaxed, relaxed * (1 + 1e-7)),
        ("check_oracle", lambda d: checks.check_oracle(weak, d), oracle,
         scaled(oracle, "amplitude_rel_discrepancy", 1e7)),
        ("check_oracle (closed form)", lambda d: checks.check_oracle(weak, d), oracle,
         scaled(oracle, "p_l_closed", 1 + 1e-6)),
        ("check_omega_sweep", lambda t: checks.check_omega_sweep(gen_net, t, omega_grid), omega_csv,
         perturb_csv(omega_csv, 30, 1, 1 + 1e-6)),
        ("check_load_sweep", lambda t: checks.check_load_sweep(gen_net, t, gamma_grid), gamma_csv,
         perturb_csv(gamma_csv, 20, 1, 1 + 1e-6)),
        ("check_load_sweep (optimum)", lambda t: checks.check_load_sweep(gen_net, t, gamma_grid), gamma_csv,
         gamma_csv.replace("# gamma_th=", "# gamma_th=1")),
        ("check_generated", lambda c: checks.check_generated(c, 6, 3, 2.5, 1.0), generated, bad_config),
        ("check_identical", lambda b: checks.check_identical({"out": b"1,2\n"}, {"out": b}, "t"), b"1,2\n",
         b"1,2 \n"),
        ("check_rejected", lambda r: checks.check_rejected(*r), (2, "qnet: input error: nan\n"),
         (1, "Traceback (most recent call last):\n  ...\nLinAlgError: SVD did not converge\n")),
    ]
    for name, check, genuine, perturbed in cases:
        accepted = check(genuine)
        expect(f"{name} accepts a genuine output", not accepted, "; ".join(accepted))
        expect(f"{name} rejects a perturbed output", bool(check(perturbed)))


if __name__ == "__main__":
    test_checks()
    test_runs()
    print(f"{len(failures)} failures")
    sys.exit(1 if failures else 0)
