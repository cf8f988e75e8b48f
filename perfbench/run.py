"""Benchmark of qnet, driven from outside through its public functions and
its command line.

    python3 perfbench/run.py --workload {design,verify,cli} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout. It starts every process with one BLAS
thread and the checkout's `src/` first on the path, and leaves qnet's own
settings (QNET_THREADS, QNET_PURE_PY) at their defaults. Set-up time is
taken SETUP_SAMPLES times in fresh processes and reported as the median.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Run records go to
`perfbench/out/`. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # set-up probes per run, the timed process included
TIME_LIMIT_S = 170  # a run ends well within 180 s, or fails
THREAD_ENV = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("QNET_THREADS", "QNET_PURE_PY", "PYTHONPATH")}
    env.update(THREAD_ENV, PYTHONPATH=str(root / "src"))
    return env


def start_worker(args, root, workdir, result, setup_only):
    """Start a worker and wait for its `ready` line. Returns the process
    and its set-up time, from before the start to that line."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--root", str(root), "--workdir", str(workdir), "--result", str(result)]
    if setup_only:
        argv.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(root), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        sys.exit(f"perfbench: worker did not start (exit {proc.wait()})")
    return proc, setup


def finish(proc, deadline):
    try:
        proc.stdout.read()
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: worker exceeded the time limit")
    if code != 0:
        sys.exit(f"perfbench: worker failed with exit {code}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("design", "verify", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # End through `finally` on SIGTERM too, so that no worker outlives the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd().resolve()
    if not (root / "src" / "qnet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qnet sources under {root / 'src'}; run from the root of a qnet checkout")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    result_path = workdir / "result.json"
    setups = []
    proc = None
    try:
        for i in range(SETUP_SAMPLES):
            setup_only = i < SETUP_SAMPLES - 1
            proc, setup = start_worker(args, root, workdir / str(i), result_path, setup_only)
            setups.append(setup)
            finish(proc, deadline)
        result = json.loads(result_path.read_text())
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    result["setup_samples_s"] = setups
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = dict(result["metrics"], setup_s={"value": statistics.median(setups), "unit": "s"})
    record = dict(result, metrics=metrics)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print("metadata: " + json.dumps(result["metadata"], sort_keys=True))
    print(f"{args.workload}: {result['attempted']} ops attempted, {result['failed']} failed, "
          f"{result['passes']} passes in {result['elapsed_s']:.2f} s")
    for key, metric in metrics.items():
        print(f"  {key:<40} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(f"  traced op time without the separate calls, p50: {result['traced_own_op_p50_s']:.6g} s")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
