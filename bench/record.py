"""Record perfbench medians of this checkout against a parent checkout.

    python3 bench/record.py --against PARENT --pairs K --out BENCH_<n>.json \\
        [--workloads design verify cli] [--seconds S]

Runs `perfbench/run.py --trace 0` as it stands, from the root of each tree,
once per workload and pair. Pair k uses seed k + 1 on both trees; even pairs
run this tree first, odd pairs the parent, since set-up time and wall time
follow the machine's load. The output holds, per workload and tree, every
run's end-to-end metrics with their median and quartiles, the number of
pairs in which this tree read better (ties count for neither), and the
machine the runs saw: CPU count, Python, numpy, scipy, BLAS and the BLAS
thread count the workers ran with. Metrics, their direction and the default
run length come from BENCHMARK.json. No timing is gated here.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 1


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in `tree`: its last JSON line, with the parsed
    metadata line under "metadata"."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"record: perfbench {workload} seed {seed} failed in {tree}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["metadata"] = json.loads(next(line for line in lines if line.startswith("metadata: "))[10:])
    return result


def spread(values: list) -> dict:
    """Median and quartiles of the values of one metric, the quartiles
    interpolated between the values, never beyond them."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def commit(tree: Path):
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, type=Path, help="root of the parent checkout")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", nargs="+", choices=[w["name"] for w in benchmark["workloads"]],
                        default=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"change": ROOT, "parent": args.against.resolve()}
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    workloads, metadata = {}, None
    for workload in args.workloads:
        runs = {side: [] for side in trees}
        for k in range(args.pairs):
            for side in (("change", "parent") if k % 2 == 0 else ("parent", "change")):
                result = perfbench(trees[side], workload, k + 1, args.seconds)
                metadata = result.pop("metadata")
                runs[side].append({
                    "seed": k + 1, "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"], **{m: v["value"] for m, v in result["metrics"].items()},
                })
                print(f"record: {workload} pair {k + 1}/{args.pairs} {side}: "
                      + json.dumps({m: runs[side][-1][m] for m in better}), flush=True)
        sign = {"higher": 1, "lower": -1}
        workloads[workload] = {
            side: {"runs": side_runs, **{m: spread([run[m] for run in side_runs]) for m in better}}
            for side, side_runs in runs.items()
        }
        workloads[workload]["change_better_pairs"] = {
            m: sum(sign[way] * (c[m] - p[m]) > 0 for c, p in zip(runs["change"], runs["parent"]))
            for m, way in better.items()
        }

    record = {
        "schema": SCHEMA,
        "command": "perfbench/run.py --trace 0",
        "seconds": args.seconds,
        "pairs": args.pairs,
        "commits": {side: commit(tree) for side, tree in trees.items()},
        "machine": {
            "cpus": metadata["nproc"],
            "os_cpu_count": metadata["os_cpu_count"],
            "python": metadata["python"],
            "numpy": metadata["numpy"],
            "scipy": importlib.metadata.version("scipy"),
            "blas": {key: (metadata["blas"] or {}).get(key) for key in ("name", "version")},
            "OPENBLAS_NUM_THREADS": metadata["thread_env"].get("OPENBLAS_NUM_THREADS"),
        },
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
