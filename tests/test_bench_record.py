"""Schema of the BENCH_*.json records that bench/record.py writes: the
checked-in records and one short run of the recorder. No timing is gated."""
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {metric["name"] for metric in BENCHMARK["end_to_end"]}
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
MACHINE = {"cpus", "os_cpu_count", "python", "numpy", "scipy", "blas", "OPENBLAS_NUM_THREADS"}


def check_record(record):
    assert record["schema"] == 1
    assert record["command"] == "perfbench/run.py --trace 0"
    assert set(record["machine"]) == MACHINE
    assert isinstance(record["machine"]["cpus"], int) and record["machine"]["cpus"] >= 1
    assert set(record["commits"]) == {"change", "parent"}
    pairs = record["pairs"]
    assert record["workloads"] and set(record["workloads"]) <= WORKLOADS
    for workload in record["workloads"].values():
        assert set(workload) == {"change", "parent", "change_better_pairs"}
        assert set(workload["change_better_pairs"]) == METRICS
        assert all(0 <= wins <= pairs for wins in workload["change_better_pairs"].values())
        for side in ("change", "parent"):
            runs = workload[side]["runs"]
            assert [run["seed"] for run in runs] == list(range(1, pairs + 1))
            assert all(run["correct"] is True and 0 <= run["failed"] <= run["attempted"] for run in runs)
            for metric in METRICS:
                values = [run[metric] for run in runs]
                assert workload[side][metric]["median"] == statistics.median(values)
                assert min(values) <= workload[side][metric]["q1"] <= workload[side][metric]["q3"] <= max(values)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_checked_in_record(path):
    check_record(json.loads(path.read_text()))


def test_the_recorder_writes_the_schema(tmp_path):
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "record.py"), "--against", str(ROOT), "--pairs", "1",
         "--workloads", "design", "--seconds", "0.1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    check_record(record)
    assert (record["pairs"], list(record["workloads"])) == (1, ["design"])
