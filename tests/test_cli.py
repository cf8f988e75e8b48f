"""End-to-end command-line behaviour: outputs, exit codes, determinism."""
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qnet
from qnet.cli import SweepRequest, main, run_sweep

from conftest import strict_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quietly(capsys, *argv):
    """run(), failing if the command raises any warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in result[2]
    return result


def write_config(tmp_path, spec, name="net.json", seed=None):
    path = tmp_path / name
    qnet.save_config(spec, path, seed=seed)
    return str(path)


def bundled_with(tmp_path, section, key, value):
    """configs/two_node.json with one field of one section replaced."""
    data = json.loads((CONFIGS / "two_node.json").read_text())
    target = data[section][0] if section in ("nodes", "edges") else data[section]
    target[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return str(path)


def two_node_config(tmp_path, **overrides):
    fields = dict(
        node_frequencies=np.array([1000.0, 1000.0]),
        intrinsic_decays=np.array([1.3, 0.0]),
        couplings=np.array([[0.0, 2.0], [2.0, 0.0]]),
        drive=qnet.DriveSpec(node=0, omega_d=1000.0, rabi=0.9),
        load=qnet.LoadSpec(node=1, delta_omega=0.0, gamma_load=0.0),
    )
    fields.update(overrides)
    return write_config(tmp_path, qnet.NetworkSpec(**fields))


class TestSolve:
    def test_undriven_reports_zero(self, capsys, tmp_path):
        path = two_node_config(tmp_path, drive=qnet.DriveSpec(node=0, omega_d=1000.0, rabi=0.0))
        code, out, _ = run(capsys, "solve", "--config", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["power"]["p_in"] == 0.0
        assert payload["power"]["p_l"] == 0.0
        assert payload["power"]["eta"] is None

    def test_bundled_two_node(self, capsys):
        code, out, _ = run(capsys, "solve", "--config", str(CONFIGS / "two_node.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["power"]["balance_residual"] <= 1e-8
        assert len(payload["amplitudes"]) == 2

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, "solve", "--config", str(bad))
        assert code == 2
        assert "line" in err

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        code, _, err = run(capsys, "solve", "--config", str(deep))
        assert code == 2
        assert err == f"qnet: input error: {deep}: JSON nested too deeply\n"

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "--config", str(tmp_path / "absent.json"))
        assert code == 2

    def test_singular_network_exits_3(self, capsys, tmp_path):
        path = two_node_config(
            tmp_path,
            intrinsic_decays=np.array([0.0, 0.0]),
            drive=qnet.DriveSpec(node=0, omega_d=1002.0, rabi=0.1),
        )
        code, _, err = run(capsys, "solve", "--config", path)
        assert code == 3

    def test_ill_conditioned_network_exits_3(self, capsys, tmp_path):
        # condition number about 1e14, no pivot exactly zero
        path = two_node_config(
            tmp_path,
            intrinsic_decays=np.array([1e-13, 1e-13]),
            couplings=np.array([[0.0, 2.5], [2.5, 0.0]]),
            drive=qnet.DriveSpec(node=0, omega_d=1002.5, rabi=0.1),
        )
        code, out, err = run(capsys, "solve", "--config", path)
        assert code == 3
        assert out == ""
        assert err.startswith("qnet: condition estimate")
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", [1, 10])
    def test_lossless_chain_on_a_mode_exits_3(self, capsys, tmp_path, mode):
        # a tridiagonal chain, factored in band storage, driven on one of its
        # modes omega_0 + 2 J cos(pi m / (n + 1)) with no loss anywhere
        n, j = 20, 2.5
        spec = qnet.build_chain(
            n, 1000.0, j, 0.0,
            qnet.DriveSpec(node=0, omega_d=1000.0 + 2 * j * np.cos(np.pi * mode / (n + 1)), rabi=0.1),
            qnet.LoadSpec(node=n - 1, gamma_load=0.0),
        )
        code, out, err = run(capsys, "solve", "--config", write_config(tmp_path, spec))
        assert code == 3
        assert out == ""
        assert err.startswith("qnet: condition estimate")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "section,key",
        [
            ("nodes", "omega"),
            ("nodes", "gamma"),
            ("edges", "J"),
            ("drive", "omega_d"),
            ("drive", "rabi_re"),
            ("drive", "rabi_im"),
            ("load", "delta_omega"),
            ("load", "gamma_load"),
        ],
    )
    def test_non_finite_value_exits_2(self, capsys, tmp_path, section, key, value):
        data = json.loads((CONFIGS / "two_node.json").read_text())
        target = data[section][0] if section in ("nodes", "edges") else data[section]
        target[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))  # writes the JSON tokens NaN / Infinity
        code, _, err = run(capsys, "solve", "--config", str(path))
        assert code == 2
        assert err.startswith("qnet: input error:") and "finite" in err

    def test_config_type_errors_exit_2(self, capsys, tmp_path):
        data = json.loads((CONFIGS / "two_node.json").read_text())
        data["edges"] = None
        data["nodes"][0]["omega"] = 10**400
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run_quietly(capsys, "solve", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("qnet: input error: field 'omega' in nodes[0] must be float")
        data["nodes"][0]["omega"] = 1000.0
        path.write_text(json.dumps(data))
        code, out, err = run_quietly(capsys, "solve", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == "qnet: input error: 'edges' must be a list, got None\n"
        # JSON true is no more a number in a float field than in an index
        data["edges"] = []
        data["load"]["gamma_load"] = True
        path.write_text(json.dumps(data))
        code, out, err = run_quietly(capsys, "solve", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == "qnet: input error: field 'gamma_load' in load must be float, got True\n"
        # nor is a number written as a JSON string
        data["load"]["gamma_load"] = 1.0
        for where, key, value, kind in (
            ("nodes[0]", "omega", "1000", "float"),
            ("load", "node", "1", "int"),
            ("drive", "rabi_re", "0.1", "float"),
        ):
            bad = json.loads(json.dumps(data))
            (bad["nodes"][0] if where == "nodes[0]" else bad[where])[key] = value
            path.write_text(json.dumps(bad))
            code, out, err = run_quietly(capsys, "solve", "--config", str(path))
            assert (code, out) == (2, "")
            assert err == f"qnet: input error: field '{key}' in {where} must be {kind}, got '{value}'\n"

    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("solve", "rabi_re", 1e154),  # powers overflow
            ("solve", "rabi_re", 1e308),  # the residual and its bound overflow
            ("solve", "rabi_im", -1e308),
            ("solve", "omega_d", 1e308),  # omega_d * gamma_load overflows against |a|^2 = 0
            ("match", "rabi_re", 1e154),  # p_max overflows
            ("match", "rabi_re", 1e308),  # |omega_th| ** 2 overflows
        ],
    )
    def test_non_finite_result_exits_3(self, capsys, tmp_path, command, key, value):
        path = bundled_with(tmp_path, "drive", key, value)
        code, out, err = run_quietly(capsys, command, "--config", path)
        assert (code, out) == (3, "")
        assert err.startswith("qnet: ") and err.count("\n") == 1
        assert "overflow" in err or "residual" in err

    def test_overflowing_load_decay_config(self, capsys, tmp_path):
        # gamma_load = 1e308 is finite input: every command that reads the
        # load exits 3, and thevenin and match, which never read it, succeed
        path = bundled_with(tmp_path, "load", "gamma_load", 1e308)
        code, out, err = run_quietly(capsys, "solve", "--config", path)
        assert (code, out) == (3, "")
        assert err.startswith("qnet: condition estimate")
        code, out, err = run_quietly(capsys, "oracle", "--config", path, "--n-max", "2")
        assert (code, out) == (3, "")
        assert err == "qnet: generator entries overflow double precision\n"
        for command in ("thevenin", "match"):
            code, out, _ = run_quietly(capsys, command, "--config", path)
            assert code == 0
            strict_json(out)


class TestThevenin:
    def test_routes_agree(self, capsys, tmp_path):
        path = two_node_config(tmp_path)
        code, out, _ = run(capsys, "thevenin", "--config", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["rel_discrepancy"]["h_th"] < 1e-10
        assert payload["rel_discrepancy"]["omega_th"] < 1e-10
        # hand values for the resonant two-node case
        assert payload["gamma_th"] == pytest.approx(4 * 2.0**2 / 1.3, rel=1e-10)
        assert payload["delta_omega_th"] == pytest.approx(0.0, abs=1e-12)


class TestMatch:
    def test_two_node_closed_form(self, capsys, tmp_path):
        path = two_node_config(tmp_path)
        code, out, _ = run(capsys, "match", "--config", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma_load"] == pytest.approx(4 * 2.0**2 / 1.3, rel=1e-10)
        assert payload["p_max"] == pytest.approx(1000.0 * 0.9**2 / 1.3, rel=1e-10)

    def test_grid_check_flag(self, capsys, tmp_path):
        path = two_node_config(tmp_path)
        code, out, _ = run(capsys, "match", "--config", path, "--grid-check")
        assert code == 0
        payload = json.loads(out)
        assert payload["grid_check"]["within_one_cell"] is True
        assert payload["grid_check"]["p_refined_rel_error"] < 1e-10

    def test_feasible_is_written_true(self, capsys):
        code, out, _ = run(capsys, "match", "--config", str(CONFIGS / "two_node.json"))
        assert code == 0
        assert json.loads(out)["feasible"] is True

    def test_lossless_network_exits_4(self, capsys, tmp_path):
        path = two_node_config(
            tmp_path,
            intrinsic_decays=np.array([0.0, 0.0]),
            drive=qnet.DriveSpec(node=0, omega_d=1001.3, rabi=0.1),
        )
        code, _, err = run(capsys, "match", "--config", path)
        assert code == 4
        assert "gamma_th" in err


class TestSweep:
    def test_omega_two_points(self, capsys, tmp_path):
        path = two_node_config(tmp_path)
        code, out, _ = run(
            capsys, "sweep", "--config", path, "--var", "omega",
            "--min", "995", "--max", "1005", "--points", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "omega,S"
        assert len(lines) == 3

    def test_omega_gap_rows(self, capsys, tmp_path):
        path = write_config(
            tmp_path,
            qnet.NetworkSpec(
                node_frequencies=np.array([1000.0]),
                intrinsic_decays=np.array([0.0]),
                couplings=np.zeros((1, 1)),
                drive=qnet.DriveSpec(node=0, omega_d=1000.0, rabi=0.0),
                load=qnet.LoadSpec(node=0),
            ),
        )
        code, out, _ = run(
            capsys, "sweep", "--config", path, "--var", "omega",
            "--min", "999", "--max", "1001", "--points", "3",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows[1] == "1000,nan"

    def test_gamma_load_header_and_argmax(self, capsys, tmp_path):
        path = two_node_config(tmp_path)
        gamma_th = 4 * 2.0**2 / 1.3
        code, out, _ = run(
            capsys, "sweep", "--config", path, "--var", "gamma_load",
            "--min", str(gamma_th / 4), "--max", str(gamma_th * 4), "--points", "201",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0]
        assert header.startswith("# gamma_th=")
        assert float(header.split("gamma_th=")[1].split(",")[0]) == pytest.approx(gamma_th)
        assert lines[1] == "gamma_load,p_l,eta"
        data = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
        best = data[np.argmax(data[:, 1])]
        step = data[1, 0] - data[0, 0]
        assert abs(best[0] - gamma_th) <= step

    def test_log_grid(self, capsys, tmp_path):
        path = two_node_config(tmp_path)
        code, out, _ = run(
            capsys, "sweep", "--config", path, "--var", "gamma_load",
            "--min", "0.1", "--max", "10", "--points", "5", "--log",
        )
        assert code == 0
        values = [float(line.split(",")[0]) for line in out.strip().splitlines()[2:]]
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)

    def test_undriven_gamma_load_rows_carry_nan_eta(self, capsys, tmp_path):
        # no power flows, so eta is undefined and the CSV field reads nan
        path = bundled_with(tmp_path, "drive", "rabi_re", 0.0)
        code, out, _ = run(
            capsys, "sweep", "--config", path, "--var", "gamma_load",
            "--min", "0.1", "--max", "100", "--points", "4", "--log",
        )
        assert code == 0
        rows = out.strip().splitlines()[2:]
        assert len(rows) == 4
        assert all(row.split(",")[2] == "nan" for row in rows)

    def test_request_invariants(self, tmp_path):
        path = two_node_config(tmp_path)
        with pytest.raises(qnet.ValidationError):
            SweepRequest(path, "omega", 5.0, 1.0, 10)
        with pytest.raises(qnet.ValidationError):
            SweepRequest(path, "omega", 1.0, 5.0, 1)
        with pytest.raises(qnet.ValidationError):
            SweepRequest(path, "gamma_load", -1.0, 5.0, 10, log_scale=True)
        with pytest.raises(qnet.ValidationError):
            SweepRequest(path, "voltage", 1.0, 5.0, 10)

    def test_run_sweep_returns_csv_text(self, tmp_path):
        path = two_node_config(tmp_path)
        text = run_sweep(SweepRequest(path, "omega", 995.0, 1005.0, 4))
        lines = text.strip().splitlines()
        assert lines[0] == "omega,S"
        assert len(lines) == 5

    def test_bad_range_exits_2(self, capsys, tmp_path):
        path = two_node_config(tmp_path)
        code, _, _ = run(
            capsys, "sweep", "--config", path, "--var", "omega",
            "--min", "10", "--max", "5", "--points", "10",
        )
        assert code == 2
        code, _, _ = run(
            capsys, "sweep", "--config", path, "--var", "gamma_load",
            "--min", "0", "--max", "5", "--points", "10", "--log",
        )
        assert code == 2

    @pytest.mark.parametrize("var", ["omega", "gamma_load"])
    @pytest.mark.parametrize("lo,hi", [("1", "inf"), ("-inf", "1"), ("nan", "1"), ("1", "nan")])
    def test_non_finite_range_exits_2(self, capsys, var, lo, hi):
        code, _, err = run_quietly(
            capsys, "sweep", "--config", str(CONFIGS / "two_node.json"), "--var", var,
            f"--min={lo}", f"--max={hi}", "--points", "3",
        )
        assert code == 2
        assert err.startswith("qnet: input error:") and "finite" in err

    def test_negative_load_decay_exits_2(self, capsys):
        code, _, err = run_quietly(
            capsys, "sweep", "--config", str(CONFIGS / "two_node.json"), "--var", "gamma_load",
            "--min", "-1", "--max", "5", "--points", "3",
        )
        assert code == 2
        assert "load decay must be >= 0: -1.0" in err

    def test_overflowing_load_decay_exits_3(self, capsys):
        code, out, err = run_quietly(
            capsys, "sweep", "--config", str(CONFIGS / "two_node.json"), "--var", "gamma_load",
            "--min", "0.1", "--max", "1e308", "--points", "7", "--log",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("qnet: ")


class TestGen:
    def test_chain_config_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "chain.json"
        code, _, _ = run(
            capsys, "gen", "chain", "--nodes", "5", "--j", "1.5",
            "--gamma", "0.5", "--gamma-load", "1.0", "--out", str(out_path),
        )
        assert code == 0
        spec = qnet.load_config(out_path)
        assert spec.n_nodes == 5
        assert spec.couplings[0, 1] == 1.5
        assert spec.drive.omega_d == pytest.approx(1001.5)  # omega0 + j default

    def test_random_records_seed(self, capsys, tmp_path):
        out_path = tmp_path / "random.json"
        code, _, _ = run(
            capsys, "gen", "random", "--nodes", "6", "--seed", "42",
            "--gamma-load", "1.0", "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out_path.read_text())["seed"] == 42
        spec = qnet.load_config(out_path)
        regenerated = qnet.build_random_all_to_all(
            6, 1000.0, 2.5, 1.0, 1.0, 42, spec.drive, spec.load
        )
        assert np.array_equal(spec.couplings, regenerated.couplings)

    def test_bad_params_exit_2(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "gen", "chain", "--nodes", "0", "--out", str(tmp_path / "x.json")
        )
        assert code == 2

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "x.json"
        code, _, err = run(
            capsys, "gen", "random", "--nodes", "3", "--seed", "-1", "--out", str(out_path)
        )
        assert code == 2
        assert err == "qnet: input error: seed must be >= 0, got -1\n"
        assert not out_path.exists()


class TestOracle:
    def test_report_fields(self, capsys, tmp_path):
        path = two_node_config(
            tmp_path,
            intrinsic_decays=np.array([1.0, 1.0]),
            drive=qnet.DriveSpec(node=0, omega_d=1002.0, rabi=0.05),
            load=qnet.LoadSpec(node=1, delta_omega=0.0, gamma_load=0.5),
        )
        code, out, _ = run(capsys, "oracle", "--config", path, "--n-max", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["amplitude_rel_discrepancy"] < 1e-4
        assert payload["factorization_residual"] < 1e-3

    def test_three_node_network_at_n_max_3(self, capsys, tmp_path):
        path = str(tmp_path / "net.json")
        assert run(capsys, "gen", "random", "--nodes", "3", "--seed", "1", "--out", path)[0] == 0
        code, out, _ = run(capsys, "oracle", "--config", path, "--n-max", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 64
        assert payload["amplitude_rel_discrepancy"] <= 1e-4

    def test_capacity_exits_5(self, capsys, tmp_path):
        path = two_node_config(tmp_path)
        code, _, _ = run(capsys, "oracle", "--config", path, "--n-max", "100")
        assert code == 5


class TestOutOfMemory:
    """Requests for arrays far too large to allocate end with exit 2 and
    one line. Each runs in a child interpreter capped at 4 GiB of address
    space, so that numpy's refusal cannot turn into a real allocation on a
    machine that overcommits memory."""

    LIMIT = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (4 * 2**30, 4 * 2**30))\n"
        "import sys; from qnet.cli import main; sys.exit(main(sys.argv[1:]))"
    )

    def run_capped(self, *argv):
        pytest.importorskip("resource")
        return subprocess.run(
            [sys.executable, "-c", self.LIMIT, *argv],
            env={**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src")},
            capture_output=True, text=True, timeout=120,
        )

    def test_sweep_with_too_many_points_exits_2(self):
        done = self.run_capped(
            "sweep", "--config", str(CONFIGS / "two_node.json"), "--var", "omega",
            "--min", "1", "--max", "2", "--points", "1000000000000",
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("qnet: input error: Unable to allocate")
        assert done.stderr.count("\n") == 1

    def test_gen_with_too_many_nodes_exits_2(self, tmp_path):
        out_path = tmp_path / "x.json"
        done = self.run_capped("gen", "random", "--nodes", "100000000", "--out", str(out_path))
        assert done.returncode == 2
        assert done.stderr.startswith("qnet: input error: Unable to allocate")
        assert done.stderr.count("\n") == 1
        assert not out_path.exists()


class TestConsistencyAcrossCommands:
    def test_solve_at_matched_load_reproduces_match(self, capsys, tmp_path):
        path = two_node_config(tmp_path)
        code, out, _ = run(capsys, "match", "--config", path)
        assert code == 0
        matched = json.loads(out)

        spec = qnet.load_config(path).with_load(
            delta_omega=matched["delta_omega"], gamma_load=matched["gamma_load"]
        )
        path2 = write_config(tmp_path, spec, name="matched.json")
        code, out, _ = run(capsys, "solve", "--config", path2)
        assert code == 0
        power = json.loads(out)["power"]
        assert power["p_l"] == pytest.approx(matched["p_max"], rel=1e-10)
        assert power["eta"] <= 0.5 + 1e-12


class TestDeterminism:
    def test_gen_and_sweep_are_byte_identical(self, capsys, tmp_path):
        outputs = []
        for run_id in range(2):
            cfg = tmp_path / f"net{run_id}.json"
            csv = tmp_path / f"sweep{run_id}.csv"
            assert main([
                "gen", "random", "--nodes", "12", "--seed", "7",
                "--gamma-load", "1.0", "--out", str(cfg),
            ]) == 0
            assert main([
                "sweep", "--config", str(cfg), "--var", "gamma_load",
                "--min", "0.1", "--max", "8.0", "--points", "64", "--log",
            ] + ["--out", str(csv)]) == 0
            outputs.append((cfg.read_bytes(), csv.read_bytes()))
        assert outputs[0] == outputs[1]
