"""End-to-end command-line behaviour: outputs, exit codes, determinism."""
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import qnet
import qnet.cli
import qnet.errors
from qnet.cli import SweepRequest, main, run_sweep

from conftest import (
    bundled_config, child, lossless_resonant_node, network, radiated_overflow, strict_json, thevenin_overflow,
)

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


def two_node_config(tmp_path, decays=(1.3, 0.0), j=2.0, drive=dict(rabi=0.9), load={}):
    """conftest.two_node_resonant with its decays, coupling, drive or load
    replaced, written as a config."""
    return write_config(tmp_path, network([1000.0, 1000.0], decays, {(0, 1): j}, drive, load))


class TestSolve:
    def test_undriven_reports_zero(self, capsys, tmp_path):
        path = two_node_config(tmp_path, drive=dict(rabi=0.0))
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
        path = two_node_config(tmp_path, decays=[0.0, 0.0], drive=dict(omega_d=1002.0, rabi=0.1))
        code, _, err = run(capsys, "solve", "--config", path)
        assert code == 3

    def test_ill_conditioned_network_exits_3(self, capsys, tmp_path):
        # condition number about 1e14, no pivot exactly zero
        path = two_node_config(tmp_path, decays=[1e-13, 1e-13], j=2.5, drive=dict(omega_d=1002.5, rabi=0.1))
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
        def change(data):
            (data[section][0] if section in ("nodes", "edges") else data[section])[key] = value

        path = bundled_config(tmp_path, change)  # writes the JSON tokens NaN / Infinity
        code, _, err = run(capsys, "solve", "--config", path)
        assert code == 2
        assert err.startswith("qnet: input error:") and "finite" in err

    def test_config_type_errors_exit_2(self, capsys, tmp_path):
        def solve(edges, *fields):
            """solve on the bundled config with these edges and each
            (where, key, value) of fields set."""
            def change(data):
                data["edges"] = edges
                for where, key, value in fields:
                    (data["nodes"][0] if where == "nodes[0]" else data[where])[key] = value

            return run_quietly(capsys, "solve", "--config", bundled_config(tmp_path, change))

        code, out, err = solve(None, ("nodes[0]", "omega", 10**400))
        assert (code, out) == (2, "")
        assert err.startswith("qnet: input error: field 'omega' in nodes[0] must be float")
        code, out, err = solve(None, ("nodes[0]", "omega", 1000.0))
        assert (code, out) == (2, "")
        assert err == "qnet: input error: 'edges' must be a list, got None\n"
        # JSON true is no more a number in a float field than in an index
        code, out, err = solve([], ("load", "gamma_load", True))
        assert (code, out) == (2, "")
        assert err == "qnet: input error: field 'gamma_load' in load must be float, got True\n"
        # nor is a number written as a JSON string
        for where, key, value, kind in (
            ("nodes[0]", "omega", "1000", "float"),
            ("load", "node", "1", "int"),
            ("drive", "rabi_re", "0.1", "float"),
        ):
            code, out, err = solve([], ("load", "gamma_load", 1.0), (where, key, value))
            assert (code, out) == (2, "")
            assert err == f"qnet: input error: field '{key}' in {where} must be {kind}, got '{value}'\n"

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda data: [data], "config root must be a JSON object"),
            (
                lambda data: {**data, "edges": [{"i": 1, "j": 1, "J": 2.0}]},
                "edges[0] is a self-coupling on node 1",
            ),
        ],
        ids=["root-a-list", "self-coupling"],
    )
    def test_config_structure_errors_exit_2(self, capsys, tmp_path, change, message):
        code, out, err = run_quietly(capsys, "solve", "--config", bundled_config(tmp_path, change))
        assert (code, out) == (2, "")
        assert err == f"qnet: input error: {message}\n"
        assert "Traceback" not in err

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
        path = bundled_config(tmp_path, lambda data: data["drive"].update({key: value}))
        code, out, err = run_quietly(capsys, command, "--config", path)
        assert (code, out) == (3, "")
        assert err.startswith("qnet: ") and err.count("\n") == 1
        assert "overflow" in err or "residual" in err
        if command == "match":
            assert err == "qnet: matched power overflows: p_max = inf\n"

    @pytest.mark.parametrize(
        "omegas, omega_d, delta_omega",
        [((-1.7e308, 1000.0), 1.7e308, 0.0), ((0.0, 0.0), 1e308, 1e308)],
        ids=["detuning", "load-shift"],
    )
    def test_overflowing_matrix_entry_exits_3(self, capsys, tmp_path, omegas, omega_d, delta_omega):
        def change(data):
            for node, omega in zip(data["nodes"], omegas):
                node["omega"] = omega
            data["drive"]["omega_d"] = omega_d
            data["load"]["delta_omega"] = delta_omega

        path = bundled_config(tmp_path, change)
        code, out, err = run_quietly(capsys, "solve", "--config", path)
        assert (code, out) == (3, "")
        assert err == "qnet: steady-state matrix entries overflow double precision\n"
        if delta_omega:  # the load-free matrix is finite, and thevenin never reads the load
            code, out, _ = run_quietly(capsys, "thevenin", "--config", path)
            assert code == 0
            strict_json(out)

    def test_overflowing_load_decay_config(self, capsys, tmp_path):
        # gamma_load = 1e308 is finite input: every command that reads the
        # load exits 3, and thevenin and match, which never read it, succeed
        path = bundled_config(tmp_path, lambda data: data["load"].update(gamma_load=1e308))
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

    def test_lossless_node_on_resonance_is_eliminated(self, capsys, tmp_path):
        # the non-load block starts with an exactly zero diagonal entry
        path = write_config(tmp_path, lossless_resonant_node())
        code, out, err = run(capsys, "thevenin", "--config", path)
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert payload["rel_discrepancy"]["h_th"] <= 1e-10
        assert payload["rel_discrepancy"]["omega_th"] <= 1e-10

    @pytest.mark.parametrize(
        "argv",
        [
            ("thevenin",),
            ("match",),
            ("match", "--grid-check"),
            ("sweep", "--var", "gamma_load", "--min", "1e-9", "--max", "1e-8", "--points", "3"),
        ],
        ids=["thevenin", "match", "grid-check", "sweep"],
    )
    def test_overflowing_equivalent_exits_3(self, capsys, tmp_path, argv):
        # omega_th overflows: the equivalent is refused before any command reads it
        path = write_config(tmp_path, thevenin_overflow())
        code, out, err = run_quietly(capsys, argv[0], "--config", path, *argv[1:])
        assert (code, out, err) == (3, "", "qnet: h_th or omega_th overflows double precision\n")


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

    def test_grid_check_on_an_undriven_network(self, capsys, tmp_path):
        # no power flows anywhere, so the refined optimum matches p_max = 0 exactly
        path = bundled_config(tmp_path, lambda data: data["drive"].update(rabi_re=0.0))
        code, out, _ = run(capsys, "match", "--config", path, "--grid-check")
        assert code == 0
        payload = json.loads(out)
        assert payload["p_max"] == 0.0
        assert payload["grid_check"]["p_refined_rel_error"] == 0.0

    def test_feasible_is_written_true(self, capsys):
        code, out, _ = run(capsys, "match", "--config", str(CONFIGS / "two_node.json"))
        assert code == 0
        assert json.loads(out)["feasible"] is True

    def test_lossless_network_exits_4(self, capsys, tmp_path):
        path = two_node_config(tmp_path, decays=[0.0, 0.0], drive=dict(omega_d=1001.3, rabi=0.1))
        code, _, err = run(capsys, "match", "--config", path)
        assert code == 4
        assert "gamma_th" in err

    def test_near_lossless_network_exit_4_states_the_floor(self, capsys, tmp_path):
        # gamma_th is positive but below the rounding floor of h_th
        path = two_node_config(tmp_path, decays=[1e-16, 0.0], j=2.5, drive=dict(omega_d=1003.0, rabi=0.1))
        code, _, err = run(capsys, "match", "--config", path)
        assert code == 4
        assert err == (
            "qnet: infeasible match: "
            "gamma_th = 6.944444444444445e-17 <= 1e-14 * |h_th| = 9.166666666666669e-15\n"
        )


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
        path = write_config(tmp_path, network([1000.0], [0.0], drive=dict(rabi=0.0)))
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
        path = bundled_config(tmp_path, lambda data: data["drive"].update(rabi_re=0.0))
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
        with pytest.raises(qnet.ValidationError, match="min must be real, got 'a'"):
            SweepRequest(path, "omega", "a", 2.0, 3)
        with pytest.raises(qnet.ValidationError, match="n_points must be an integer, got 2.5"):
            SweepRequest(path, "omega", 1.0, 2.0, 2.5)
        with pytest.raises(qnet.ValidationError, match="need a finite max - min"):
            SweepRequest(path, "omega", -1.7e308, 1.7e308, 5)
        with pytest.raises(qnet.ValidationError, match="log_scale must be a bool, got 'no'"):
            SweepRequest(path, "gamma_load", 0.1, 5.0, 10, log_scale="no")

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
    @pytest.mark.parametrize(
        "lo,hi", [("1", "inf"), ("-inf", "1"), ("nan", "1"), ("1", "nan"), ("-1.7e308", "1.7e308")]
    )
    def test_non_finite_range_exits_2(self, capsys, var, lo, hi):
        code, _, err = run_quietly(
            capsys, "sweep", "--config", str(CONFIGS / "two_node.json"), "--var", var,
            f"--min={lo}", f"--max={hi}", "--points", "3",
        )
        assert code == 2
        assert err.startswith("qnet: input error:") and "finite" in err
        assert err.count("\n") == 1

    def test_negative_load_decay_exits_2(self, capsys):
        code, _, err = run_quietly(
            capsys, "sweep", "--config", str(CONFIGS / "two_node.json"), "--var", "gamma_load",
            "--min", "-1", "--max", "5", "--points", "3",
        )
        assert code == 2
        assert "load decay must be >= 0: -1.0" in err

    def test_radiated_power_overflow_exits_3_as_solve_does(self, capsys, tmp_path):
        path = write_config(tmp_path, radiated_overflow())
        sweep = ("--var", "gamma_load", "--min", "1", "--max", "2", "--points", "2")
        for command, extra in (("solve", ()), ("sweep", sweep)):
            code, out, err = run_quietly(capsys, command, "--config", path, *extra)
            assert (code, out) == (3, ""), command
            assert err.startswith("qnet: power overflows") and err.count("\n") == 1

    def test_overflowing_load_decay_exits_3(self, capsys):
        code, out, err = run_quietly(
            capsys, "sweep", "--config", str(CONFIGS / "two_node.json"), "--var", "gamma_load",
            "--min", "0.1", "--max", "1e308", "--points", "7", "--log",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("qnet: ")


class TestGen:
    # each kind takes these and its own coupling flags
    SHARED = {
        "--nodes", "--omega0", "--gamma", "--drive-node", "--omega-d", "--rabi-re", "--rabi-im",
        "--load-node", "--delta-omega", "--gamma-load", "--out", "--help",
    }

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
        code, _, err = run(
            capsys, "gen", "chain", "--nodes", "0", "--out", str(tmp_path / "x.json")
        )
        assert code == 2
        assert err == "qnet: input error: n_nodes must be >= 1, got 0\n"

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "x.json"
        code, _, err = run(
            capsys, "gen", "random", "--nodes", "3", "--seed", "-1", "--out", str(out_path)
        )
        assert code == 2
        assert err == "qnet: input error: seed must be >= 0, got -1\n"
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "kind,own", [("chain", {"--j"}), ("random", {"--j-avg", "--j-std", "--seed"})]
    )
    def test_help_lists_exactly_the_flags_of_the_kind(self, capsys, kind, own):
        with pytest.raises(SystemExit) as stop:
            main(["gen", kind, "--help"])
        assert stop.value.code == 0
        assert set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out)) == self.SHARED | own

    @pytest.mark.parametrize(
        "argv",
        [
            ["chain", "--nodes", "3", "--seed", "4"],
            ["chain", "--nodes", "3", "--j-avg", "9"],
            ["chain", "--nodes", "3", "--j-std", "0.5"],
            ["random", "--nodes", "3", "--j", "2"],
            ["--nodes", "3", "chain"],  # the shared flags come after the kind
        ],
    )
    def test_a_flag_the_kind_does_not_take_exits_2(self, capsys, tmp_path, argv):
        out_path = tmp_path / "x.json"
        with pytest.raises(SystemExit) as stop:
            main(["gen", *argv, "--out", str(out_path)])
        assert stop.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out_path.exists()


class TestOracle:
    def test_report_fields(self, capsys, tmp_path):
        path = two_node_config(
            tmp_path, decays=[1.0, 1.0], drive=dict(omega_d=1002.0, rabi=0.05), load=dict(gamma_load=0.5)
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

    @pytest.mark.parametrize("key", ["rabi_re", "rabi_im"])
    def test_overflowing_kernel_norms_exit_3(self, capsys, tmp_path, key):
        # every generator entry is finite, but 2 |K|_F is not
        path = bundled_config(tmp_path, lambda data: data["drive"].update({key: 1e308}))
        code, out, err = run_quietly(capsys, "oracle", "--config", path, "--n-max", "2")
        assert (code, out, err) == (3, "", "qnet: kernel residual or its scale overflows double precision\n")

    @pytest.mark.parametrize(
        "rabi, population",
        [(10.0, "3.2e-01"), (1e150, "3.3e-01"), (1e160, "3.3e-01"), (1e200, "3.3e-01"), (1e300, "3.3e-01")],
        ids=["rabi_re-10", "rabi_re-1e+150", "rabi_re-1e+160", "rabi_re-1e+200", "rabi_re-1e+300"],
    )
    def test_a_drive_past_the_cutoff_exits_5(self, capsys, tmp_path, rabi, population):
        # from 1e154 on, the squares of the generator's entries overflow, but
        # its norm and the residual scale fit, so the state is judged and refused
        path = bundled_config(tmp_path, lambda data: data["drive"].update(rabi_re=rabi))
        code, out, err = run_quietly(capsys, "oracle", "--config", path, "--n-max", "2")
        assert (code, out) == (5, "")
        assert err == f"qnet: capacity: state does not fit n_max = 2: population {population} at the cutoff of node 0\n"

    @pytest.mark.parametrize("omega_d", [1e200, 1e300], ids=["omega_d-1e+200", "omega_d-1e+300"])
    def test_a_far_detuned_drive_is_reported(self, capsys, tmp_path, omega_d):
        # the squares of the detunings overflow, but the norms fit; the nearly
        # empty state is solved and agrees with the amplitude route
        path = bundled_config(tmp_path, lambda data: data["drive"].update(omega_d=omega_d))
        code, out, err = run_quietly(capsys, "oracle", "--config", path, "--n-max", "2")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["dim"] == 9
        assert payload["amplitude_rel_discrepancy"] <= 1e-4


    def test_a_mode_that_never_decays_exits_3(self, capsys, tmp_path):
        path = two_node_config(
            tmp_path, decays=[0.0, 1.24], j=0.0, drive=dict(omega_d=1000.5, rabi=0.1),
            load=dict(gamma_load=0.5),
        )
        code, out, err = run_quietly(capsys, "oracle", "--config", path, "--n-max", "3")
        assert (code, out) == (3, "")
        assert err == (
            "qnet: network has a non-decaying mode (max Im eigenvalue of k 0.000e+00); "
            "the density-matrix oracle requires a decaying system\n"
        )


def _error_classes():
    defined = [c for c in vars(qnet.errors).values() if isinstance(c, type) and issubclass(c, Exception)]
    return defined + [OSError, MemoryError]


# constructor arguments of the errors that take more than a message
ERROR_ARGS = {"UnphysicalMatch": (-0.5, 1e-14), "ConvergenceFailure": (2.5e-3,)}

# the stderr prefix and exit code of each error that does not end with a bare "qnet: " and 3
EXITS = {
    qnet.ValidationError: ("qnet: input error: ", 2),
    MemoryError: ("qnet: input error: ", 2),
    qnet.UnphysicalMatch: ("qnet: infeasible match: ", 4),
    qnet.CapacityError: ("qnet: capacity: ", 5),
    OSError: ("qnet: ", 2),
}


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_each_error_maps_to_its_exit_code_and_prefix(capsys, monkeypatch, cls):
    error = cls(*ERROR_ARGS.get(cls.__name__, ("boom",)))

    def fail(spec):
        raise error

    monkeypatch.setattr(qnet.cli, "solve_amplitudes", fail)
    code, out, err = run(capsys, "solve", "--config", str(CONFIGS / "two_node.json"))
    prefix, expected = EXITS.get(cls, ("qnet: ", 3))
    assert (code, out) == (expected, "")
    assert err == f"{prefix}{error}\n"
    assert "Traceback" not in err


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
        return child(["-c", self.LIMIT, *argv])

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


class TestUnknownFlag:
    """A flag that a command does not take is reported under the usage of
    that command, not the top-level one, and nothing is written."""

    @pytest.mark.parametrize(
        "command, argv, extra",
        [
            ("solve", ["--config", str(CONFIGS / "two_node.json")], ["--bogus", "1"]),
            ("gen chain", ["--nodes", "3"], ["--seed", "4"]),
        ],
        ids=["solve", "gen-chain"],
    )
    def test_the_command_being_parsed_reports_it(self, capsys, tmp_path, command, argv, extra):
        out_path = tmp_path / "x.json"
        with pytest.raises(SystemExit) as stop:
            main([*command.split(), *argv, *extra, "--out", str(out_path)])
        assert stop.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: qnet {command} [-h] ")
        assert err.endswith(f"qnet {command}: error: unrecognized arguments: {' '.join(extra)}\n")
        assert not out_path.exists()


class TestModuleEntryPoint:
    """`python -m qnet.cli`, which exits with main's code as the `qnet`
    script does, in a child interpreter."""

    def run_module(self, *argv):
        return child(["-m", "qnet.cli", *argv])

    def test_gen_and_nan_config_exit_codes(self, tmp_path):
        out_path = tmp_path / "chain.json"
        done = self.run_module("gen", "chain", "--nodes", "3", "--out", str(out_path))
        assert (done.returncode, done.stderr) == (0, "")
        assert qnet.load_config(out_path).n_nodes == 3

        bad = bundled_config(tmp_path, lambda data: data["nodes"][0].update(omega=float("nan")))
        done = self.run_module("solve", "--config", bad)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("qnet: input error:")
        assert "Traceback" not in done.stderr

    def test_overflow_exits_3_with_warnings_as_errors(self, monkeypatch, tmp_path):
        # a numpy warning would end the process with a traceback and exit 1
        monkeypatch.setenv("PYTHONWARNINGS", "error")
        thevenin = write_config(tmp_path, thevenin_overflow())
        oracle = bundled_config(tmp_path, lambda data: data["drive"].update(rabi_re=1e308))
        for argv, message in (
            (("thevenin", "--config", thevenin), "h_th or omega_th"),
            (("oracle", "--config", oracle, "--n-max", "2"), "kernel residual or its scale"),
        ):
            done = self.run_module(*argv)
            expected = f"qnet: {message} overflows double precision\n"
            assert (done.returncode, done.stdout, done.stderr) == (3, "", expected)

    def test_a_drive_past_the_cutoff_exits_5_with_warnings_as_errors(self, monkeypatch, tmp_path):
        # at 1e160 the squares of the generator's entries overflow; its norm does not
        monkeypatch.setenv("PYTHONWARNINGS", "error")
        expected = "qnet: capacity: state does not fit n_max = 2: population 3.3e-01 at the cutoff of node 0\n"
        for rabi in (1e150, 1e160):
            oracle = bundled_config(tmp_path, lambda data: data["drive"].update(rabi_re=rabi))
            done = self.run_module("oracle", "--config", oracle, "--n-max", "2")
            assert (done.returncode, done.stdout, done.stderr) == (5, "", expected)


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
