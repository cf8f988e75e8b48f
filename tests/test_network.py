"""Network model: generators, validation, config round-trips."""
import json

import numpy as np
import pytest

import qnet
from qnet.errors import ValidationError


def _drive(n, omega_d=1002.5):
    return qnet.DriveSpec(node=0, omega_d=omega_d, rabi=0.1)


def _load(n):
    return qnet.LoadSpec(node=n - 1, delta_omega=0.0, gamma_load=1.0)


class TestBuildChain:
    def test_single_node_has_no_neighbours(self):
        spec = qnet.build_chain(1, 1000.0, 5.0, 1.0, _drive(1), _load(1))
        assert spec.couplings.shape == (1, 1)
        assert spec.couplings[0, 0] == 0.0

    def test_three_node_pattern(self):
        spec = qnet.build_chain(3, 1000.0, 2.5, 1.0, _drive(3), _load(3))
        expected = np.array([[0, 2.5, 0], [2.5, 0, 2.5], [0, 2.5, 0]])
        assert np.array_equal(spec.couplings, expected)

    def test_fifty_node_bandwidth_one(self):
        spec = qnet.build_chain(50, 1000.0, 2.5, 1.0, _drive(50), _load(50))
        off = spec.couplings.copy()
        idx = np.arange(49)
        assert np.all(off[idx, idx + 1] == 2.5)
        off[idx, idx + 1] = 0.0
        off[idx + 1, idx] = 0.0
        assert np.all(off == 0.0)

    def test_uniform_fields(self):
        spec = qnet.build_chain(4, 999.0, 1.0, 0.75, _drive(4), _load(4))
        assert np.all(spec.node_frequencies == 999.0)
        assert np.all(spec.intrinsic_decays == 0.75)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValidationError):
            qnet.build_chain(0, 1000.0, 2.5, 1.0, _drive(1), _load(1))


class TestBuildRandom:
    def test_zero_std_gives_exact_mean(self):
        spec = qnet.build_random_all_to_all(2, 1000.0, 2.5, 0.0, 1.0, 1, _drive(2), _load(2))
        assert spec.couplings[0, 1] == 2.5
        assert spec.couplings[1, 0] == 2.5

    def test_seed_determinism(self):
        a = qnet.build_random_all_to_all(50, 1000.0, 2.5, 1.0, 1.0, 9, _drive(50), _load(50))
        b = qnet.build_random_all_to_all(50, 1000.0, 2.5, 1.0, 1.0, 9, _drive(50), _load(50))
        assert np.array_equal(a.couplings, b.couplings)

    def test_different_seeds_differ(self):
        a = qnet.build_random_all_to_all(10, 1000.0, 2.5, 1.0, 1.0, 1, _drive(10), _load(10))
        b = qnet.build_random_all_to_all(10, 1000.0, 2.5, 1.0, 1.0, 2, _drive(10), _load(10))
        assert not np.array_equal(a.couplings, b.couplings)

    def test_sample_mean_near_target(self):
        spec = qnet.build_random_all_to_all(50, 1000.0, 2.5, 1.0, 1.0, 123, _drive(50), _load(50))
        draws = spec.couplings[np.triu_indices(50, 1)]
        stderr = 1.0 / np.sqrt(draws.size)
        assert abs(draws.mean() - 2.5) < 3.0 * stderr

    def test_dense_symmetric(self):
        spec = qnet.build_random_all_to_all(8, 1000.0, 2.5, 1.0, 1.0, 4, _drive(8), _load(8))
        assert np.array_equal(spec.couplings, spec.couplings.T)
        off = spec.couplings[np.triu_indices(8, 1)]
        assert np.all(off != 0.0)  # normal draws never hit zero exactly

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValidationError):
            qnet.build_random_all_to_all(0, 1000.0, 2.5, 1.0, 1.0, 1, _drive(1), _load(1))

    def test_negative_std_rejected(self):
        with pytest.raises(ValidationError):
            qnet.build_random_all_to_all(3, 1000.0, 2.5, -1.0, 1.0, 1, _drive(3), _load(3))


class TestValidate:
    def _spec(self, **overrides):
        fields = dict(
            node_frequencies=np.array([1000.0, 1000.0]),
            intrinsic_decays=np.array([1.0, 1.0]),
            couplings=np.array([[0.0, 2.0], [2.0, 0.0]]),
            drive=qnet.DriveSpec(node=0, omega_d=1000.0, rabi=0.1),
            load=qnet.LoadSpec(node=1, delta_omega=0.0, gamma_load=1.0),
        )
        fields.update(overrides)
        return qnet.NetworkSpec(**fields)

    def test_valid_spec_is_clean(self):
        assert qnet.validate(self._spec()) is None

    # an invalid spec cannot be built: construction raises every error
    # joined by "; ", so a message without "; " holds exactly one

    def test_asymmetric_couplings(self):
        with pytest.raises(ValidationError, match="symmetric") as err:
            self._spec(couplings=np.array([[0.0, 2.0], [2.1, 0.0]]))
        assert "; " not in str(err.value)

    def test_negative_decay(self):
        with pytest.raises(ValidationError, match=r"gamma\[0\]") as err:
            self._spec(intrinsic_decays=np.array([-1.0, 1.0]))
        assert "; " not in str(err.value)

    def test_nonzero_diagonal(self):
        with pytest.raises(ValidationError, match="diagonal"):
            self._spec(couplings=np.array([[1.0, 2.0], [2.0, 0.0]]))

    def test_bad_indices(self):
        with pytest.raises(ValidationError, match="drive node"):
            self._spec(drive=qnet.DriveSpec(node=5, omega_d=1000.0, rabi=0.1))
        with pytest.raises(ValidationError, match="load node"):
            self._spec(load=qnet.LoadSpec(node=-1, gamma_load=1.0))

    @pytest.mark.parametrize(
        "node", [0.5, 1.0, True, np.float64(1.0), "1"],
        ids=["half", "float-one", "true", "numpy-float", "string"],
    )
    @pytest.mark.parametrize("role", ["drive", "load"])
    def test_non_integer_node_rejected(self, role, node):
        # True would index node 1 and 0.5 would pass the range check
        with pytest.raises(ValidationError, match=f"{role} node must be an integer"):
            if role == "drive":
                qnet.DriveSpec(node=node, omega_d=1000.0, rabi=0.1)
            else:
                qnet.LoadSpec(node=node, gamma_load=1.0)

    def test_numpy_integer_node_accepted(self):
        spec = self._spec(load=qnet.LoadSpec(node=np.int64(1), gamma_load=1.0))
        assert qnet.solve_amplitudes(spec).amplitudes.shape == (2,)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("couplings", np.array([[0, 2 + 1j], [2 - 1j, 0]]), "couplings must be real numbers"),
            ("couplings", np.array([[0, 2 + 0j], [2 + 0j, 0]]), "couplings must be real numbers"),
            ("node_frequencies", ["a", "b"], "node_frequencies must be real numbers"),
            ("intrinsic_decays", [1.0, None], "intrinsic_decays must be real numbers"),
            ("couplings", [[0.0, 2.0], [2.0]], "couplings must be a rectangular array"),
            ("node_frequencies", [True, True], "node_frequencies must be real numbers, got dtype bool"),
        ],
        ids=["complex", "complex-real-valued", "strings", "none", "ragged", "bool"],
    )
    def test_array_of_wrong_type_rejected(self, field, value, message):
        # a complex array is refused, not stored as its real part
        with pytest.raises(ValidationError, match=message):
            self._spec(**{field: value})

    def test_scalar_frequencies_rejected(self):
        with pytest.raises(ValidationError, match="shapes differ"):
            self._spec(node_frequencies=1000.0)


class TestScalarFields:
    """DriveSpec and LoadSpec check and normalise their own fields."""

    @pytest.mark.parametrize(
        "kind,field,value,message",
        [
            ("load", "delta_omega", 1j, "load delta_omega must be real, got 1j"),
            ("load", "gamma_load", 1 + 0j, r"load gamma_load must be real, got \(1\+0j\)"),
            ("drive", "omega_d", 1000j, "drive omega_d must be real, got 1000j"),
            ("drive", "omega_d", "1000", "drive omega_d must be real, got '1000'"),
            ("load", "gamma_load", None, "load gamma_load must be real, got None"),
            ("load", "delta_omega", True, "load delta_omega must be real, got True"),
            ("load", "gamma_load", np.bool_(True), "load gamma_load must be real"),
            ("drive", "rabi", True, "drive rabi must be a number, got True"),
            ("drive", "rabi", "0.1", "drive rabi must be a number"),
            ("drive", "rabi", complex(np.nan, 0.0), r"drive rabi must be finite, got \(nan\+0j\)"),
            ("drive", "rabi", complex(0.1, np.inf), r"drive rabi must be finite, got \(0\.1\+infj\)"),
            pytest.param("drive", "omega_d", 10**400, "drive omega_d must be real, got 1000", id="huge-int"),
            ("load", "gamma_load", [1.0], r"load gamma_load must be a single number, got an array of shape \(1,\)"),
            ("load", "delta_omega", [1, 2], "load delta_omega must be a single number"),
            ("drive", "omega_d", [1.0], "drive omega_d must be a single number"),
            ("drive", "rabi", [0.1, 0.2], "drive rabi must be a single number"),
        ],
    )
    def test_bad_value_rejected_naming_the_field(self, kind, field, value, message):
        fields = (
            dict(node=0, omega_d=1000.0, rabi=0.1) if kind == "drive" else dict(node=1, gamma_load=1.0)
        )
        fields[field] = value
        with pytest.raises(ValidationError, match=message):
            qnet.DriveSpec(**fields) if kind == "drive" else qnet.LoadSpec(**fields)

    def test_numpy_scalars_become_python_numbers(self):
        drive = qnet.DriveSpec(node=np.int64(0), omega_d=np.float32(1000.5), rabi=np.complex64(0.5j))
        load = qnet.LoadSpec(node=np.uint8(1), delta_omega=np.int32(-2), gamma_load=np.float64(1.5))
        assert (type(drive.node), type(drive.omega_d), type(drive.rabi)) == (int, float, complex)
        assert (type(load.node), type(load.delta_omega), type(load.gamma_load)) == (int, float, float)
        assert (drive.node, drive.omega_d, drive.rabi) == (0, 1000.5, 0.5j)
        assert (load.node, load.delta_omega, load.gamma_load) == (1, -2.0, 1.5)


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        spec = qnet.build_random_all_to_all(
            6, 1000.0, 2.5, 1.0, 0.8, 21,
            qnet.DriveSpec(node=2, omega_d=1001.5, rabi=0.1 - 0.2j),
            qnet.LoadSpec(node=5, delta_omega=-0.4, gamma_load=2.0),
        )
        path = tmp_path / "net.json"
        qnet.save_config(spec, path, seed=21)
        again = qnet.load_config(path)
        assert np.array_equal(again.couplings, spec.couplings)
        assert np.array_equal(again.node_frequencies, spec.node_frequencies)
        assert again.drive == spec.drive
        assert again.load == spec.load
        assert json.loads(path.read_text())["seed"] == 21

    def test_unlisted_edges_are_zero(self):
        data = {
            "nodes": [{"omega": 1000.0, "gamma": 1.0}] * 3,
            "edges": [{"i": 0, "j": 2, "J": 1.5}],
            "drive": {"node": 0, "omega_d": 1000.0, "rabi_re": 0.1, "rabi_im": 0.0},
            "load": {"node": 2, "delta_omega": 0.0, "gamma_load": 1.0},
        }
        spec = qnet.from_config_dict(data)
        assert spec.couplings[0, 1] == 0.0
        assert spec.couplings[0, 2] == 1.5
        assert spec.couplings[2, 0] == 1.5

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"nodes": [')
        with pytest.raises(ValidationError, match="line"):
            qnet.load_config(path)

    def test_missing_field(self):
        with pytest.raises(ValidationError, match="drive"):
            qnet.from_config_dict({"nodes": [{"omega": 1.0, "gamma": 0.0}]})

    def test_duplicate_edge(self):
        data = {
            "nodes": [{"omega": 1000.0, "gamma": 1.0}] * 2,
            "edges": [{"i": 0, "j": 1, "J": 1.0}, {"i": 1, "j": 0, "J": 2.0}],
            "drive": {"node": 0, "omega_d": 1000.0, "rabi_re": 0.1, "rabi_im": 0.0},
            "load": {"node": 1, "delta_omega": 0.0, "gamma_load": 1.0},
        }
        with pytest.raises(ValidationError, match="duplicate"):
            qnet.from_config_dict(data)

    @pytest.mark.parametrize("value", [True, False, 1.5])
    @pytest.mark.parametrize(
        "section,key", [("drive", "node"), ("load", "node"), ("edges", "i"), ("edges", "j")]
    )
    def test_non_integer_index_rejected(self, section, key, value):
        data = {
            "nodes": [{"omega": 1000.0, "gamma": 1.0}] * 2,
            "edges": [{"i": 0, "j": 1, "J": 1.0}],
            "drive": {"node": 0, "omega_d": 1000.0, "rabi_re": 0.1, "rabi_im": 0.0},
            "load": {"node": 1, "delta_omega": 0.0, "gamma_load": 1.0},
        }
        target = data["edges"][0] if section == "edges" else data[section]
        target[key] = value
        with pytest.raises(ValidationError, match=f"'{key}'.*must be int"):
            qnet.from_config_dict(data)

    def test_integral_float_index_accepted(self):
        data = {
            "nodes": [{"omega": 1000.0, "gamma": 1.0}] * 2,
            "edges": [{"i": 0.0, "j": 1.0, "J": 1.0}],
            "drive": {"node": 0.0, "omega_d": 1000.0, "rabi_re": 0.1, "rabi_im": 0.0},
            "load": {"node": 1.0, "delta_omega": 0.0, "gamma_load": 1.0},
        }
        spec = qnet.from_config_dict(data)
        assert spec.load.node == 1 and spec.drive.node == 0
        assert spec.couplings[0, 1] == 1.0

    def test_edge_out_of_range(self):
        data = {
            "nodes": [{"omega": 1000.0, "gamma": 1.0}] * 2,
            "edges": [{"i": 0, "j": 7, "J": 1.0}],
            "drive": {"node": 0, "omega_d": 1000.0, "rabi_re": 0.1, "rabi_im": 0.0},
            "load": {"node": 1, "delta_omega": 0.0, "gamma_load": 1.0},
        }
        with pytest.raises(ValidationError, match="out of range"):
            qnet.from_config_dict(data)

    @pytest.mark.parametrize(
        "edges",
        [None, 5, 1.5, True, "0-1", {"i": 0, "j": 1, "J": 1.0}, pytest.param("e" * 500, id="long")],
    )
    def test_edges_not_a_list_rejected(self, edges):
        data = {
            "nodes": [{"omega": 1000.0, "gamma": 1.0}] * 2,
            "edges": edges,
            "drive": {"node": 0, "omega_d": 1000.0, "rabi_re": 0.1, "rabi_im": 0.0},
            "load": {"node": 1, "delta_omega": 0.0, "gamma_load": 1.0},
        }
        with pytest.raises(ValidationError, match="'edges' must be a list") as err:
            qnet.from_config_dict(data)
        assert len(str(err.value)) < 100  # a long value is not echoed in full

    @pytest.mark.parametrize(
        "section,key", [("nodes", "omega"), ("nodes", "gamma"), ("edges", "J"),
                        ("drive", "omega_d"), ("drive", "rabi_re"), ("load", "gamma_load")]
    )
    def test_integer_too_large_for_a_float_rejected(self, section, key):
        data = {
            "nodes": [{"omega": 1000.0, "gamma": 1.0}] * 2,
            "edges": [{"i": 0, "j": 1, "J": 1.0}],
            "drive": {"node": 0, "omega_d": 1000.0, "rabi_re": 0.1, "rabi_im": 0.0},
            "load": {"node": 1, "delta_omega": 0.0, "gamma_load": 1.0},
        }
        target = data[section][0] if section in ("nodes", "edges") else data[section]
        target[key] = 10**400
        with pytest.raises(ValidationError, match=f"'{key}'.*must be float") as err:
            qnet.from_config_dict(data)
        assert len(str(err.value)) < 100  # the 401-digit literal is not echoed in full

    def test_integer_past_the_digit_limit_rejected(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"nodes": 1' + "0" * 5000 + "}")
        with pytest.raises(ValidationError, match="digits"):
            qnet.load_config(path)

    def test_bytes_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b'\xff\xfe{"nodes": []}')
        with pytest.raises(ValidationError, match="utf-8"):
            qnet.load_config(path)


class TestSpecValueSemantics:
    def test_arrays_read_only(self):
        spec = qnet.build_chain(3, 1000.0, 2.5, 1.0, _drive(3), _load(3))
        with pytest.raises(ValueError):
            spec.couplings[0, 1] = 9.0

    def test_with_load_copies(self):
        spec = qnet.build_chain(3, 1000.0, 2.5, 1.0, _drive(3), _load(3))
        other = spec.with_load(gamma_load=4.0)
        assert other.load.gamma_load == 4.0
        assert spec.load.gamma_load == 1.0
        assert other.load.delta_omega == spec.load.delta_omega

    def test_with_drive_copies(self):
        spec = qnet.build_chain(3, 1000.0, 2.5, 1.0, _drive(3), _load(3))
        other = spec.with_drive(rabi=0.5j)
        assert other.drive.rabi == 0.5j
        assert spec.drive.rabi == 0.1
