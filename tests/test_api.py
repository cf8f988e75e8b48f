"""The package namespace: every module's public names, and only those."""
import inspect

import pytest

import qnet
from qnet import lindblad, network, power, steady, thevenin


def test_module_all_lists_match_package():
    for module in (network, steady, thevenin, power, lindblad):
        missing = [name for name in module.__all__ if not hasattr(qnet, name)]
        assert missing == [], f"{module.__name__}.__all__ names not exported by qnet: {missing}"
    deleted = (
        "expectation_amplitude",
        "expectation_correlator",
        "efficiency",
        "spectral_density_sweep",
        "UndefinedEfficiency",
        "Violation",
        "input_power",
        "radiated_power",
        "load_power",
        "PivotBreakdown",
    )
    assert [name for name in deleted if hasattr(qnet, name)] == []


def test_deferred_oracle_names_resolve_to_lindblad():
    assert qnet.oracle_report is lindblad.oracle_report
    assert [name for name in lindblad.__all__ if name not in dir(qnet)] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qnet import *", namespace)
    for module in (network, steady, thevenin, power, lindblad):
        assert [name for name in module.__all__ if namespace.get(name) is not getattr(module, name)] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(qnet, "no_such_name")


def test_oracles_take_the_spec_alone():
    for oracle in (qnet.time_domain_steady_state, qnet.grid_check):
        assert list(inspect.signature(oracle).parameters) == ["spec"], oracle.__name__
