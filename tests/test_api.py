"""The package namespace: every module's public names, and only those."""
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
    )
    assert [name for name in deleted if hasattr(qnet, name)] == []
