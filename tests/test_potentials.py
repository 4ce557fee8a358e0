import numpy as np
import pytest

from dilutefermi.cli import resolve_potential
from dilutefermi.potentials import ConfigurationError, harmonic_trap, power_trap


def test_make_harmonic_plus_one():
    v = resolve_potential({"potential": {"kind": "harmonic_plus_one"}})
    assert v.min_value() == 1.0
    assert v.radial_fn(np.array([2.0]))[0] == 5.0


def test_make_power_at_unit_radius():
    v = resolve_potential({"potential": {"kind": "power_plus_one", "s": 4}})
    assert v.radial_fn(np.array([1.0]))[0] == 2.0


def test_out_of_range_growth_rejected():
    with pytest.raises(ConfigurationError):
        power_trap(0.5)


def test_builtins_bounded_below_by_one():
    rs = np.linspace(0.0, 25.0, 401)
    for v in (harmonic_trap(1.0), power_trap(1.7), power_trap(6.0)):
        assert np.all(v.radial_fn(rs) >= 1.0)


def test_power_growth_at_large_radius():
    for s in (1.5, 2.0, 4.0):
        v = power_trap(s)
        r = 1e3
        assert abs(v.radial_fn(np.array([r]))[0] / r**s - 1.0) < 0.01
