import numpy as np
import pytest

from dilutefermi.cli import resolve_potential
from dilutefermi.numerics import RadialProfile
from dilutefermi.potentials import (
    ConfigurationError,
    UnsupportedDiagnosticError,
    custom_radial_trap,
    h1_diagnostic,
    harmonic_trap,
    power_trap,
)


def test_make_harmonic_plus_one():
    v = resolve_potential({"potential": {"kind": "harmonic_plus_one"}})
    assert v(np.zeros((1, 3)))[0] == 1.0
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


def test_h1_constants_harmonic():
    rep = h1_diagnostic(harmonic_trap(1.0), 10.0)
    assert rep.c1 == 6.0  # |Lap V| = 6 attained against V = 1 at the origin
    assert rep.c2 == 0.0
    assert rep.c3 == 12.0
    assert rep.passed


def test_h1_power_low_growth_is_singular_at_origin():
    rep = h1_diagnostic(power_trap(1.5), 5.0)
    assert not rep.passed
    assert np.isinf(rep.c1)


def test_h1_monotone_in_radius():
    # matched spacing keeps samples nested across the three radii
    prev = None
    for radius, samples in ((2.0, 512), (4.0, 1024), (8.0, 2048)):
        rep = h1_diagnostic(power_trap(4.0), radius, samples)
        if prev is not None:
            assert rep.c1 >= prev.c1
            assert rep.c2 >= prev.c2
            assert rep.c3 >= prev.c3
        prev = rep


def test_h1_rejects_tables():
    nodes = np.linspace(0.0, 3.0, 16)
    table = RadialProfile(nodes, 1.0 + nodes**2)
    v = custom_radial_trap(table)
    with pytest.raises(UnsupportedDiagnosticError):
        h1_diagnostic(v, 2.0)


def test_custom_table_interpolation_and_tail():
    nodes = np.linspace(0.0, 2.0, 21)
    v = custom_radial_trap(RadialProfile(nodes, 1.0 + nodes**2))
    assert abs(v.radial_fn(np.array([1.0]))[0] - 2.0) < 5e-3
    assert abs(v.radial_fn(np.array([4.0]))[0] - 5.0 * 4.0) < 1e-12  # V(2)*(r/2)^2


def test_custom_table_must_be_confining():
    nodes = np.linspace(0.0, 2.0, 21)
    with pytest.raises(ConfigurationError):
        custom_radial_trap(RadialProfile(nodes, 0.5 + nodes**2))
    with pytest.raises(ConfigurationError):
        custom_radial_trap(RadialProfile(nodes, 2.0 - nodes / 10.0))
