import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehglue.heat import (KernelQuery, decay_rate_scan, direct_cutoff,
                         heat_kernel_minus, heat_kernel_plus, kernel_on_grid,
                         semigroup_defect, sup_deviation, theta_1d)

X = (0.1, 0.2, 0.3, 0.4)
X0 = (0.0, 0.0, 0.0, 0.0)


def test_direct_dual_crossover_agreement():
    for fn in (heat_kernel_plus, heat_kernel_minus):
        d = fn(KernelQuery(X, X0, 0.25, "direct"))
        u = fn(KernelQuery(X, X0, 0.25, "dual"))
        assert abs(d - u) <= 1e-12 * max(1.0, abs(d))


def test_plain_kernel_constant_at_large_time():
    assert abs(heat_kernel_plus(KernelQuery(X, X0, 1.0)) - 1.0) <= 1e-12


def test_alternating_kernel_decays():
    assert abs(heat_kernel_minus(KernelQuery(X, X0, 1.0))) <= 1e-12


def test_small_time_gaussian_normalization():
    t = 0.002
    val = heat_kernel_plus(KernelQuery(X0, X0, t))
    assert val * (4 * np.pi * t) ** 2 == pytest.approx(1.0, rel=1e-12)


def test_alternating_antisymmetric_under_odd_shift():
    q0 = KernelQuery(X, X0, 0.4, "direct")
    shifted = (X[0] + 1.0, X[1], X[2], X[3])
    q1 = KernelQuery(shifted, X0, 0.4, "direct")
    assert heat_kernel_minus(q1) == pytest.approx(-heat_kernel_minus(q0),
                                                  abs=1e-15)


def test_plain_kernel_periodic():
    q0 = KernelQuery(X, X0, 0.4, "direct")
    shifted = (X[0] + 2.0, X[1], X[2] - 2.0, X[3])
    q1 = KernelQuery(shifted, X0, 0.4, "direct")
    assert heat_kernel_plus(q1) == pytest.approx(heat_kernel_plus(q0),
                                                 rel=1e-13)


def test_torus_symmetry_generators():
    from ehglue.fields import torus_generators
    for sym in torus_generators():
        x1 = tuple(sym.apply(np.array(X)))
        x01 = tuple(sym.apply(np.array(X0)))
        for fn in (heat_kernel_plus, heat_kernel_minus):
            a = fn(KernelQuery(X, X0, 0.35, "direct"))
            b = fn(KernelQuery(x1, x01, 0.35, "direct"))
            assert b == pytest.approx(a, rel=1e-13)


def test_factorized_grid_matches_pointwise():
    grid = kernel_on_grid(17, 0.3, signed=False)
    q = KernelQuery((3 / 17, 5 / 17, 0.0, 11 / 17), X0, 0.3)
    assert grid[3, 5, 0, 11] == pytest.approx(heat_kernel_plus(q), rel=1e-13)
    grid_m = kernel_on_grid(17, 0.3, signed=True)
    qm = KernelQuery((3 / 17, 5 / 17, 0.0, 11 / 17), X0, 0.3)
    assert grid_m[3, 5, 0, 11] == pytest.approx(heat_kernel_minus(qm),
                                                rel=1e-12)


def test_decay_rates_match_spectral_gap():
    target = -4 * np.pi ** 2
    times = np.linspace(0.3, 1.5, 7)
    for signed in (False, True):
        rate = decay_rate_scan(signed, times)
        assert abs(rate / target - 1.0) <= 0.05


def test_sup_grid_refinement():
    for t in (0.3, 0.5):
        a = sup_deviation(t, False, 17)
        b = sup_deviation(t, False, 33)
        assert abs(a / b - 1.0) <= 0.01


def test_semigroup_property():
    assert semigroup_defect(0.5, 0.5) <= 1e-6
    assert semigroup_defect(0.7, 0.5) <= 1e-6


def test_alternating_dominated_by_plain():
    gp = kernel_on_grid(9, 0.3, signed=False)
    gm = kernel_on_grid(9, 0.3, signed=True)
    assert np.all(np.abs(gm) <= gp + 1e-15)
    assert np.all(gp > 0.0)


@given(st.floats(0.05, 2.0))
@settings(max_examples=30, deadline=None)
def test_direct_dual_agree_any_time(t):
    q = KernelQuery(X, X0, t)
    d = heat_kernel_plus(KernelQuery(X, X0, t, "direct"))
    u = heat_kernel_plus(KernelQuery(X, X0, t, "dual"))
    assert abs(d - u) <= 1e-11 * max(1.0, abs(d))


def test_time_must_be_positive():
    with pytest.raises(ValueError):
        heat_kernel_plus(KernelQuery(X, X0, 0.0))


def test_direct_cutoff_tail_bound():
    # adding more boxes beyond the cutoff changes nothing at tolerance
    t = 0.3
    n = direct_cutoff(t)
    z = np.array([0.45])
    a_small = theta_1d(z, t, signed=False)

    a = np.arange(-(n + 4), n + 5, dtype=float)
    expo = np.exp(-(z[:, None] - a) ** 2 / (4 * t))
    a_big = expo.sum(axis=-1) / np.sqrt(4 * np.pi * t)
    assert abs(a_small[0] - a_big[0]) < 1e-15
