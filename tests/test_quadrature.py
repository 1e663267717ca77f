import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehglue.fields import point_group
from ehglue.obstruction import _corner_sample
from ehglue import quadrature
from ehglue.quadrature import (KahanAccumulator, chunked_kahan_dot, fold_rule,
                               kahan_sum, line_fit, node_batches,
                               radial_integral, s3_quadrature, sphere_rule)
from ehglue.sym2 import POINT_BLOCK

IDENTITY = np.eye(4)[None]


def test_sphere_total_weight():
    for order, rho in ((4, 1.0), (8, 0.5), (16, 2.0)):
        weights = sphere_rule(order, rho, False)[1]
        assert kahan_sum(weights, 0) == pytest.approx(
            2 * np.pi ** 2 * rho ** 3, rel=1e-13)


def test_sphere_coordinate_square():
    nodes, weights = s3_quadrature(8)
    # symmetry oracle: the four coordinate squares sum to the full measure,
    # so each one integrates to 2π²/4
    vals = [float(np.sum(weights * nodes[:, i] ** 2))
            for i in range(4)]
    assert sum(vals) == pytest.approx(2 * np.pi ** 2, rel=1e-13)
    for v in vals:
        assert v == pytest.approx(np.pi ** 2 / 2, rel=1e-12)


def test_sphere_odd_moment_vanishes():
    nodes, weights = s3_quadrature(8)
    val = float(np.sum(weights * nodes[:, 0] * nodes[:, 1]))
    assert abs(val) < 1e-14


def test_sphere_polynomial_exactness_matches_halton_free_oracle():
    # quartic moment on the unit 3-sphere: E[x1^4] = 3/(4·6) · 2π²
    nodes, weights = s3_quadrature(8)
    val = float(np.sum(weights * nodes[:, 0] ** 4))
    assert val == pytest.approx(2 * np.pi ** 2 * (1.0 / 8.0), rel=1e-12)
    mixed = float(np.sum(weights * nodes[:, 0] ** 2 * nodes[:, 1] ** 2))
    assert mixed == pytest.approx(2 * np.pi ** 2 / 24.0, rel=1e-12)


def test_sphere_order_doubling_within_estimate():
    rng = np.random.default_rng(5)
    a = rng.normal(size=4)

    def f(nodes):
        return np.exp(nodes @ a * 0.3)

    lo_nodes, lo_weights = s3_quadrature(12)
    hi_nodes, hi_weights = s3_quadrature(24)
    v_lo = float(np.sum(lo_weights * f(lo_nodes)))
    v_hi = float(np.sum(hi_weights * f(hi_nodes)))
    assert abs(v_lo - v_hi) < 1e-10


def test_sphere_preconditions():
    with pytest.raises(ValueError):
        s3_quadrature(3)
    with pytest.raises(ValueError):
        sphere_rule(8, -1.0, False)


def _invariant_polynomials(x):
    """Point-group symmetrised polynomials of degree 4: |x|⁴, Σx_i⁴ and
    Σ_{i<j} x_i² x_j²."""
    sq = x * x
    quartic = np.sum(sq * sq, axis=-1)
    total = np.sum(sq, axis=-1)
    return total * total, quartic, 0.5 * (total * total - quartic)


def _check_fold(nodes, weights, folded_count, orbit_size):
    reps, orbit_w = fold_rule(nodes, weights, point_group())
    _, sizes = fold_rule(nodes, np.ones_like(weights), point_group())
    assert reps.shape == (folded_count, 4)
    assert np.sum(sizes) == nodes.shape[0]
    assert set(sizes.tolist()) <= orbit_size
    # every representative is a node of the full rule, bit for bit
    full = {row.tobytes() for row in nodes}
    assert all(row.tobytes() in full for row in reps)
    assert kahan_sum(orbit_w, 0) == pytest.approx(kahan_sum(weights, 0),
                                                  rel=1e-15)
    for p_full, p_fold in zip(_invariant_polynomials(nodes),
                              _invariant_polynomials(reps)):
        want = chunked_kahan_dot(weights, p_full)
        assert abs(chunked_kahan_dot(orbit_w, p_fold) - want) <= 1e-14 * want


@pytest.mark.parametrize("order,rho", [(6, 1.0), (8, 0.3), (16, 0.5),
                                       (24, 1.0)])
def test_fold_even_s3_rule_is_sixteen_to_one(order, rho):
    nodes, weights = sphere_rule(order, rho, False)
    _check_fold(nodes, weights, 2 * order ** 3 // 16, {16.0})
    _, orbit_w = fold_rule(nodes, weights, point_group())
    assert kahan_sum(orbit_w, 0) == pytest.approx(2 * np.pi ** 2 * rho ** 3,
                                                  rel=1e-14)


def test_fold_odd_s3_rule_has_a_smaller_stabilizer():
    # 2·order ≡ 2 (mod 4): the azimuth grid misses φ = π/2, so the swap of
    # x3 and x4 fixes no node set and no orbit reaches 16
    nodes, weights = s3_quadrature(7)
    _, sizes = fold_rule(nodes, np.ones_like(weights), point_group())
    _check_fold(nodes, weights, sizes.size, {2.0, 4.0, 8.0})


def test_fold_corner_grid_under_the_whole_group():
    pts, weights = _corner_sample(False)
    assert pts.shape == (2784, 4)
    _check_fold(pts, weights, 51, {16.0, 32.0, 64.0})


def test_fold_by_the_identity_is_the_full_rule():
    full = sphere_rule(8, 0.4, False)
    nodes, weights = fold_rule(*full, IDENTITY)
    assert nodes.tobytes() == full[0].tobytes()
    assert weights.tobytes() == full[1].tobytes()


def test_sphere_rule_is_the_full_or_the_folded_rule():
    # full: the unit rule scaled to the radius; folded: the unit rule's
    # fold scaled to the radius
    for order, rho in ((6, 0.1), (8, 0.33), (6, 0.315)):
        unit_nodes, unit_weights = s3_quadrature(order)
        nodes, weights = sphere_rule(order, rho, False)
        assert nodes.tobytes() == (unit_nodes * rho).tobytes()
        assert weights.tobytes() == (unit_weights * rho ** 3).tobytes()
        reps, orbit_w = fold_rule(unit_nodes, unit_weights, point_group())
        nodes, weights = sphere_rule(order, rho, True)
        assert nodes.tobytes() == (reps * rho).tobytes()
        assert weights.tobytes() == (orbit_w * rho ** 3).tobytes()


def _full_rule_sites():
    """(order, radius) of every full sphere rule the suites and obstruction
    integrals sample at their reference parameters, radii formed as there."""
    delta = 0.3
    sites = [(k, r) for k in (16, 10) for r in (0.5, 0.25, 1.0)]
    sites += [(k, d) for k in (24, 16, 8) for d in (delta, 0.15)]
    sites += [(12, d) for d in (0.25, 0.3, 0.35)]
    sites += [(6, r) for r in (0.3 * delta, 0.1, 0.7 * delta, 10.0, 15.0,
                               25.0, 40.0)]
    sites += [(4, f * delta) for f in (0.55, 0.9, 1.5)]
    sites += [(5, r) for r in np.array([0.3, 0.6, 0.75, 0.9, 1.0]) * delta]
    return sites


# sha256 of the full rules at _full_rule_sites(), nodes then weights per
# site as little-endian doubles, recorded from s3_quadrature(order, radius)
# when that function still scaled its own rule to the radius
FULL_RULES_DIGEST = ("bce312fffd8edd1391bc80000527f8b7"
                     "44784e4c5478177d3ca92da27c7f9da1")


def test_full_sphere_rule_keeps_the_bits_of_s3_quadrature():
    digest = hashlib.sha256()
    for order, rho in _full_rule_sites():
        for arr in sphere_rule(order, rho, False):
            digest.update(arr.astype("<f8").tobytes())
    assert digest.hexdigest() == FULL_RULES_DIGEST


@pytest.mark.parametrize("order", [6, 7, 8])
def test_unit_rules_are_built_once_and_read_only(order):
    folded = quadrature._unit_rule(order, True)
    assert quadrature._unit_rule(order, True) is folded
    assert not any(arr.flags.writeable for arr in folded)
    unit = s3_quadrature(order)
    for got, want in zip(folded, fold_rule(*unit, point_group())):
        assert got.tobytes() == want.tobytes()
    full = quadrature._unit_rule(order, False)
    assert full[0].tobytes() == unit[0].tobytes()
    assert not full[0].flags.writeable
    group = point_group()
    assert point_group() is group and not group.flags.writeable


def test_fold_leaves_out_elements_that_miss_the_node_set():
    # a node set with no symmetry beyond the identity folds to itself
    nodes = np.array([[0.3, 0.1, 0.2, 0.7], [0.1, 0.5, 0.2, 0.6]])
    reps, weights = fold_rule(nodes, np.array([0.25, 0.5]), point_group())
    assert reps.tobytes() == nodes.tobytes()
    assert weights.tolist() == [0.25, 0.5]


@given(st.lists(st.integers(1, 2 * POINT_BLOCK + 3), max_size=12))
@settings(max_examples=100, deadline=None)
def test_node_batches_stack_consecutive_sets_up_to_a_block(sizes):
    sets = [np.arange(4.0 * n).reshape(n, 4) + 1000.0 * k
            for k, n in enumerate(sizes)]
    batches = list(node_batches(sets))
    taken = []
    for nodes, slices in batches:
        assert slices and slices[0].start == 0
        assert slices[-1].stop == nodes.shape[0]
        assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
        # a batch overfills a block only as one set of its own
        assert nodes.shape[0] <= POINT_BLOCK or len(slices) == 1
        taken += [nodes[sl] for sl in slices]
    # every set exactly once, in order, with its bits
    assert len(taken) == len(sets)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(taken, sets))
    # batches are greedy: the set after a batch would overfill it
    after = np.cumsum([len(slices) for _, slices in batches])[:-1]
    for (nodes, _), k in zip(batches, after):
        assert nodes.shape[0] + sizes[k] > POINT_BLOCK


def test_node_batches_of_no_sets_yield_nothing():
    assert list(node_batches([])) == []
    one = sphere_rule(6, 0.5, True)[0]
    assert [n is one for n, _ in node_batches([one])] == [True]


def test_radial_unit_cube_moment():
    val, est = radial_integral(lambda r: r ** 3, 0.0, 1.0, 0.0, 1.0)
    assert val == pytest.approx(0.25, abs=1e-14)


def test_radial_power_tail():
    val, est = radial_integral(lambda r: r ** -2.0, 1.0, np.inf, 5.0, 1.0)
    assert val == pytest.approx(1.0, rel=1e-12)
    assert est < 1e-10


def test_radial_kernel_norm_case():
    val, est = radial_integral(
        lambda r: 4.0 * (1.0 / (1.0 + r ** 4)) ** 2 * 2 * np.pi ** 2 * r ** 3,
        0.0, np.inf, 16.0, 1.0)
    assert val == pytest.approx(2 * np.pi ** 2, rel=1e-9)
    assert abs(val - 2 * np.pi ** 2) <= max(est, 1e-9)


def test_radial_rejects_nonintegrable_tail():
    with pytest.raises(ValueError):
        radial_integral(lambda r: r ** -1.0, 1.0, np.inf, 4.0, 1.0)


def test_kahan_recovers_lost_bits():
    vals = np.array([1.0] + [1e-17] * 100000)
    assert kahan_sum(vals, 0) == pytest.approx(1.0 + 1e-12, rel=1e-15)


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
@settings(max_examples=100, deadline=None)
def test_kahan_matches_exact_sum(values):
    import math
    acc = KahanAccumulator()
    for v in values:
        acc.add(v)
    assert acc.result() == pytest.approx(math.fsum(values), abs=1e-9)


def test_line_fit_recovers_slope():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    slope, intercept = line_fit(x, -2.5 * x + 0.75)
    assert slope == pytest.approx(-2.5, abs=1e-13)
    assert intercept == pytest.approx(0.75, abs=1e-13)
