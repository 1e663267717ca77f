import hashlib
import json
import os
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest

from ehglue import lattice
from ehglue.fields import (farfield_coordinate_jets, farfield_expand,
                           farfield_jets, farfield_scalar_jets,
                           farfield_scalars, hessian_pairs)
from ehglue.jets import DomainError
from ehglue.lattice import (OMEGA_REFERENCE, BackgroundCache,
                            BackgroundField, background_partial,
                            background_values, far_table_header,
                            farfield_taylor, flux_term_exact,
                            gegenbauer_terms, interaction_weight,
                            lattice_moments, monomial_table, near_sites,
                            omega_domain, omega_partial, parity_boxes,
                            parity_of)
from ehglue.quadrature import KAHAN_CHUNK, KahanAccumulator, kahan_sum
from ehglue.report import atomic_write
from tests.conftest import sample_offorigin


OMEGA_PAPER = 7.70


def slab_sites(cutoff):
    """Oracle enumeration: the cube max|a_i| ≤ cutoff as (m, 4) int arrays,
    one slab a1 = const at a time in increasing a1, each slab in
    lexicographic order of (a2, a3, a4)."""
    rng = np.arange(-cutoff, cutoff + 1)
    rest = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    for a1 in rng:
        out = np.empty((rest.shape[0], 4), dtype=np.int64)
        out[:, 0] = a1
        out[:, 1:] = rest
        yield out


def poly_evaluate(poly, x, order=2):
    """A far polynomial's jets at x point-first, (P, n_poly, ...), as
    (values, grads, hesses) with each Hessian pair mirrored."""
    vals, grads, pairs = poly.jets(x, order)
    if pairs is not None:
        pairs = pairs[:, hessian_pairs()[2]]
    return tuple(None if a is None else np.moveaxis(a, -1, 0)
                 for a in (vals, grads, pairs))


def test_single_site_weights():
    # eight nearest odd sites contribute one each
    total = sum(interaction_weight(np.array(a, dtype=float))
                for a in ((1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0),
                          (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 0),
                          (0, 0, 0, 1), (0, 0, 0, -1)))
    assert total == pytest.approx(8.0, abs=1e-15)
    w = interaction_weight(np.array([1.0, 1.0, 1.0, 0.0]))
    assert w == pytest.approx(-1.0 / 81.0, abs=1e-15)


def test_flux_term_exact_values():
    assert flux_term_exact((1, 0, 0, 0)) == pytest.approx(64 * np.pi ** 2)
    assert flux_term_exact((1, 1, 0, 0)) == 0.0
    assert flux_term_exact((1, 1, 1, 0)) == pytest.approx(-64 * np.pi ** 2 / 81)
    with pytest.raises(DomainError):
        flux_term_exact((0, 0, 0, 0))


def test_omega_partial_convergence():
    res = omega_partial(40)
    assert abs(res.extrapolated - OMEGA_PAPER) <= 0.05
    # absolutely convergent: consecutive cube tails shrink near quadratically
    d1 = res.partials[20] - res.partials[10]
    d2 = res.partials[40] - res.partials[20]
    assert d1 / d2 > 3.0
    assert res.fitted_order > 1.5
    # same series through the closed-form site values
    shell_from_flux = sum(
        flux_term_exact(a) for a in
        [tuple(v) for v in near_sites(1, odd=True)]) / (64 * np.pi ** 2)
    assert shell_from_flux == pytest.approx(res.partials[1], rel=1e-12)


def test_omega_reference_matches_the_extrapolated_sum():
    # the hard-coded ω default stands for omega_partial(40), 4.7e-6 apart
    assert abs(OMEGA_REFERENCE - omega_partial(40).extrapolated) < 5e-5


def test_cube_partials_match_flux_sum():
    # the omega partial at small cutoff equals the per-site closed forms
    res = omega_partial(3)
    rng = np.arange(-3, 4)
    grids = np.meshgrid(rng, rng, rng, rng, indexing="ij")
    sites = np.stack([g.ravel() for g in grids], axis=-1)
    sites = sites[parity_of(sites)]
    total = sum(flux_term_exact(tuple(a)) for a in sites) / (64 * np.pi ** 2)
    assert total == pytest.approx(res.partial, rel=1e-12)


def _slab_omega_partials(cutoff):
    """Oracle: the whole cube slab by slab, odd-site weights binned by shell
    and Kahan-summed across slabs."""
    acc = KahanAccumulator((cutoff + 1,))
    for sites in slab_sites(cutoff):
        term = np.where(parity_of(sites), interaction_weight(sites), 0.0)
        acc.add(np.bincount(np.abs(sites).max(axis=-1), weights=term,
                            minlength=cutoff + 1))
    return np.cumsum(acc.total)


def _long_double_omega_partials(cutoff):
    """Reference: the same odd sites with weights and sums in long double."""
    shells = np.zeros(cutoff + 1, dtype=np.longdouble)
    for sites in slab_sites(cutoff):
        sites = sites[parity_of(sites)]
        a = sites.astype(np.longdouble)
        r2 = np.sum(a * a, axis=-1)
        term = (r2 * r2 - 6 * (a[:, 0] ** 2 + a[:, 1] ** 2)
                * (a[:, 2] ** 2 + a[:, 3] ** 2)) / r2 ** 5
        shell = np.abs(sites).max(axis=-1)
        for n in range(cutoff + 1):
            shells[n] += np.sum(term[shell == n])
    return np.cumsum(shells)


def test_omega_domain_orbits_tile_the_odd_cube():
    for cutoff in range(1, 11):
        sites, orbit = omega_domain(cutoff)
        rng = np.arange(-cutoff, cutoff + 1)
        cube = np.stack(np.meshgrid(rng, rng, rng, rng, indexing="ij"),
                        axis=-1).reshape(-1, 4)
        cube = cube[parity_of(cube)]
        # per shell, the orbit sizes add up to the odd-site count exactly
        assert np.array_equal(
            np.bincount(sites.max(axis=-1), weights=orbit,
                        minlength=cutoff + 1),
            np.bincount(np.abs(cube).max(axis=-1), minlength=cutoff + 1))
        # each odd site's representative (absolute values, each pair sorted,
        # then the pairs sorted) is a domain site, counted by its orbit size
        a = np.abs(cube)
        lo, hi = np.sort(a[:, :2], axis=1), np.sort(a[:, 2:], axis=1)
        swap = ((lo[:, 0] > hi[:, 0])
                | ((lo[:, 0] == hi[:, 0]) & (lo[:, 1] > hi[:, 1])))[:, None]
        rep = np.where(swap, np.hstack([hi, lo]), np.hstack([lo, hi]))
        reps, counts = np.unique(rep, axis=0, return_counts=True)
        order = np.lexsort(sites.T[::-1])
        assert np.array_equal(reps, sites[order])
        assert np.array_equal(counts, orbit[order])


def test_omega_partials_match_slab_oracle():
    for cutoff in range(1, 17):
        ref = _slab_omega_partials(cutoff)
        got = omega_partial(cutoff).partials
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_omega_partials_no_less_accurate_than_slab_oracle():
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double is not wider than double here")
    for cutoff in (8, 16):
        ref = _long_double_omega_partials(cutoff)
        folded = np.max(np.abs(omega_partial(cutoff).partials - ref))
        slabs = np.max(np.abs(_slab_omega_partials(cutoff) - ref))
        assert folded <= slabs


def test_background_cube_tail_decay():
    x = np.array([0.25, 0.0, 0.0, 0.0])
    v8 = background_values(x, 8)
    v16 = background_values(x, 16)
    v4 = background_values(x, 4)
    d1 = np.max(np.abs(v8 - v4))
    d2 = np.max(np.abs(v16 - v8))
    # the stated bound is C/N; the measured decay is faster
    assert d2 < d1 / 2.0


def test_background_high_cutoff_self_convergence():
    # spot value near the origin: the combined sum minus the central term
    # stays finite and settles as the cube grows (direct reference run;
    # cutoffs sized for a single-core desk budget)
    x = np.array([0.05, 0.02, 0.0, 0.01])
    center = farfield_jets(x[None], reflected=False, order=0).val[0]
    v32 = background_values(x, 32) - center
    v64 = background_values(x, 64) - center
    v16 = background_values(x, 16) - center
    assert np.max(np.abs(v64)) < 20.0
    d_hi = np.max(np.abs(v64 - v32))
    d_lo = np.max(np.abs(v32 - v16))
    assert d_hi < d_lo
    assert d_hi < 2e-3


def test_background_paired_mode_matches_plain():
    x = np.array([0.25, 0.1, 0.0, -0.05])
    plain = background_values(x, 8)
    paired = background_values(x, 8, paired=True)
    assert np.max(np.abs(plain - paired)) < 1e-10


def test_background_invariance_defect_shrinks():
    from ehglue.fields import map_collection
    x = np.array([0.25, 0.0, 0.0, 0.0])
    defects = {}
    for n in (4, 8):
        pts = np.stack([x] + [m.apply(x) for m in map_collection()])
        vals = background_values(pts, n)
        worst = 0.0
        for m, v in zip(map_collection(), vals[1:]):
            worst = max(worst, float(np.max(np.abs(m.pull_back(v) - vals[0]))))
        defects[n] = worst
    assert defects[8] < defects[4]


PARITY_CLASSES = {"even": (False,), "odd": (True,), "combined": (False, True)}


def _tensor_route_partial(x, cutoff, parities, exclude_origin):
    """Oracle: full far-field tensors at order 2 over the given parity
    classes (False = even sites, plain kernel), Kahan-summed over each
    slab's sites and across slabs."""
    acc = [KahanAccumulator((x.shape[0],) + (4,) * k)
           for k in (2, 3, 4)]
    for sites in slab_sites(cutoff):
        if exclude_origin:
            sites = sites[np.any(sites != 0, axis=-1)]
        for odd in parities:
            part = sites[parity_of(sites) == odd]
            jets = farfield_jets(x[:, None, :] - part, odd, order=2)
            for a, tensor in zip(acc, (jets.val, jets.d1, jets.d2)):
                a.add(kahan_sum(tensor, axis=1))
    return [a.total for a in acc]


def test_direct_sum_matches_tensor_route_oracle():
    x = np.array([[0.25, 0.0, 0.0, 0.0], [0.1, 0.15, -0.05, 0.1],
                  [-0.4, 0.3, 0.2, -0.1]])
    oracle = _tensor_route_partial(x, 3, (False, True), False)
    for order, paired in product((0, 1, 2), (False, True)):
        got = background_partial(x, 3, order, paired)
        for k, part in enumerate((got.val, got.d1, got.d2)):
            if k > order:
                assert part is None
                continue
            scale = np.max(np.abs(oracle[k]))
            assert np.max(np.abs(part - oracle[k])) <= 1e-14 * scale
        if order == 0:
            values = background_values(x, 3, paired)
            assert values.tobytes() == got.val.tobytes()
            single = background_values(x[1], 3, paired)
            one = background_partial(x[1], 3, 0, paired)
            assert single.shape == (4, 4)
            assert single.tobytes() == one.val.tobytes()


def _box_sites(tables):
    """The sites of the box spanned by 1-D tables, in lexicographic order of
    the tables' positions."""
    return np.stack(np.meshgrid(*tables, indexing="ij"),
                    axis=-1).reshape(-1, 4)


def test_parity_boxes_tile_each_parity_class(monkeypatch):
    for cutoff in range(1, 7):
        cube = np.concatenate(list(slab_sites(cutoff)))
        for odd in (False, True):
            want = cube[parity_of(cube) == odd]
            boxes = list(parity_boxes(cutoff, odd))
            assert len(boxes) == 8
            sites = np.concatenate([_box_sites(t) for t in boxes])
            # every site of the class exactly once, and no other site
            assert sites.shape == want.shape
            assert np.array_equal(np.unique(sites, axis=0),
                                  np.unique(want, axis=0))
            assert np.all(parity_of(sites) == odd)
            # the direct sum's blocks cover the boxes in their order and
            # respect the pair budget (one site at least), also where one
            # a1 value of a box spans more than the budget
            for budget in (1, 7, 40, 10 ** 6):
                monkeypatch.setattr(lattice, "DIRECT_BLOCK", 2 * budget)
                zero = np.zeros((2, 4))
                blocks = [y for [y] in lattice._site_blocks(zero, cutoff,
                                                            odd, False)]
                sizes = [np.broadcast(*y).size for y in blocks]
                assert max(sizes) <= 2 * budget
                got = np.concatenate([
                    -np.stack(np.broadcast_arrays(*y), axis=-1)[0]
                    .reshape(-1, 4) for y in blocks])
                assert np.array_equal(got, sites)


def test_paired_blocks_hold_the_orbit_images(monkeypatch):
    # paired, each block holds its sites a (the unpaired blocks' sites) and
    # their images ma, -a, -ma, site by site, within the pair budget over
    # all four images (one site at least)
    zero = np.zeros((2, 4))
    for cutoff, odd in product(range(1, 4), (False, True)):
        m = lattice.PAIR_MAPS[odd]
        for budget in (1, 7, 40, 10 ** 6):
            monkeypatch.setattr(lattice, "DIRECT_BLOCK", 8 * budget)
            plain = [y for [y] in lattice._site_blocks(zero, cutoff, odd,
                                                       False)]
            plain = np.concatenate([
                -np.stack(np.broadcast_arrays(*y), axis=-1)[0]
                .reshape(-1, 4) for y in plain])
            got = []
            for block in lattice._site_blocks(zero, cutoff, odd, True):
                a, ma, neg, neg_ma = (
                    -np.stack(np.broadcast_arrays(*y), axis=-1)[0]
                    .reshape(-1, 4) for y in block)
                assert a.shape[0] <= budget
                assert np.array_equal(ma, a @ m.T)
                assert np.array_equal(neg, -a)
                assert np.array_equal(neg_ma, -(a @ m.T))
                got.append(a)
            assert np.array_equal(np.concatenate(got), plain)


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_box_kernel_matches_point_kernel_bit_for_bit(rng, order, odd):
    # the coordinates broadcast from a box's 1-D tables give each site the
    # bits of the (..., 4) kernel on the explicit site list, in either
    # memory order of that list
    x = rng.uniform(-0.6, 0.6, size=(3, 4))
    for tables in parity_boxes(3, odd):
        sites = _box_sites(tables)
        want = farfield_scalar_jets(x[:, None, :] - sites, odd, order)
        fortran = farfield_scalar_jets(
            np.asfortranarray(x[:, None, :] - sites), odd, order)
        y = tuple(x[:, i].reshape(-1, 1, 1, 1, 1)
                  - t.reshape((1,) * i + (-1,) + (1,) * (3 - i))
                  for i, t in enumerate(tables))
        got = farfield_coordinate_jets(y, odd, order)
        listed = farfield_coordinate_jets(
            x.T[:, :, None] - sites.T[:, None, :].astype(float), odd, order)
        for k in range(3):
            if k > order:
                assert got[k] is None and listed[k] is None
                continue
            flat = got[k].reshape(want[k].shape)
            assert flat.tobytes() == want[k].tobytes()
            assert listed[k].tobytes() == want[k].tobytes()
            assert fortran[k].tobytes() == want[k].tobytes()


def test_direct_sum_values_do_not_depend_on_the_order():
    # the blocks do not depend on the jet order and the kernel forms the
    # values alike at every order, so the sums keep their bytes
    x = np.array([[0.25, 0.0, 0.0, 0.0], [0.1, 0.15, -0.05, 0.1]])
    for cutoff, paired in product((3, 8), (False, True)):
        want = background_partial(x, cutoff, 0, paired).val.tobytes()
        for order in (1, 2):
            got = background_partial(x, cutoff, order, paired)
            assert got.val.tobytes() == want


def _slab_route_values(x, cutoff):
    """Oracle: the order-0 direct sum as slabs a1 = const of each parity
    class, in blocks of DIRECT_BLOCK point-site pairs through the (..., 4)
    kernel, each block summed pairwise and the blocks Kahan-summed; and as
    reference the same double-precision terms (the kernel tests above pin
    them to the box route's bit for bit) summed in long double."""
    block = max(1, lattice.DIRECT_BLOCK // x.shape[0])
    out, ref = 0.0, 0.0
    for odd in (False, True):
        acc = KahanAccumulator((3, x.shape[0]))
        wide = np.zeros((3, x.shape[0]), dtype=np.longdouble)
        for sites in slab_sites(cutoff):
            part = sites[parity_of(sites) == odd]
            for lo in range(0, part.shape[0], block):
                vals = farfield_scalar_jets(
                    x[:, None, :] - part[lo:lo + block], odd, 0)[0]
                acc.add(vals.sum(axis=-1))
                wide += vals.astype(np.longdouble).sum(axis=-1)
        out = out + farfield_expand((acc.total,), odd).val
        ref = ref - np.einsum("n...,nij->...ij", wide,
                              farfield_scalars(odd).astype(np.longdouble))
    return out, ref


def test_box_sum_no_less_accurate_than_slab_oracle():
    # both routes add bit-identical terms, so they differ only in how they
    # sum them, and each lands within a few eps of the largest entry.  Which
    # is closer at one point is nearly a coin flip (the box route at 24 to
    # 31 of 36), and so can be the mean over 12 points, so 36 points in
    # three batches of 12 are pooled.  Over six seeds the box route's mean
    # was 0.62-0.83 eps and the slab route's 0.86-1.19 eps, lower at both
    # cutoffs for every seed; the worst single points read 5.5 eps (box)
    # and 3.7 eps (slabs), so no per-point order holds
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double is not wider than double here")
    rng = np.random.default_rng(27)
    for cutoff in (8, 16):
        box, slabs = [], []
        for _ in range(3):
            x = (rng.uniform(-0.5, 0.5, size=(12, 4))
                 * np.repeat([0.1, 1.0], 6)[:, None])
            slab_values, ref = _slab_route_values(x, cutoff)
            scale = np.max(np.abs(ref), axis=(-2, -1))
            for out, got in ((box, background_values(x, cutoff)),
                             (slabs, slab_values)):
                out.extend(np.max(np.abs(got - ref), axis=(-2, -1)) / scale)
        assert np.mean(box) <= np.mean(slabs)


def test_direct_sums_reject_unknown_parity_and_bad_cutoff():
    x = np.array([0.25, 0.1, 0.0, -0.05])
    for cutoff in (0, -1):
        with pytest.raises(ValueError):
            background_values(x, cutoff)
        with pytest.raises(ValueError):
            background_partial(x[None], cutoff, order=1)
    for cutoff in (1, 0):             # the far table needs a far site
        with pytest.raises(ValueError):
            BackgroundField(cutoff)


def test_background_suite_reads_only_the_cutoff8_tables(tmp_path,
                                                        monkeypatch):
    # at cutoff 32 `background` needs only the cached cutoff-8 field
    from ehglue import suites
    from ehglue.config import RunConfig
    BackgroundField(8, cache=BackgroundCache(str(tmp_path)))

    def no_build(*args, **kwargs):
        raise AssertionError("far table built despite a stored entry")

    monkeypatch.setattr(lattice, "farfield_taylor", no_build)
    monkeypatch.setattr(suites, "_backgrounds", {})
    rep = suites.run_background(RunConfig(task="background", cutoff=32,
                                          cache_dir=str(tmp_path)))
    assert "accelerated_vs_direct" in rep.passes
    assert rep.all_passed, sorted(k for k, v in rep.passes.items() if not v)
    assert len(list(tmp_path.glob("far-table-*.ehbg"))) == 2


def test_background_rejects_lattice_points():
    with pytest.raises(DomainError):
        background_values(np.array([1.0, 0.0, 0.0, 0.0]), 4)


def test_gegenbauer_terms_match_classical():
    terms = gegenbauer_terms(3)
    # weight-3 Gegenbauer in (A, B) variables: T2 = 24A² - 3B,
    # T3 = 80A³ - 24AB
    assert terms[2] == {(2, 0): 24, (0, 1): -3}
    assert terms[3] == {(3, 0): 80, (1, 1): -24}


def test_lattice_moments_fold_matches_direct():
    # moment sums over the folded orthant equal brute-force enumeration, and
    # a permuted β gets its sorted partner's moment bit for bit
    partners = {((0, 2, 0, 4), 8): ((0, 0, 2, 4), 8),
                ((4, 0, 2, 0), 8): ((0, 0, 2, 4), 8),
                ((2, 0, 0, 0), 6): ((0, 0, 0, 2), 6),
                ((2, 2, 0, 0), 8): ((0, 0, 2, 2), 8),
                ((0, 0, 0, 4), 10): ((0, 0, 0, 4), 10)}
    requests = set(partners) | set(partners.values())
    mom = lattice_moments(4, 1, requests, odd=True)
    rng = np.arange(-4, 5)
    grids = np.meshgrid(rng, rng, rng, rng, indexing="ij")
    sites = np.stack([g.ravel() for g in grids], axis=-1)
    keep = (np.abs(sites).max(axis=1) > 1) & parity_of(sites)
    sites = sites[keep].astype(float)
    r2 = np.einsum("ij,ij->i", sites, sites)
    for (beta, e) in requests:
        direct = np.sum(np.prod(sites ** np.array(beta), axis=1)
                        * r2 ** (-e / 2.0))
        assert mom[(beta, e)] == pytest.approx(direct, rel=1e-12)
    for request, partner in partners.items():
        assert mom[request] == mom[partner]


def far_orthant(cutoff, n0, odd):
    """The far sites of one parity folded onto the nonnegative orthant."""
    rng = np.arange(0, cutoff + 1)
    a = np.stack([g.ravel() for g in np.meshgrid(rng, rng, rng, rng,
                                                 indexing="ij")],
                 axis=-1).astype(np.int64)
    return a[(a.max(axis=-1) > n0) & (parity_of(a) == odd)]


def per_request_moments(cutoff, n0, requests, odd):
    """lattice_moments as it was before moments were shared across
    permutations of β: one pass over the orthant per even request, in
    (e, β/2) order with shared prefixes, each pass reduced pairwise per
    chunk and Kahan-summed across chunks."""
    a = far_orthant(cutoff, n0, odd)
    weight = 2.0 ** (a != 0).sum(axis=-1)
    inv_r2 = 1.0 / np.einsum("ij,ij->i", a, a).astype(float)
    sq = a.astype(float) ** 2
    max_half = max((sum(beta) for beta, _ in requests), default=0) // 2
    pw = [[np.ones(a.shape[0])] for _ in range(4)]
    for i in range(4):
        for g in range(1, max_half + 1):
            pw[i].append(pw[i][g - 1] * sq[:, i])
    out, live = {}, []
    for beta, e in requests:
        if any(b & 1 for b in beta):
            out[(beta, e)] = 0.0
        else:
            live.append(((e,) + tuple(b // 2 for b in beta), beta))
    levels, prefix = [None] * 5, (None,) * 5
    for key, beta in sorted(live):
        first = next(i for i in range(5) if key[i] != prefix[i])
        for lvl in range(first, 5):
            if lvl == 0:
                levels[0] = weight * inv_r2 ** (key[0] // 2)
            elif key[lvl]:
                levels[lvl] = levels[lvl - 1] * pw[lvl - 1][key[lvl]]
            else:
                levels[lvl] = levels[lvl - 1]
        prefix = key
        acc = KahanAccumulator()
        for lo in range(0, a.shape[0], KAHAN_CHUNK):
            acc.add(np.sum(levels[4][lo:lo + KAHAN_CHUNK]))
        out[(beta, key[0])] = acc.result()
    return out


def long_double_moments(cutoff, n0, requests, odd):
    """Each requested moment summed directly over the folded orthant in
    long double, then rounded once."""
    a = far_orthant(cutoff, n0, odd)
    weight = np.longdouble(2) ** (a != 0).sum(axis=-1)
    ld = a.astype(np.longdouble)
    r2 = np.einsum("ij,ij->i", ld, ld)
    return {(beta, e): float(np.sum(weight * np.prod(ld ** np.array(beta),
                                                     axis=1) / r2 ** (e // 2)))
            for beta, e in requests}


def taylor_with_moments(monkeypatch, moments, *args):
    with monkeypatch.context() as m:
        m.setattr(lattice, "lattice_moments", moments)
        return farfield_taylor(*args)


@pytest.mark.parametrize("odd", [False, True])
def test_far_table_matches_long_double_moments(monkeypatch, odd):
    # moments shared across permutations of β are as accurate as moments
    # summed in long double (measured: 1.5e-15 of the largest coefficient)
    table = farfield_taylor(8, 1, 12, odd)
    ref = taylor_with_moments(monkeypatch, long_double_moments, 8, 1, 12, odd)
    assert np.abs(table - ref).max() <= 2e-14 * np.abs(ref).max()


@pytest.mark.parametrize("odd", [False, True])
def test_far_table_matches_per_request_moments(monkeypatch, odd):
    # the table moves at roundoff against one moment pass per request
    # (measured: 2.3e-15 even and 3.5e-15 odd of the largest coefficient)
    seen = []

    def recorded(*args):
        seen.append(args)
        return per_request_moments(*args)

    table = farfield_taylor(6, 1, 12, odd)
    ref = taylor_with_moments(monkeypatch, recorded, 6, 1, 12, odd)
    # the oracle still gives the bits that version 1 of the table pinned
    assert (hashlib.sha256(ref.astype("<f8").tobytes()).hexdigest()
            == PER_REQUEST_DIGESTS[odd])
    assert np.abs(table - ref).max() <= 2e-14 * np.abs(ref).max()
    (args,) = seen
    old, new = per_request_moments(*args), lattice_moments(*args)
    assert old.keys() == new.keys() == args[2]


def taylor_requests(monkeypatch, odd):
    """The moment requests of one parity's degree-12 far table."""
    seen = []

    def recorded(*args):
        seen.append(args[2])
        return lattice_moments(*args)

    taylor_with_moments(monkeypatch, recorded, 4, 1, 12, odd)
    return seen[0]


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("cutoff", [8, 12])
def test_sorted_moments_match_long_double_moments(monkeypatch, cutoff, odd):
    # every moment of a sorted β, binned by |a|² and summed over the bins,
    # against each moment summed site by site in long double (measured: at
    # most 6.2e-16 relative; one pass per request read 1.06e-15)
    requests = {r for r in taylor_requests(monkeypatch, odd)
                if list(r[0]) == sorted(r[0])}
    assert len(requests) == 107
    got = lattice_moments(cutoff, 1, requests, odd)
    ref = long_double_moments(cutoff, 1, requests, odd)
    for r in requests:
        assert abs(got[r] - ref[r]) <= 1e-15 * abs(ref[r]), r


def test_far_orthant_lists_the_kept_sites_in_order():
    # the kept sites of the broadcast mask are the far sites of one parity
    # of the full orthant, filtered, in the same lexicographic order
    for cutoff, n0 in ((5, 1), (6, 0), (7, 2)):
        for odd in (False, True):
            sites = lattice.far_orthant(cutoff, n0, odd)
            assert sites.shape[0] == 4 and sites.flags.c_contiguous
            assert np.array_equal(sites.T, far_orthant(cutoff, n0, odd))


@pytest.mark.parametrize("odd", [False, True])
def test_lattice_moments_peak_memory_is_a_few_site_columns(monkeypatch, odd):
    # the moments hold the kept sites, |a|², the weight and two product
    # buffers, never a power column per exponent: at cutoff 16 the traced
    # peak stays within 16 doubles per site (measured: 8.7; one pass per
    # sorted β over the full orthant took 49.4)
    requests = taylor_requests(monkeypatch, odd)
    sites = far_orthant(16, 1, odd).shape[0]
    tracemalloc.start()
    try:
        lattice_moments(16, 1, requests, odd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * sites


@pytest.mark.parametrize("which", ["even", "odd", "combined"])
@pytest.mark.parametrize("exclude_origin", [False, True])
def test_far_taylor_matches_direct_sum(background8, which, exclude_origin):
    # each parity class's near sites plus far polynomial against the direct
    # sum over the cutoff-8 cube
    pts = np.array([[0.25, 0.0, 0.0, 0.0], [0.1, 0.15, -0.05, 0.1]])
    parities = PARITY_CLASSES[which]
    direct = _tensor_route_partial(pts, 8, parities, exclude_origin)
    accel = [background8._eval_parity(pts, odd, 2, exclude_origin)
             for odd in parities]
    accel = accel[0] if len(accel) == 1 else accel[0] + accel[1]
    assert np.max(np.abs(direct[0] - accel.val)) < 1e-9
    assert np.max(np.abs(direct[1] - accel.d1)) < 1e-8
    assert np.max(np.abs(direct[2] - accel.d2)) < 1e-6


def test_far_taylor_keeps_harmonic_tracefree_structure(background8):
    # the far polynomial alone: harmonic, trace-free, divergence-free
    pts = np.array([[0.3, 0.2, -0.1, 0.05]])
    for odd in (False, True):
        vals, grads, hesses = poly_evaluate(background8._poly[odd], pts)
        lap = np.einsum("pnkk->pn", hesses)
        assert np.max(np.abs(lap)) < 1e-10
    jets = background8.jets(pts, order=2)
    # assembled tensor: Euclidean trace and divergence of the translated
    # far-field sums vanish identically
    tr = np.einsum("pii->p", jets.val)
    assert np.max(np.abs(tr)) < 1e-11
    div = np.einsum("piji->pj", jets.d1)
    assert np.max(np.abs(div)) < 1e-10


def _dense_poly_jets(exps, table, x):
    """Oracle: every monomial's value, gradient and Hessian (from x**k)
    against the full coefficient table."""
    pw = x[:, :, None] ** np.arange(exps.max() + 1)

    def mono(e):
        ok = np.all(e >= 0, axis=-1)
        picked = pw[:, np.arange(4), np.maximum(e, 0)]
        return np.prod(picked, axis=-1) * ok

    eye = np.eye(4, dtype=np.int64)
    basis = mono(exps)
    d1 = np.stack([exps[:, d] * mono(exps - eye[d]) for d in range(4)], 1)
    d2 = np.stack([np.stack([exps[:, d] * (exps[:, e] - eye[d, e])
                             * mono(exps - eye[d] - eye[e])
                             for e in range(4)], 1) for d in range(4)], 1)
    return (np.einsum("pm,nm->pn", basis, table),
            np.einsum("pdm,nm->pnd", d1, table),
            np.einsum("pdem,nm->pnde", d2, table))


@pytest.mark.parametrize("odd", [False, True])
def test_compact_polynomial_matches_dense_oracle(background8, rng, odd):
    poly = background8._poly[odd]
    assert poly.exps.shape[0] == poly.coeffs.shape[1] == 1820
    d = rng.normal(size=(16, 4))
    x = d / np.linalg.norm(d, axis=1, keepdims=True) \
        * rng.uniform(0.05, 1.15, size=(16, 1))
    oracle = _dense_poly_jets(poly.exps, poly.coeffs, x)
    for order in (0, 1, 2):
        got = poly_evaluate(poly, x, order)
        for k in range(3):
            if k > order:
                assert got[k] is None
                continue
            scale = np.max(np.abs(oracle[k]))
            assert np.max(np.abs(got[k] - oracle[k])) <= 1e-14 * scale


def test_background_jets_equal_tensor_route_and_agree_across_orders(
        background8):
    # near sites summed as full far-field tensors, then the far polynomial
    # expanded through the form table: the scalar channel matches it bit for
    # bit
    x = np.array([[0.25, 0.0, 0.0, 0.0], [0.1, 0.15, -0.05, 0.1],
                  [-0.4, 0.3, 0.2, -0.1]])
    for exclude_origin in (False, True):
        ref = [np.zeros((3, 4, 4)), np.zeros((3, 4, 4, 4)),
               np.zeros((3, 4, 4, 4, 4))]
        for odd in (False, True):
            sites = near_sites(1, odd)
            if exclude_origin:
                sites = sites[np.any(sites != 0, axis=-1)]
            near = farfield_jets(x[:, None, :] - sites, odd, order=2)
            far = poly_evaluate(background8._poly[odd], x)
            pat = farfield_scalars(odd)
            for k, (tensor, spec) in enumerate(zip(
                    (near.val, near.d1, near.d2),
                    ("pn,nij->pij", "pnk,nij->pijk", "pnkl,nij->pijkl"))):
                ref[k] += (lattice.kahan_sum(tensor, axis=1)
                           - np.einsum(spec, far[k], pat))
        jets = [background8.jets(x, order, exclude_origin)
                for order in (0, 1, 2)]
        for k in range(3):
            for jet in jets[k:]:
                got = (jet.val, jet.d1, jet.d2)[k]
                assert got.tobytes() == ref[k].tobytes()


@pytest.mark.parametrize("order", [0, 1, 2])
def test_background_jets_block_independent_in_bounded_memory(background8,
                                                            order):
    # 8,192 points: beyond its output, one call allocates at most 16 MB at
    # its peak, and every point's jets keep their bits however the points
    # are chunked (a lone point, a block boundary either side, the rest)
    x = sample_offorigin(np.random.default_rng(16), 8192, 0.05, 0.5)
    tracemalloc.start()
    try:
        whole = background8.jets(x, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(a.nbytes for a in whole.parts) <= 16e6
    bounds = (0, 1, 256, 513, x.shape[0])
    chunks = [background8.jets(x[lo:hi], order)
              for lo, hi in zip(bounds[:-1], bounds[1:])]
    for k, part in enumerate(whole.parts):
        joined = np.concatenate([c.parts[k] for c in chunks])
        assert joined.tobytes() == part.tobytes()


def _dense_poly_jets_as_before(poly, x):
    """Oracle: the dense polynomial evaluation the grouped one replaced, as
    it was: per order the full derivative table on the columns where any of
    its rows is nonzero, the basis as a four-way product from the power
    table, and one einsum per order."""
    exps, place, column = monomial_table(poly.degree)
    code = exps @ place

    def derived(table):
        out = np.zeros(table.shape[:-1] + (4, table.shape[-1]))
        for d in range(4):
            src = np.flatnonzero(exps[:, d])
            out[..., d, column[code[src] - place[d]]] = (
                exps[src, d] * table[..., src])
        return out

    tables, table = [], poly.coeffs
    for _ in range(3):
        cols = np.flatnonzero(np.any(table.reshape(-1, table.shape[-1]),
                                     axis=0))
        tables.append((exps[cols], table[..., cols]))
        table = derived(table)
    pw = np.ones(x.shape[:-1] + (4, poly.degree + 1))
    for g in range(1, poly.degree + 1):
        pw[..., g] = pw[..., g - 1] * x
    out = []
    for (e, table), spec in zip(tables, ("...m,pm->...p", "...m,pdm->...pd",
                                         "...m,pdem->...pde")):
        basis = (pw[..., 0, e[:, 0]] * pw[..., 1, e[:, 1]]
                 * pw[..., 2, e[:, 2]] * pw[..., 3, e[:, 3]])
        out.append(np.einsum(spec, basis, table, optimize=False))
    return out


def test_background_hessians_are_bitwise_symmetric(background8):
    # the far polynomial keeps the Hessian pairs d ≤ e of the dense
    # evaluation bit for bit and mirrors them, so its Hessian, the near-site
    # sum's and the background's equal their transposes byte for byte
    x = sample_offorigin(np.random.default_rng(17), 2000, 0.05, 0.5)

    def symmetric(h):
        return h.tobytes() == np.swapaxes(h, -1, -2).tobytes()

    d, e = np.triu_indices(4)
    for odd in (False, True):
        poly = background8._poly[odd]
        got = poly_evaluate(poly, x)
        oracle = _dense_poly_jets_as_before(poly, x)
        assert got[0].tobytes() == oracle[0].tobytes()
        assert got[1].tobytes() == oracle[1].tobytes()
        assert got[2][..., d, e].tobytes() == oracle[2][..., d, e].tobytes()
        assert symmetric(got[2])
        for k, part in enumerate(poly_evaluate(poly, x[:1])):
            assert part.tobytes() == got[k][:1].tobytes()
        near = farfield_jets(x[:, None, :] - near_sites(1, odd), odd, 2)
        assert symmetric(kahan_sum(near.d2, axis=1))
    assert symmetric(background8.jets(x, 2).d2)


def test_perfbench_micro_recording_targets_resolve():
    # perfbench/micro.py times lattice functions by rebinding them through
    # getattr, so each name it records must stay bound in lattice
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "micro.py")
    with open(path, encoding="utf-8") as fh:
        targets = re.findall(r'_recording\((lattice[\w.]*), "(\w+)"',
                             fh.read())
    assert {name for _, name in targets} >= {"farfield_jets", "kahan_sum"}
    for owner, name in targets:
        obj = lattice
        for attr in owner.split(".")[1:]:
            obj = getattr(obj, attr)
        assert callable(getattr(obj, name))


# sha256 of farfield_taylor(6, 1, 12, odd) as little-endian doubles, laid
# out in the degree-12 monomial table, whose little-endian int64 exponents
# are pinned too.  These are the bits of FAR_TABLE_VERSION 3, with each
# sorted β's moments binned by |a|²; a change of bits bumps the version and
# re-records both digests.
FAR_TABLE_DIGESTS = {
    "monomials": "4b25ace5e545ec47e49771eb65476afe"
                 "f1386f1909ed135e189b0597a2ada0a5",
    False: "579429e69055914c0dbaf123422c88f61641a641b2e872701397e05e86c26d09",
    True: "76da5bca5fcd1593179288f7cbc1961c82a1dc2596dfd311e0e9fe1e4f6dc796",
}
# the same digests of version 1, one moment pass per requested β
PER_REQUEST_DIGESTS = {
    False: "285b07125d77652340cbdd32bda46e4a86959ded6d9d99e5efe7ba7fc2dfde24",
    True: "882277ce4c8c95dcc18c11804710bd68c4117e7d763a8012918a8b9cfdd6e52f",
}


@pytest.mark.parametrize("odd", [False, True])
def test_far_table_bit_identical_to_recorded_digest(odd):
    assert lattice.FAR_TABLE_VERSION == 3
    exps = monomial_table(12)[0]
    assert exps.dtype == np.int64 and exps.shape == (1820, 4)
    assert (hashlib.sha256(exps.astype("<i8").tobytes()).hexdigest()
            == FAR_TABLE_DIGESTS["monomials"])
    coeffs = farfield_taylor(6, 1, 12, odd)
    assert coeffs.shape == (3, 1820)
    assert (hashlib.sha256(coeffs.astype("<f8").tobytes()).hexdigest()
            == FAR_TABLE_DIGESTS[odd])


def test_monomial_table_orders_by_degree_then_lexicographically():
    exps, place, column = monomial_table(5)
    keys = [(int(e.sum()), *e.tolist()) for e in exps]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert len(keys) == len([mu for mu in product(range(6), repeat=4)
                             if sum(mu) <= 5])
    assert np.array_equal(column[exps @ place], np.arange(len(keys)))
    assert monomial_table(5) is monomial_table(5)     # built once per degree


def test_far_table_under_current_header_loads_without_rebuild(
        tmp_path, monkeypatch):
    # the cache key and the canonical (3, n_monomials) payload are fixed: a
    # table stored under this header is a hit and nothing is rebuilt
    fresh = BackgroundField(4)
    cache = BackgroundCache(str(tmp_path))
    for odd in (False, True):
        header = {"kind": "far-table", "version": 3, "n": 4, "n0": 1,
                  "degree": 12, "parity": "odd" if odd else "even",
                  "grid": "taylor-origin"}
        assert far_table_header(4, odd) == header
        assert fresh._poly[odd].coeffs.shape == (3, 1820)
        cache.store(header, fresh._poly[odd].coeffs)

    def no_build(*args, **kwargs):
        raise AssertionError("far table rebuilt despite a stored entry")

    monkeypatch.setattr(lattice, "farfield_taylor", no_build)
    loaded = BackgroundField(4, cache=cache)
    pts = np.array([[0.2, 0.1, 0.0, -0.1], [-0.05, 0.3, 0.25, 0.1]])
    for order in (0, 1, 2):
        a, b = fresh.jets(pts, order), loaded.jets(pts, order)
        for k in ("val", "d1", "d2")[:order + 1]:
            assert getattr(a, k).tobytes() == getattr(b, k).tobytes()


def test_far_table_under_older_version_is_rebuilt(tmp_path, monkeypatch):
    # tables stored under the version-1 and version-2 headers are misses:
    # the field is built afresh and stored under the current version, and
    # the stale entries are left as they were
    cache = BackgroundCache(str(tmp_path))
    for version in (1, 2):
        for odd in (False, True):
            cache.store(dict(far_table_header(4, odd), version=version),
                        np.full((3, 1820), float(version)))
    stale = {f: f.read_bytes() for f in tmp_path.iterdir()}
    builds = []

    def counted(*args):
        builds.append(args)
        return farfield_taylor(*args)

    monkeypatch.setattr(lattice, "farfield_taylor", counted)
    loaded = BackgroundField(4, cache=cache)
    assert len(builds) == 2
    fresh = BackgroundField(4)
    for odd in (False, True):
        current = cache.load(far_table_header(4, odd))
        assert current is not None
        assert current.tobytes() == fresh._poly[odd].coeffs.tobytes()
        assert loaded._poly[odd].coeffs.tobytes() == current.tobytes()
    assert len(list(tmp_path.glob("far-table-*.ehbg"))) == 6
    assert {f: f.read_bytes() for f in stale} == stale


def test_background_field_exact_point_symmetry(background8):
    from ehglue.fields import point_generators
    pts = np.array([[0.21, 0.13, -0.09, 0.31]])
    base = background8.jets(pts, order=0).val
    for m in point_generators():
        pulled = m.pull_back(background8.jets(m.apply(pts), order=0).val)
        assert np.max(np.abs(pulled - base)) < 1e-12


def _worst_relative_errors(field, x):
    """Largest per-point ratio (largest entry error / largest entry) of the
    value, gradient and Hessian of field against the direct cube sum."""
    got, want = field.jets(x, order=2), background_partial(x, field.cutoff, 2)
    out = []
    for a, b in ((got.val, want.val), (got.d1, want.d1), (got.d2, want.d2)):
        axes = tuple(range(1, b.ndim))
        out.append(float(np.max(np.max(np.abs(a - b), axis=axes)
                                / np.max(np.abs(b), axis=axes))))
    return out


def test_background_accuracy_on_the_outer_shell(background8):
    # project's outer shells end at |x| = 0.5; on the 125 point-group orbit
    # representatives of S³(10) there (the same maxima as its 2,000 nodes)
    # the far expansion measured 8.26e-9 (value), 5.00e-8 (gradient) and
    # 1.10e-7 (Hessian) against the direct sum
    from ehglue.quadrature import sphere_rule
    x, _ = sphere_rule(10, 0.5, True)
    assert x.shape == (125, 4)
    errors = _worst_relative_errors(background8, x)
    assert all(e <= b for e, b in zip(errors, (1e-8, 6e-8, 1.3e-7)))


def test_background_accuracy_on_the_corner_grid(background8):
    # the corner grid's 51 orbit representatives reach |x| = 0.875, where
    # the far expansion, whose ratio is |x|/2, measured 2.69e-4 (value),
    # 1.33e-4 (gradient) and 1.20e-4 (Hessian) against the direct sum
    from ehglue.obstruction import _corner_sample
    x, _ = _corner_sample(True)
    assert x.shape == (51, 4)
    errors = _worst_relative_errors(background8, x)
    assert all(e <= b for e, b in zip(errors, (3e-4, 1.6e-4, 1.5e-4)))


def test_background_guard_radius(background8):
    with pytest.raises(DomainError):
        background8.jets(np.array([[1.4, 0.0, 0.0, 0.0]]))


def test_cache_roundtrip_bit_identical(tmp_path):
    cache = BackgroundCache(str(tmp_path))
    header = far_table_header(4, odd=False)
    payload = np.linspace(0.0, 1.0, 30).reshape(3, 10)
    path = cache.store(header, payload)
    loaded = cache.load(header)
    assert np.array_equal(loaded, payload)
    with open(path, "rb") as fh:
        raw1 = fh.read()
    cache.store(header, payload)
    with open(path, "rb") as fh:
        raw2 = fh.read()
    assert raw1 == raw2


def test_cached_background_field_identical(tmp_path):
    cache = BackgroundCache(str(tmp_path))
    a = BackgroundField(4, cache=cache)
    b = BackgroundField(4, cache=cache)   # cache hit
    pts = np.array([[0.2, 0.1, 0.0, -0.1]])
    ja = a.jets(pts, order=2)
    jb = b.jets(pts, order=2)
    assert np.array_equal(ja.val, jb.val)
    assert np.array_equal(ja.d2, jb.d2)


@pytest.mark.parametrize("damage", [
    lambda meta: b"\xff{ not json\n",
    lambda meta: (json.dumps({k: v for k, v in meta.items()
                              if k != "checksum"}) + "\n").encode(),
    lambda meta: (json.dumps(dict(meta, shape=[7])) + "\n").encode(),
], ids=["undecodable", "missing-key", "size-mismatch"])
def test_damaged_cache_header_is_a_miss(tmp_path, damage):
    cache = BackgroundCache(str(tmp_path))
    pts = np.array([[0.2, 0.1, 0.0, -0.1]])
    built = BackgroundField(4, cache=cache).jets(pts, order=2)
    files = sorted(tmp_path.iterdir())
    originals = {f: f.read_bytes() for f in files}
    start = len(BackgroundCache.MAGIC)
    for f, raw in originals.items():
        end = raw.index(b"\n", start) + 1
        f.write_bytes(raw[:start] + damage(json.loads(raw[start:end]))
                      + raw[end:])
    header = far_table_header(4, odd=False)
    assert cache.path_for(header) in {str(f) for f in files}
    assert cache.load(header) is None
    rebuilt = BackgroundField(4, cache=cache).jets(pts, order=2)
    assert sorted(tmp_path.iterdir()) == files
    assert {f: f.read_bytes() for f in files} == originals
    assert np.array_equal(rebuilt.val, built.val)
    assert np.array_equal(rebuilt.d2, built.d2)


def test_writes_use_private_temporary_files(tmp_path):
    # a stale directory at the old fixed temporary name must not matter
    cache = BackgroundCache(str(tmp_path))
    header = far_table_header(4, odd=True)
    payload = np.linspace(0.0, 1.0, 30).reshape(3, 10)
    os.mkdir(cache.path_for(header) + ".tmp")
    cache.store(header, payload)
    assert np.array_equal(cache.load(header), payload)
    report = tmp_path / "report.json"
    os.mkdir(str(report) + ".tmp")
    atomic_write(str(report), "{}\n")
    assert report.read_text() == "{}\n"
    with pytest.raises(TypeError):
        atomic_write(str(report), 1.5)     # a failed write leaves no file
    assert report.read_text() == "{}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [os.path.basename(cache.path_for(header)),
         os.path.basename(cache.path_for(header)) + ".tmp",
         "report.json", "report.json.tmp"])
    plain = tmp_path / "plain"
    plain.write_text("")                    # same permissions as open()
    assert os.stat(report).st_mode == os.stat(plain).st_mode


def test_slab_enumeration_counts():
    total = sum(s.shape[0] for s in slab_sites(3))
    assert total == 7 ** 4
    evens = near_sites(1, odd=False)
    odds = near_sites(1, odd=True)
    assert evens.shape[0] + odds.shape[0] == 3 ** 4
    assert evens.shape[0] == 41 and odds.shape[0] == 40
