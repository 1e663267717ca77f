import hashlib
import json
import os
from itertools import product

import numpy as np
import pytest

from ehglue import lattice
from ehglue.fields import farfield_jets, farfield_scalars
from ehglue.jets import DomainError
from ehglue.lattice import (OMEGA_REFERENCE, BackgroundCache,
                            BackgroundField, background_partial,
                            background_values, far_table_header,
                            farfield_taylor, flux_term_exact,
                            gegenbauer_terms, interaction_weight,
                            lattice_moments, monomial_table, near_sites,
                            omega_domain, omega_partial, parity_of,
                            slab_sites)
from ehglue.quadrature import KahanAccumulator, kahan_sum
from ehglue.report import atomic_write


OMEGA_PAPER = 7.70


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
            lin = m.linear()
            worst = max(worst, float(np.max(np.abs(lin.T @ v @ lin - vals[0]))))
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
    # moment sums over the folded orthant equal brute-force enumeration
    requests = {((2, 0, 0, 0), 6), ((2, 2, 0, 0), 8), ((0, 0, 0, 4), 10)}
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
        vals, grads, hesses = background8._poly[odd].evaluate(pts, order=2)
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
        got = poly.evaluate(x, order)
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
            far = background8._poly[odd].evaluate(x, 2)
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


# sha256 of farfield_taylor(6, 1, 12, odd) as little-endian doubles, as the
# per-coefficient Kahan loop produced them before the assembly was
# vectorised, laid out in the degree-12 monomial table, whose little-endian
# int64 exponents are pinned too
FAR_TABLE_DIGESTS = {
    "monomials": "4b25ace5e545ec47e49771eb65476afe"
                 "f1386f1909ed135e189b0597a2ada0a5",
    False: "285b07125d77652340cbdd32bda46e4a86959ded6d9d99e5efe7ba7fc2dfde24",
    True: "882277ce4c8c95dcc18c11804710bd68c4117e7d763a8012918a8b9cfdd6e52f",
}


@pytest.mark.parametrize("odd", [False, True])
def test_far_table_bit_identical_to_recorded_digest(odd):
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
    fresh = BackgroundField(4, degree=8)
    cache = BackgroundCache(str(tmp_path))
    for odd in (False, True):
        header = {"kind": "far-table", "version": 1, "n": 4, "n0": 1,
                  "degree": 8, "parity": "odd" if odd else "even",
                  "grid": "taylor-origin"}
        assert far_table_header(4, 8, odd) == header
        assert fresh._poly[odd].coeffs.shape == (3, 495)
        cache.store(header, fresh._poly[odd].coeffs)

    def no_build(*args, **kwargs):
        raise AssertionError("far table rebuilt despite a stored entry")

    monkeypatch.setattr(lattice, "farfield_taylor", no_build)
    loaded = BackgroundField(4, degree=8, cache=cache)
    pts = np.array([[0.2, 0.1, 0.0, -0.1], [-0.05, 0.3, 0.25, 0.1]])
    for order in (0, 1, 2):
        a, b = fresh.jets(pts, order), loaded.jets(pts, order)
        for k in ("val", "d1", "d2")[:order + 1]:
            assert getattr(a, k).tobytes() == getattr(b, k).tobytes()


def test_background_field_exact_point_symmetry(background8):
    from ehglue.fields import point_generators
    pts = np.array([[0.21, 0.13, -0.09, 0.31]])
    base = background8.jets(pts, order=0).val
    for m in point_generators():
        lin = m.linear()
        moved = background8.jets(pts @ lin.T, order=0).val
        pulled = np.einsum("ai,pab,bj->pij", lin, moved, lin)
        assert np.max(np.abs(pulled - base)) < 1e-12


def test_background_guard_radius(background8):
    with pytest.raises(DomainError):
        background8.jets(np.array([[1.4, 0.0, 0.0, 0.0]]))


def test_cache_roundtrip_bit_identical(tmp_path):
    cache = BackgroundCache(str(tmp_path))
    header = far_table_header(4, 6, odd=False)
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
    a = BackgroundField(4, degree=8, cache=cache)
    b = BackgroundField(4, degree=8, cache=cache)   # cache hit
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
    built = BackgroundField(4, degree=8, cache=cache).jets(pts, order=2)
    files = sorted(tmp_path.iterdir())
    originals = {f: f.read_bytes() for f in files}
    start = len(BackgroundCache.MAGIC)
    for f, raw in originals.items():
        end = raw.index(b"\n", start) + 1
        f.write_bytes(raw[:start] + damage(json.loads(raw[start:end]))
                      + raw[end:])
    header = far_table_header(4, 8, odd=False)
    assert cache.path_for(header) in {str(f) for f in files}
    assert cache.load(header) is None
    rebuilt = BackgroundField(4, degree=8, cache=cache).jets(pts,
                                                                   order=2)
    assert sorted(tmp_path.iterdir()) == files
    assert {f: f.read_bytes() for f in files} == originals
    assert np.array_equal(rebuilt.val, built.val)
    assert np.array_equal(rebuilt.d2, built.d2)


def test_writes_use_private_temporary_files(tmp_path):
    # a stale directory at the old fixed temporary name must not matter
    cache = BackgroundCache(str(tmp_path))
    header = far_table_header(4, 6, odd=True)
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
