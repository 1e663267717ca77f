import hashlib

import numpy as np
import pytest

from ehglue.fields import (_field_terms, _form_plan, _quadratic_jets,
                           alpha_forms, eh_metric, farfield_coordinate_jets,
                           farfield_jets, farfield_scalar_jets,
                           farfield_scalars,
                           farfield_tensor, kernel_mode, map_collection,
                           point_generators, symmetry_check, vector_fields,
                           FRAME, REFLECTION)
from ehglue.jets import DomainError, Jet2, coordinate_jets, radius2_jet
from ehglue.lattice import PAIR_MAPS
from ehglue.sym2 import Sym2Jet, inverse_metric, pair


SQ2 = np.sqrt(2.0)


def test_metric_at_unit_axis_point():
    g = eh_metric(1.0).values(np.array([[1.0, 0, 0, 0]]))[0]
    assert np.allclose(np.diag(g), [1 / SQ2, 1 / SQ2, SQ2, SQ2], rtol=1e-14)
    assert np.allclose(g - np.diag(np.diag(g)), 0.0, atol=1e-15)


def test_flat_limit_is_identity(points):
    g = eh_metric(0.0).values(points)
    assert np.allclose(g, np.eye(4), atol=0.0)


def test_unit_volume_form(points):
    g = eh_metric(1.0).values(points)
    assert np.max(np.abs(np.linalg.det(g) - 1.0)) < 1e-12


def test_scaling_family(points):
    # components of the eps family are the unit family at rescaled points
    eps = 1.7
    lhs = eh_metric(eps).values(points)
    rhs = eh_metric(1.0).values(points / eps)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_reflected_metric_is_reflection_pullback(points):
    ghat = eh_metric(1.0, reflected=True).values(points)
    g = eh_metric(1.0).values(points @ REFLECTION.T)
    pulled = np.einsum("ai,pab,bj->pij", REFLECTION, g, REFLECTION)
    assert np.max(np.abs(ghat - pulled)) < 1e-15


def test_one_forms_at_axis_points():
    a = alpha_forms(np.array([[1.0, 0, 0, 0]]))
    # first form = dx2, second = dx3, third = dx4
    comps = np.array([[f.value[0] for f in form] for form in a])
    assert np.allclose(comps, np.eye(4)[1:], atol=1e-15)
    b = alpha_forms(np.array([[0.0, 2.0, 0, 0]]))
    assert b[0][0].value[0] == pytest.approx(-0.5, abs=1e-15)


def test_one_form_norms_and_radial_contraction(points):
    forms = alpha_forms(points)
    r2 = np.einsum("pi,pi->p", points, points)
    for form in forms:
        comps = np.stack([f.value for f in form], axis=-1)
        norm2 = np.einsum("pi,pi->p", comps, comps)
        assert np.max(np.abs(norm2 * r2 - 1.0)) < 1e-14
        radial = np.einsum("pi,pi->p", comps, points)
        assert np.max(np.abs(radial)) < 1e-14


def test_frame_duality_and_commutators(points):
    forms = alpha_forms(points)
    vees = vector_fields(points)
    for i in range(3):
        for j in range(3):
            val = sum(forms[i][k].value * vees[j][k].value for k in range(4))
            assert np.max(np.abs(val - (1.0 if i == j else 0.0))) < 1e-14
    # cyclic commutators close onto -2 times the third field
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        for i in range(4):
            lhs = sum(vees[a][k].value * vees[b][i].grad[:, k]
                      - vees[b][k].value * vees[a][i].grad[:, k]
                      for k in range(4))
            assert np.max(np.abs(lhs + 2 * vees[c][i].value)) < 1e-12


def test_farfield_at_axis_point():
    t = farfield_tensor().values(np.array([[1.0, 0, 0, 0]]))[0]
    assert np.allclose(t, np.diag([-1.0, -1.0, 1.0, 1.0]), atol=1e-15)


def test_farfield_tracefree(points):
    for reflected in (False, True):
        t = farfield_tensor(reflected).values(points)
        tr = np.einsum("pii->p", t)
        assert np.max(np.abs(tr)) == 0.0


def test_farfield_is_reflection_of_plain(points):
    that = farfield_tensor(True).values(points)
    t = farfield_tensor(False).values(points @ REFLECTION.T)
    pulled = np.einsum("ai,pab,bj->pij", REFLECTION, t, REFLECTION)
    assert np.max(np.abs(that - pulled)) < 1e-14


def test_farfield_frame_form_equals_cartesian(points):
    # frame expression -(x⊗x + A1⊗A1 - A2⊗A2 - A3⊗A3)/r^6 against the
    # quadratic-numerator components used by the lattice code
    from ehglue.fields import FRAME
    r2 = np.einsum("pi,pi->p", points, points)
    frames = [points] + [points @ J.T for J in FRAME]
    signs = [1.0, 1.0, -1.0, -1.0]
    frame_form = sum(s * np.einsum("pi,pj->pij", v, v)
                     for s, v in zip(signs, frames))
    frame_form = -frame_form / r2[:, None, None] ** 3
    t = farfield_tensor().values(points)
    assert np.max(np.abs(frame_form - t)) < 1e-13


def test_farfield_jets_match_finite_differences(rng):
    y = rng.normal(size=(6, 4)) + 2.0
    jets = farfield_jets(y, reflected=True, order=2)
    h = 1e-5
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        fd = (farfield_jets(y + e, True, 0).val
              - farfield_jets(y - e, True, 0).val) / (2 * h)
        assert np.max(np.abs(fd - jets.d1[..., k])) < 1e-7


def _point_first(scalars):
    """farfield_scalar_jets' component-first jets, point-first and with
    each Hessian pair (k ≤ l, in triu_indices order) written to both (k, l)
    and (l, k): (..., 3), (..., 3, 4), (..., 3, 4, 4)."""
    vals, grads, pairs = scalars
    hess = None
    if pairs is not None:
        assert pairs.shape[:2] == (3, 10)
        k, l = np.triu_indices(4)
        hess = np.empty((3, 4, 4) + pairs.shape[2:])
        hess[:, k, l] = pairs
        hess[:, l, k] = pairs
    return tuple(None if a is None else np.moveaxis(a, lead, tail)
                 for a, lead, tail in zip(
                     (vals, grads, hess), (0, (0, 1), (0, 1, 2)),
                     (-1, (-2, -1), (-3, -2, -1))))


@pytest.mark.parametrize("reflected", [False, True])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_farfield_jets_are_pattern_expansion_of_scalars(rng, order, reflected):
    # every component is bit for bit minus (pattern sign) times one scalar
    # jet, and the components outside the three pattern supports are zero
    y = rng.normal(size=(5, 7, 4))
    jets = farfield_jets(y, reflected, order)
    scalars = _point_first(farfield_scalar_jets(y, reflected, order))
    pat = farfield_scalars(reflected)
    assert np.array_equal(np.abs(pat).sum(axis=0) <= 1, np.ones((4, 4), bool))
    for k, (tensor, scal) in enumerate(zip((jets.val, jets.d1, jets.d2),
                                           scalars)):
        if k > order:
            assert tensor is None and scal is None
            continue
        support = np.abs(pat).sum(axis=0) > 0
        assert np.all(tensor[:, :, ~support] == 0.0)
        for n, i, j in zip(*np.nonzero(pat)):
            expected = -pat[n, i, j] * scal[:, :, n]
            assert tensor[:, :, i, j].tobytes() == expected.tobytes()


def _quadratic_form_scalar_jets(y, reflected):
    """Oracle: the numerators as quadratic forms n_c = yᵀM_c y, ∂n_c = 2M_c y
    and ∂²n_c = 2M_c through einsum over the matrices, one scalar at a time
    through the quotient rule for n_c/ρ^6."""
    mats = farfield_scalars(reflected)
    inv2 = 1.0 / np.einsum("...i,...i->...", y, y)
    inv6 = inv2 * inv2 * inv2
    inv8 = inv6 * inv2
    inv10 = inv8 * inv2
    n = np.stack([np.einsum("...i,ij,...j->...", y, M, y) for M in mats], -1)
    dn = np.stack([2.0 * np.einsum("ij,...j->...i", M, y) for M in mats], -2)
    grads = (dn * inv6[..., None, None]
             - 6.0 * n[..., None] * y[..., None, :] * inv8[..., None, None])
    hess = np.empty(y.shape[:-1] + (3, 4, 4))
    for c, M in enumerate(mats):
        cross = (dn[..., c, :, None] * y[..., None, :]
                 + y[..., :, None] * dn[..., c, None, :])
        hess[..., c, :, :] = (
            2.0 * M * inv6[..., None, None]
            - 6.0 * (cross + n[..., c, None, None] * np.eye(4))
            * inv8[..., None, None]
            + 48.0 * n[..., c, None, None] * y[..., :, None] * y[..., None, :]
            * inv10[..., None, None])
    return n * inv6[..., None], grads, hess


@pytest.mark.parametrize("reflected", [False, True])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_closed_form_scalars_match_quadratic_form_oracle(rng, order, reflected):
    y = rng.normal(size=(6, 9, 4)) * rng.uniform(0.3, 3.0, size=(6, 9, 1))
    oracle = _quadratic_form_scalar_jets(y, reflected)
    got = _point_first(farfield_scalar_jets(y, reflected, order))
    # the Hessian's term 48 n y y/ρ^10 exceeds its largest entry, so a few
    # ulp of that term reach 1.3e-15 of the entry (600 random draws)
    for k, tol in enumerate((1e-15, 1e-15, 2e-15)):
        if k > order:
            assert got[k] is None
            continue
        assert got[k].shape == oracle[k].shape
        scale = np.max(np.abs(oracle[k]))
        assert np.max(np.abs(got[k] - oracle[k])) <= tol * scale
    # the numerator gradients 2M[c]y are signed permutations of 2y: the
    # plan's rows (c, k, p, factor) are the nonzero entries of 2M, in order
    twice = 2.0 * farfield_scalars(reflected)
    support = np.nonzero(twice)
    rows = _form_plan(reflected)[0]
    assert [row[:3] for row in rows] == list(zip(*(a.tolist()
                                                   for a in support)))
    assert [row[3] for row in rows] == twice[support].tolist()


# sha256 of farfield_coordinate_jets at orders 0, 1 and 2 in both
# orientations, as little-endian doubles, on seeded (4, 41, 256) points and
# on box blocks broadcast from 1-D site tables, plain and with the four
# signed-permutation images of a paired block; recorded when the numerator
# gradients were still formed as a separate (3, 4, ...) array
KERNEL_DIGESTS = {
    "near": "0affb85db8b7bee9baf5af2b7fce51402b05b9742e416d5e6601825120f5901c",
    "plain": "f198942e3cef08d9d3a1cfb1362d80e9f33cd0dad1c52e17b50cdfde492d2b8d",
    "paired": "5f97d5b89ecc7894b463e66216d2ed9dc1d7b5aed954a9c00f0c5f57ac8cd90d",
}


def test_far_field_kernel_bits_match_recorded_digests():
    rng = np.random.default_rng(2929)
    near = (rng.normal(size=(4, 41, 256))
            * rng.uniform(0.3, 3.0, size=(1, 41, 256)))
    xs = rng.uniform(-0.5, 0.5, size=(3, 4)).T.reshape((4, -1, 1, 1, 1, 1))
    tables = [np.arange(lo, hi, dtype=float).reshape((-1,) + (1,) * (3 - i))
              for i, (lo, hi) in enumerate(((-3, 4), (-2, 3), (-3, 3),
                                            (-1, 4)))]

    def box(g):
        # y_i = x_i - (g a)_i with (g a)_i = ±a_p, broadcast from the tables
        return tuple(xs[i] - g[i, p] * tables[p]
                     for i, p in enumerate(np.abs(g).argmax(axis=1)))

    one = np.eye(4, dtype=np.int64)
    blocks = {"near": lambda odd: [near],
              "plain": lambda odd: [box(one)],
              "paired": lambda odd: [box(g) for g in (one, PAIR_MAPS[odd],
                                                      -one, -PAIR_MAPS[odd])]}
    for name, block in blocks.items():
        digest = hashlib.sha256()
        for odd in (False, True):
            for order in (0, 1, 2):
                for y in block(odd):
                    for a in farfield_coordinate_jets(y, odd, order):
                        if a is not None:
                            digest.update(a.astype("<f8").tobytes())
        assert digest.hexdigest() == KERNEL_DIGESTS[name], name


def _oracle_components(field, e4, x):
    """Oracle: the instanton fields as compositions of scalar Jet2
    objects, one per upper-triangle component (x, A^k = J_k x and the
    radius enter as jets; products, roots and reciprocals carry the
    derivatives)."""
    xj = coordinate_jets(x)
    ajs = [[Jet2.linear(x, J[i]) for i in range(4)] for J in FRAME]
    upper = [(i, j) for i in range(4) for j in range(i, 4)]

    def outer(u):
        return {(i, j): u[i] * u[j] for i, j in upper}

    def sym_pair(u, v):
        return {(i, j): u[i] * v[j] + v[i] * u[j] for i, j in upper}

    def comb(*terms):
        out = {}
        for coeff, comps in terms:
            for key, jet in comps.items():
                term = coeff * jet if isinstance(coeff, Jet2) else jet * coeff
                out[key] = out[key] + term if key in out else term
        return out

    r2 = radius2_jet(x)
    w2 = r2 * r2 + e4
    radial = comb((1.0, outer(xj)), (1.0, outer(ajs[0])))
    angular = comb((1.0, outer(ajs[1])), (1.0, outer(ajs[2])))
    if field == "eh":
        w = w2.sqrt()
        return comb((w.reciprocal(), radial), (w / (r2 * r2), angular))
    if field == 1:
        w_term = (w2 * r2 * r2).reciprocal() * w2.sqrt()
        return comb((w2.sqrt().reciprocal() ** 3 * (-e4), radial),
                    (w_term * e4, angular))
    if field == 2:
        mix = comb((1.0, sym_pair(xj, ajs[1])), (-1.0, sym_pair(ajs[0], ajs[2])))
    else:
        mix = comb((1.0, sym_pair(xj, ajs[2])), (1.0, sym_pair(ajs[0], ajs[1])))
    return comb(((w2 * r2).reciprocal() * e4, mix))


def _oracle_jets(field, eps, reflected, x):
    """Order-2 oracle jets; the reflected copy is the pull-back of the
    plain field at the reflected points, one einsum per tensor index."""
    R = REFLECTION
    y = x @ R.T if reflected else x
    out = Sym2Jet.zeros(x.shape[:-1], 2)
    for (i, j), jet in _oracle_components(field, eps ** 4, y).items():
        for a, b in ((i, j), (j, i)):
            out.val[..., a, b] = jet.value
            out.d1[..., a, b, :] = jet.grad
            out.d2[..., a, b, :, :] = jet.hess
    if not reflected:
        return out
    d1 = np.einsum("ai,...abc->...ibc", R, out.d1)
    d1 = np.einsum("bj,...ibc->...ijc", R, d1)
    d2 = np.einsum("ai,...abcd->...ibcd", R, out.d2)
    d2 = np.einsum("bj,...ibcd->...ijcd", R, d2)
    d2 = np.einsum("ck,...ijcd->...ijkd", R, d2)
    return Sym2Jet(np.einsum("ai,...ab,bj->...ij", R, out.val, R),
                   np.einsum("ck,...ijc->...ijk", R, d1),
                   np.einsum("dl,...ijkd->...ijkl", R, d2))


def _instanton(field, eps, reflected):
    if field == "eh":
        return eh_metric(eps, reflected)
    return kernel_mode(field, eps, reflected)


@pytest.mark.parametrize("field", ["eh", 1, 2, 3])
@pytest.mark.parametrize("reflected", [False, True])
@pytest.mark.parametrize("eps", [0.3, 1.0, 1.7])
def test_instanton_fields_match_jet_composition_oracle(rng, field, reflected,
                                                       eps):
    from tests.conftest import sample_offorigin
    x = sample_offorigin(rng, 64, 0.2 * eps, 5.0 * eps)
    oracle = _oracle_jets(field, eps, reflected, x)
    tf = _instanton(field, eps, reflected)
    got = [tf.jets(x, order) for order in (0, 1, 2)]
    for order, jets in enumerate(got):
        parts = (jets.val, jets.d1, jets.d2)
        for k, (part, want) in enumerate(zip(parts,
                                             (oracle.val, oracle.d1, oracle.d2))):
            if k > order:
                assert part is None
                continue
            scale = np.max(np.abs(want))
            assert np.max(np.abs(part - want)) <= 1e-14 * scale
    # lower orders do not depend on how many are asked for
    assert all(j.val.tobytes() == got[0].val.tobytes() for j in got)
    assert got[1].d1.tobytes() == got[2].d1.tobytes()
    # symmetric index pairs agree bit for bit
    val, d2 = got[2].val, got[2].d2
    assert np.array_equal(val, np.swapaxes(val, -1, -2))
    assert np.array_equal(d2, np.swapaxes(d2, -3, -4))
    assert np.array_equal(d2, np.swapaxes(d2, -1, -2))


def _quadratic_jets_all_pairs(x, e4, terms, order):
    """Oracle: the instanton kernel as it was before it formed each
    symmetric index pair once, every (i, j) and (k, l) formed."""
    eye, dim = np.eye(4), 4
    s = np.einsum("...i,...i->...", x, x)
    w2 = s * s + e4
    shape = x.shape[:-1]
    val = np.zeros(shape + (dim, dim))
    d1 = np.zeros(shape + (dim,) * 3) if order >= 1 else None
    d2 = np.zeros(shape + (dim,) * 4) if order >= 2 else None
    if order >= 2:
        xx = x[..., :, None] * x[..., None, :]
        k4 = np.zeros(shape + (dim,) * 3)
    for c, a, b, C in terms:
        f = c * w2 ** (0.5 * a) * s ** float(b)
        cx = np.einsum("ijab,...b->...ija", C, x, optimize=False)
        q = np.einsum("...ija,...a->...ij", cx, x, optimize=False)
        val += f[..., None, None] * q
        if order == 0:
            continue
        u = a * s / w2 + b / s
        f1 = f * u
        d1 += ((2.0 * f1)[..., None, None] * q)[..., None] * x[..., None, None, :]
        d1 += (2.0 * f)[..., None, None, None] * cx
        if order == 1:
            continue
        f2 = f * (u * u + a * (w2 - 2.0 * s * s) / (w2 * w2) - b / (s * s))
        p = (4.0 * f2)[..., None, None] * xx
        p += (2.0 * f1)[..., None, None] * eye
        d2 += q[..., :, :, None, None] * p[..., None, None, :, :]
        d2 += (2.0 * f)[..., None, None, None, None] * C
        k4 += (4.0 * f1)[..., None, None, None] * cx
    if order >= 2:
        cross = k4[..., :, :, None, :] * x[..., None, None, :, None]
        d2 += cross + np.swapaxes(cross, -1, -2)
    return Sym2Jet(val, d1, d2)


@pytest.mark.parametrize("field", ["eh", 1, 2, 3])
@pytest.mark.parametrize("reflected", [False, True])
def test_instanton_pairs_formed_once_keep_the_bits(field, reflected):
    # forming each symmetric index pair once and mirroring gives the bits
    # and the layout of forming all sixteen, for r/ε from 0.006 to 170
    from tests.conftest import sample_offorigin
    x = sample_offorigin(np.random.default_rng(24), 2000, 0.01, 50.0)
    x = x.reshape(40, 50, 4)
    for eps in (0.3, 1.0, 1.7):
        terms = _field_terms(field, eps ** 4, reflected)
        for order in (0, 1, 2):
            got = _quadratic_jets(x, eps ** 4, terms, order)
            want = _quadratic_jets_all_pairs(x, eps ** 4, terms, order)
            assert got.order == want.order == order
            for part, ref in zip(got.parts, want.parts):
                assert part.strides == ref.strides
                assert part.tobytes() == ref.tobytes()


@pytest.mark.parametrize("field", ["eh", 1, 2, 3])
@pytest.mark.parametrize("reflected", [False, True])
def test_instanton_jets_keep_bits_across_point_blocks(field, reflected):
    # blocked jets equal one whole-batch kernel call in bits and layout, and
    # a point's jets do not depend on the block it falls in
    from tests.conftest import assert_seams_keep_bits, seam_points
    eps = 0.7
    x = seam_points(22)
    flat = x.reshape(-1, 4)
    tf = _instanton(field, eps, reflected)
    terms = _field_terms(field, eps ** 4, reflected)
    for order in (0, 1, 2):
        whole = tf.jets(x, order)
        single = _quadratic_jets(x, eps ** 4, terms, order)
        for part, want in zip(whole.parts, single.parts, strict=True):
            assert part.strides == want.strides
            assert part.tobytes() == want.tobytes()
        assert_seams_keep_bits(whole.parts,
                               lambda sl: tf.jets(flat[sl], order).parts)


def test_kernel_mode_closed_form_at_axis():
    o1 = kernel_mode(1, 1.0).values(np.array([[1.0, 0, 0, 0]]))[0]
    expected = np.diag([-1 / (2 * SQ2), -1 / (2 * SQ2), 1 / SQ2, 1 / SQ2])
    assert np.allclose(o1, expected, atol=1e-15)


def test_kernel_mode_pointwise_norm(points):
    g = eh_metric(1.0).jets(points, order=0)
    ginv = np.linalg.inv(g.val)
    r2 = np.einsum("pi,pi->p", points, points)
    expected = 4.0 * (1.0 / (1.0 + r2 ** 2)) ** 2
    for i in (1, 2, 3):
        o = kernel_mode(i, 1.0).values(points)
        sq = np.einsum("pik,pjl,pij,pkl->p", ginv, ginv, o, o)
        assert np.max(np.abs(sq - expected)) < 1e-12


def test_kernel_mode_equals_scale_derivative(points):
    # mode 1 = (eps/2) ∂_eps of the family, by central differences in eps
    eps, h = 1.0, 1e-6
    d_eps = (eh_metric(eps + h).values(points)
             - eh_metric(eps - h).values(points)) / (2 * h)
    o1 = kernel_mode(1, eps).values(points)
    assert np.max(np.abs(0.5 * eps * d_eps - o1)) < 1e-9


def test_farfield_is_mode1_asymptote():
    # mode1 - eps^4 T decays like r^-8: fitted slope on the axis
    radii = np.array([10.0, 15.0, 25.0, 40.0])
    pts = np.zeros((4, 4))
    pts[:, 0] = radii
    dev = np.abs(kernel_mode(1, 1.0).values(pts)
                 - farfield_tensor().values(pts))
    sup = dev.reshape(4, -1).max(axis=1)
    slope = np.polyfit(np.log(radii), np.log(sup), 1)[0]
    assert abs(slope + 8.0) < 0.3


def test_symmetry_maps_fix_fields(rng):
    from tests.conftest import sample_offorigin
    pts = sample_offorigin(rng, 30, 0.5, 2.0)
    fields = [eh_metric(1.0), eh_metric(1.0, reflected=True),
              farfield_tensor(), farfield_tensor(True)]
    for field in fields:
        for sym in point_generators():
            assert symmetry_check(field, sym, pts) < 1e-13


def test_euclidean_fixed_by_all_maps(rng):
    from ehglue.fields import euclidean_metric
    from tests.conftest import sample_offorigin
    pts = sample_offorigin(rng, 10, 0.5, 2.0)
    for sym in map_collection():
        assert symmetry_check(euclidean_metric(), sym, pts) == 0.0


def test_inner_product_cases():
    eye = np.eye(4)
    assert pair(inverse_metric(eye), eye, eye) == pytest.approx(4.0)
    h = np.diag([-1.0, -1.0, 1.0, 1.0])
    assert pair(inverse_metric(eye), h, eye) == pytest.approx(0.0, abs=1e-15)
    assert pair(inverse_metric(2 * eye), eye, eye) == pytest.approx(1.0)


def test_inner_product_positivity(rng):
    g = np.eye(4) + 0.1 * np.eye(4) * rng.random()
    for _ in range(50):
        h = rng.normal(size=(4, 4))
        h = h + h.T
        val = pair(inverse_metric(g), h, h)
        assert val >= 0.0
        if np.max(np.abs(h)) > 1e-12:
            assert val > 0.0


def test_singular_metric_raises():
    from ehglue.sym2 import SingularMetricError, inverse_metric
    g = np.zeros((4, 4))
    with pytest.raises(SingularMetricError):
        inverse_metric(g)


def test_origin_rejected():
    with pytest.raises(DomainError):
        eh_metric(1.0).values(np.zeros((1, 4)))
    with pytest.raises(DomainError):
        alpha_forms(np.zeros((1, 4)))


def test_pull_back_is_the_congruence_by_the_linear_part(rng):
    # Lᵀ·h·L, bit for bit, for a batch and for one tensor
    h = rng.normal(size=(7, 4, 4))
    h = h + np.swapaxes(h, -1, -2)
    for sym in map_collection():
        lin = sym.linear()
        want = np.einsum("ai,pab,bj->pij", lin, h, lin)
        assert sym.pull_back(h).tobytes() == want.tobytes()
        assert sym.pull_back(h[0]).tobytes() == want[0].tobytes()
