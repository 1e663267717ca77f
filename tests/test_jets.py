"""Jet arithmetic against an independent polynomial-calculus oracle.

The oracle differentiates multivariate polynomials by exact coefficient
manipulation and evaluates rational combinations by composing the quotient
rule once at the top level, sharing no code with the Jet2 product/chain
machinery.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehglue.jets import DIM, DomainError, Jet2, coordinate_jets, jet_radius


# -- independent oracle: dense polynomial calculus --------------------------

class Poly:
    """Multivariate polynomial with dict storage {exponent tuple: coeff}."""

    def __init__(self, terms):
        self.terms = {k: v for k, v in terms.items() if v != 0.0}

    @staticmethod
    def variable(i):
        e = [0, 0, 0, 0]
        e[i] = 1
        return Poly({tuple(e): 1.0})

    @staticmethod
    def const(c):
        return Poly({(0, 0, 0, 0): float(c)})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return Poly(out)

    def __mul__(self, other):
        out = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                out[key] = out.get(key, 0.0) + va * vb
        return Poly(out)

    def diff(self, i):
        out = {}
        for k, v in self.terms.items():
            if k[i] > 0:
                key = list(k)
                key[i] -= 1
                out[tuple(key)] = out.get(tuple(key), 0.0) + v * k[i]
        return Poly(out)

    def __call__(self, x):
        total = 0.0
        for k, v in self.terms.items():
            total += v * np.prod([x[i] ** k[i] for i in range(4)])
        return total

    def jet_at(self, x):
        grad = np.array([self.diff(i)(x) for i in range(4)])
        hess = np.array([[self.diff(i).diff(j)(x) for j in range(4)]
                         for i in range(4)])
        return self(x), grad, hess


def random_poly(rng, degree=3, terms=5):
    out = Poly.const(rng.uniform(0.5, 2.0))
    for _ in range(terms):
        mono = Poly.const(rng.uniform(-2.0, 2.0))
        for _ in range(rng.integers(1, degree + 1)):
            mono = mono * Poly.variable(rng.integers(0, 4))
        out = out + mono
    return out


def poly_to_jet(poly: Poly, x: np.ndarray) -> Jet2:
    xj = coordinate_jets(x)
    out = Jet2.constant(0.0, x.shape[:-1])
    for k, v in poly.terms.items():
        term = Jet2.constant(v, x.shape[:-1])
        for i in range(4):
            for _ in range(k[i]):
                term = term * xj[i]
        out = out + term
    return out


def test_rational_compositions_match_polynomial_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        num = random_poly(rng)
        den = random_poly(rng)
        x = rng.uniform(0.5, 1.5, size=(4,))
        dval = den(x)
        if abs(dval) < 0.3:
            continue
        jet = poly_to_jet(num, x) / poly_to_jet(den, x)

        nv, ng, nh = num.jet_at(x)
        dv, dg, dh = den.jet_at(x)
        val = nv / dv
        grad = (ng - val * dg) / dv
        hess = (nh - val * dh - np.outer(grad, dg) - np.outer(dg, grad)) / dv

        scale = max(1.0, abs(val), np.max(np.abs(grad)), np.max(np.abs(hess)))
        worst = max(worst,
                    abs(jet.value - val) / scale,
                    np.max(np.abs(jet.grad - grad)) / scale,
                    np.max(np.abs(jet.hess - hess)) / scale)
    assert worst < 1e-13


@given(st.floats(0.2, 3.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_product_rule_leibniz(a, b, c):
    x = np.array([a, b, c, 0.7])
    xj = coordinate_jets(x)
    f = xj[0] * xj[1] + xj[2]
    g = xj[0] * xj[0] + 2.0
    fg = f * g
    # hand-expanded: (x1 x2 + x3)(x1^2 + 2)
    val = (a * b + c) * (a * a + 2.0)
    assert fg.value == pytest.approx(val, rel=1e-14)
    # gradient entry 0: x2·(x1²+2) + (x1 x2 + x3)·2 x1
    assert fg.grad[0] == pytest.approx(b * (a * a + 2) + (a * b + c) * 2 * a,
                                       rel=1e-13)


def test_hessian_storage_symmetric_bitwise():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(7, 4))
    xj = coordinate_jets(x)
    expr = (xj[0] * xj[1] * xj[2] + xj[3] * xj[3]) / (xj[0] * xj[0] + 1.0)
    assert np.array_equal(expr.hess, np.swapaxes(expr.hess, -1, -2))


def test_sqrt_and_powers():
    x = np.array([1.3, -0.2, 0.5, 0.9])
    xj = coordinate_jets(x)
    r2 = xj[0] * xj[0] + xj[1] * xj[1] + xj[2] * xj[2] + xj[3] * xj[3]
    assert np.allclose((r2.sqrt() * r2.sqrt()).value, r2.value, rtol=1e-15)
    assert np.allclose((r2 ** 3).value, r2.value ** 3, rtol=1e-14)


def test_radius_jet_closed_form():
    x = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
    r = jet_radius(x)
    assert np.allclose(r.value, [1.0, 2.0])
    assert np.allclose(r.grad[0], [1, 0, 0, 0])
    assert np.allclose(r.grad[1], [0, 1, 0, 0])
    assert np.allclose(r.hess[0], np.diag([0.0, 1.0, 1.0, 1.0]))
    assert np.allclose(r.hess[1], np.diag([0.5, 0.0, 0.5, 0.5]))


def test_radius_jet_matches_finite_differences(rng):
    x = rng.normal(size=(5, 4))
    r = jet_radius(x)
    h = 1e-5
    for k in range(DIM):
        e = np.zeros(4)
        e[k] = h
        fd = (np.linalg.norm(x + e, axis=1) - np.linalg.norm(x - e, axis=1)) / (2 * h)
        assert np.allclose(fd, r.grad[:, k], atol=1e-8)


def test_radius_rejects_origin():
    with pytest.raises(DomainError):
        jet_radius(np.zeros((1, 4)))
