import itertools
import math

import numpy as np
import pytest
import sympy as sp

from bielastic.polybasis import (
    QUAD_DEGREES,
    collapsed_quadrature,
    edge_gauss,
    p2_shapes,
    p3_shapes,
    triangle_quadrature,
)

from oracles import barycentric_moment, divsigma_eval

rng = np.random.default_rng(20260816)


# both rules at every degree; the symmetric rule keeps the bare degree id
RULES = (
    [pytest.param(triangle_quadrature, d, id=str(d)) for d in QUAD_DEGREES]
    + [pytest.param(collapsed_quadrature, d, id=f"collapsed-{d}")
       for d in QUAD_DEGREES]
)


def barycentric(points):
    return np.column_stack([1 - points.sum(axis=1), points[:, 0],
                            points[:, 1]])


@pytest.mark.parametrize("rule_of,degree", RULES)
def test_quadrature_weights(rule_of, degree):
    rule = rule_of(degree)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 0.5) < 1e-15
    assert barycentric(rule.points).min() > -1e-15


@pytest.mark.parametrize("rule_of,degree", RULES)
def test_quadrature_exactness(rule_of, degree):
    rule = rule_of(degree)
    x, y = rule.points.T
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            # reference triangle: x = lambda_2, y = lambda_3
            exact = barycentric_moment(0, i, j)
            got = float(rule.weights @ (x**i * y**j))
            assert abs(got - exact) < 1e-14, (degree, i, j)


def is_symmetric(rule):
    """Whether the weighted point set, each row (l1, l2, l3, w), is the
    same set under every permutation of the barycentric columns.  Rows are
    lexsorted on values rounded to 12 digits, so that copies of one point
    that differ in the last bits sort alike, then compared unrounded."""
    lam = barycentric(rule.points)

    def rows(perm):
        r = np.column_stack([lam[:, perm], rule.weights])
        return r[np.lexsort(np.round(r, 12).T[::-1])]

    ref = rows((0, 1, 2))
    return all(np.allclose(rows(perm), ref, rtol=0, atol=1e-15)
               for perm in itertools.permutations(range(3)))


def test_quadrature_symmetric():
    """The symmetric rule is invariant under the vertex permutations at
    every degree; the collapsed rule it is built from is not, so the
    check can fail."""
    for degree in QUAD_DEGREES:
        assert is_symmetric(triangle_quadrature(degree)), degree
        assert not is_symmetric(collapsed_quadrature(degree)), degree


def test_quadrature_bad_degree():
    with pytest.raises(ValueError):
        triangle_quadrature(5)


def test_barycentric_moment_values():
    assert abs(barycentric_moment(0, 1, 1) - 1.0 / 24.0) < 1e-18
    assert abs(barycentric_moment(3, 0, 0) - 1.0 / 20.0) < 1e-18
    assert abs(barycentric_moment(0, 0, 0) - 0.5) < 1e-18


def test_edge_gauss():
    t, w = edge_gauss(2)
    assert abs(w.sum() - 1.0) < 1e-15
    for k in range(4):  # exact through degree 3
        assert abs(w @ t**k - 1.0 / (k + 1)) < 1e-15


@pytest.mark.parametrize("shapes", [p2_shapes(), p3_shapes()])
def test_lagrange_property(shapes):
    tab = shapes.tabulate(shapes.nodes)
    assert np.allclose(tab["v"], np.eye(shapes.ndof), atol=1e-12)
    pts = rng.random((50, 2)) * [1.0, 0.0] + rng.random((50, 2)) * [0.0, 1.0]
    pts = pts[pts.sum(axis=1) <= 1.0]
    tab = shapes.tabulate(pts)
    assert np.allclose(tab["v"].sum(axis=1), 1.0, atol=1e-13)
    for key in ("gx", "gy", "hxx", "hxy", "hyy"):
        assert np.allclose(tab[key].sum(axis=1), 0.0, atol=1e-12)


def test_cubic_bubble_hessian():
    # bubble l1*l2*l3 has Lagrange coefficients e_centroid / 27
    shapes = p3_shapes()
    coeffs = np.zeros(10)
    coeffs[9] = 1.0 / 27.0
    tab = shapes.tabulate(np.array([[1.0 / 3.0, 1.0 / 3.0]]))
    hxx = float((tab["hxx"] @ coeffs)[0])
    hxy = float((tab["hxy"] @ coeffs)[0])
    hyy = float((tab["hyy"] @ coeffs)[0])
    # d2/dx2 ((1-x-y)xy) = -2y etc., evaluated at the centroid
    assert abs(hxx - (-2.0 / 3.0)) < 1e-12
    assert abs(hxy - (-1.0 / 3.0)) < 1e-12
    assert abs(hyy - (-2.0 / 3.0)) < 1e-12


def test_divsigma_worked_example():
    # u = (x^2, y^2), lam = 1/4, mu = 1/16: div sigma = (2lam+4mu)(1,1)
    h1 = (np.array([2.0]), np.array([0.0]), np.array([0.0]))
    h2 = (np.array([0.0]), np.array([0.0]), np.array([2.0]))
    d1, d2 = divsigma_eval(h1, h2, 0.25, 0.0625)
    assert abs(d1[0] - 0.75) < 1e-15
    assert abs(d2[0] - 0.75) < 1e-15


def test_divsigma_matches_stress_divergence():
    """div sigma computed via mu*lap + (lam+mu)*grad div must equal the
    componentwise divergence of the Hooke stress tensor (sympy oracle),
    for 1000 random cubic fields."""
    x, y, lam, mu = sp.symbols("x y lam mu")
    a = sp.symarray("a", 10)
    b = sp.symarray("b", 10)
    monos = [x**i * y**j for d in range(4) for i, j in
             [(d - jj, jj) for jj in range(d + 1)]]
    u1 = sum(ai * m for ai, m in zip(a, monos))
    u2 = sum(bi * m for bi, m in zip(b, monos))
    e11 = sp.diff(u1, x)
    e22 = sp.diff(u2, y)
    e12 = (sp.diff(u1, y) + sp.diff(u2, x)) / 2
    s11 = 2 * mu * e11 + lam * (e11 + e22)
    s22 = 2 * mu * e22 + lam * (e11 + e22)
    s12 = 2 * mu * e12
    ds1 = sp.diff(s11, x) + sp.diff(s12, y)
    ds2 = sp.diff(s12, x) + sp.diff(s22, y)
    oracle = sp.lambdify((a, b, x, y, lam, mu), (ds1, ds2), "numpy")

    # our route: monomial-table Hessians + divsigma_eval
    shapes = p3_shapes()
    pts = np.array([[0.21, 0.33], [0.5, 0.1], [0.05, 0.77]])
    tab = shapes.tabulate(pts)
    # convert monomial coefficients to Lagrange coefficients: values at nodes
    vander = np.array(
        [[float(m.subs({x: nx, y: ny})) for m in monos]
         for nx, ny in shapes.nodes]
    )
    lamv, muv = 0.25, 0.0625
    for _ in range(1000):
        ac = rng.standard_normal(10)
        bc = rng.standard_normal(10)
        c1 = vander @ ac  # Lagrange coefficients of u1
        c2 = vander @ bc
        h1 = (tab["hxx"] @ c1, tab["hxy"] @ c1, tab["hyy"] @ c1)
        h2 = (tab["hxx"] @ c2, tab["hxy"] @ c2, tab["hyy"] @ c2)
        d1, d2 = divsigma_eval(h1, h2, lamv, muv)
        o1, o2 = oracle(ac, bc, pts[:, 0], pts[:, 1], lamv, muv)
        scale = 1.0 + max(np.abs(o1).max(), np.abs(o2).max())
        assert np.abs(d1 - o1).max() < 1e-12 * scale
        assert np.abs(d2 - o2).max() < 1e-12 * scale


def test_sin_sin_integral_unit_square():
    # assemble integral of sin(pi x) sin(pi y) over the unit square at
    # h = 1/8 with the degree-10 rule; exact value 4/pi^2
    from bielastic.mesh import generate_domain

    mesh = generate_domain("unit-square", 2)
    assert mesh.h == 0.125
    rule = triangle_quadrature(10)
    p = mesh.vertices[mesh.triangles]
    # x = v0 + B xhat, |J| = 2 * area
    xq = (
        p[:, None, 0, :]
        + rule.points[None, :, 0, None] * (p[:, None, 1, :] - p[:, None, 0, :])
        + rule.points[None, :, 1, None] * (p[:, None, 2, :] - p[:, None, 0, :])
    )
    det = 2.0 * mesh.signed_areas()
    vals = np.sin(math.pi * xq[..., 0]) * np.sin(math.pi * xq[..., 1])
    total = float(np.einsum("tq,q,t->", vals, rule.weights, det))
    assert abs(total - 4.0 / math.pi**2) < 1e-8
