"""Reference-triangle polynomial bases and quadrature.

The reference triangle has vertices (0,0), (1,0), (0,1).  Lagrange bases of
degree 2 and 3 are tabulated (values, gradients, Hessians) at arbitrary
points via an exact monomial Vandermonde solve.

Two triangle quadrature rules are built, both with positive weights,
interior points and exactness for the requested polynomial degree.
``collapsed_quadrature`` is the collapsed tensor Gauss rule, n^2 points
with n = (degree + 3) // 2; ``triangle_quadrature`` symmetrizes it over
the six barycentric permutations, 6 n^2 points with the same exactness.
Loads and error norms integrate on the collapsed rule, the bilinear
forms on the symmetric one (``assembly`` says why), and
``solvers.coefficient_range`` samples a weight at the symmetric degree-12
points.  Exactness is checkable against the closed-form barycentric
moment

    integral over T of l1^a l2^b l3^c dx = 2|T| a! b! c! / (a+b+c+2)!
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

QUAD_DEGREES = (2, 4, 6, 8, 10, 12)


def _monomial_exponents(degree):
    return [(i, j) for d in range(degree + 1) for i, j in
            [(d - jj, jj) for jj in range(d + 1)]]


def _lagrange_nodes(degree):
    """Uniform Lagrange nodes: vertices, then edge nodes, then interior."""
    if degree == 2:
        nodes = [(0, 0), (1, 0), (0, 1), (0.5, 0.5), (0, 0.5), (0.5, 0)]
    elif degree == 3:
        third = 1.0 / 3.0
        nodes = [
            (0, 0), (1, 0), (0, 1),
            # two nodes on each edge, ordered along the edge (local order:
            # edge k is opposite vertex k)
            (2 * third, third), (third, 2 * third),   # edge 0: v1 -> v2
            (0, 2 * third), (0, third),               # edge 1: v2 -> v0
            (third, 0), (2 * third, 0),               # edge 2: v0 -> v1
            (third, third),                           # centroid
        ]
    else:
        raise ValueError("only degrees 2 and 3 are supported")
    return np.array(nodes, dtype=float)


class ShapeSet:
    """Lagrange basis of a given degree on the reference triangle."""

    def __init__(self, degree):
        self.degree = degree
        self.exponents = _monomial_exponents(degree)
        self.nodes = _lagrange_nodes(degree)
        self.ndof = len(self.nodes)
        V = _eval_monomials(self.exponents, self.nodes)[0]
        # column j of coeffs holds the monomial coefficients of shape j
        self.coeffs = np.linalg.solve(V, np.eye(self.ndof))

    def tabulate(self, points):
        """Values and derivatives at reference points.

        Returns a dict with keys ``v, gx, gy, hxx, hxy, hyy``; every entry
        has shape (npoints, ndof).
        """
        tables = _eval_monomials(self.exponents, np.asarray(points, float))
        keys = ("v", "gx", "gy", "hxx", "hxy", "hyy")
        return {k: tab @ self.coeffs for k, tab in zip(keys, tables)}


def _eval_monomials(exponents, points):
    """Monomial values and derivatives up to second order at points."""
    x = points[:, 0]
    y = points[:, 1]
    n = len(exponents)
    m = len(points)
    out = [np.zeros((m, n)) for _ in range(6)]

    def powr(t, k):
        return t ** k if k >= 0 else np.zeros_like(t)

    for col, (i, j) in enumerate(exponents):
        xi, yj = powr(x, i), powr(y, j)
        out[0][:, col] = xi * yj
        out[1][:, col] = i * powr(x, i - 1) * yj
        out[2][:, col] = j * xi * powr(y, j - 1)
        out[3][:, col] = i * (i - 1) * powr(x, i - 2) * yj
        out[4][:, col] = i * j * powr(x, i - 1) * powr(y, j - 1)
        out[5][:, col] = j * (j - 1) * xi * powr(y, j - 2)
    return out


@lru_cache(maxsize=None)
def p3_shapes():
    return ShapeSet(3)


@lru_cache(maxsize=None)
def p2_shapes():
    return ShapeSet(2)


@dataclass(frozen=True)
class QuadratureRule:
    """Points (reference coordinates) and weights; weights sum to 1/2."""

    degree: int
    points: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def collapsed_quadrature(degree):
    """Collapsed Gauss rule exact for polynomials of total degree
    ``degree``: the n x n tensor Gauss rule on the square mapped to the
    triangle by (u, v) -> (u, v (1 - u)), n = (degree + 3) // 2 (Stroud
    1971).  Its weights are positive and its points interior, but it is
    not symmetric under the vertex permutations."""
    if degree not in QUAD_DEGREES:
        raise ValueError(f"unsupported quadrature degree {degree}")
    n = (degree + 3) // 2  # collapsed direction sees degree+1
    t, w = leggauss(n)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    # collapsed map (u, v) -> (u, v(1-u)), jacobian (1-u)
    u = np.repeat(t, n)
    v = np.tile(t, n)
    wq = np.repeat(w, n) * np.tile(w, n) * (1.0 - u)
    return QuadratureRule(degree, np.column_stack([u, v * (1.0 - u)]), wq)


@lru_cache(maxsize=None)
def triangle_quadrature(degree):
    """Symmetric positive rule exact for polynomials of total degree
    ``degree``: the collapsed rule under all six vertex permutations, each
    copy with a sixth of its weights.  The identity comes first, so the
    first n^2 points are the collapsed rule's."""
    base = collapsed_quadrature(degree)
    x, y = base.points.T
    lam = np.column_stack([1.0 - x - y, x, y])
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    points = np.vstack([lam[:, perm[1:]] for perm in perms])
    return QuadratureRule(degree, points, np.tile(base.weights / 6.0, 6))


def edge_gauss(npoints):
    """Gauss rule on [0, 1]; exact for degree 2*npoints - 1."""
    t, w = leggauss(npoints)
    return 0.5 * (t + 1.0), 0.5 * w
