import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bielastic.coefficients import (
    Coefficient,
    as_coefficient,
    combine,
    require_finite,
)
from bielastic.harness import EXAMPLES
from bielastic.mesh import generate_domain
from bielastic.polybasis import QUAD_DEGREES, triangle_quadrature
from bielastic.spaces import BrokenSpace


def test_constant():
    c = Coefficient.constant(3)
    x = np.linspace(0, 1, 7)
    assert np.allclose(c(x, x), 3.0)
    assert c.poly_degree == 0


def test_affine():
    c = Coefficient.affine(8.0, 1.0, -1.0)
    assert c(0.25, 0.75) == 8.0 + 0.25 - 0.75
    assert c.poly_degree == 1
    # the degree is read from the tree, which names x1 and x2
    assert Coefficient.affine(2.0, 0.0, 0.0).poly_degree == 1


def test_radial_quadratic():
    c = Coefficient.radial_quadratic(4.0)
    assert c(0.5, 0.5) == 4.5
    assert c.poly_degree == 2


def test_expression_trig():
    c = Coefficient.expression("2 + sin(pi*x1)*cos(pi*x2)")
    x1 = np.array([0.5, 0.0])
    x2 = np.array([0.0, 0.25])
    expect = 2 + np.sin(math.pi * x1) * np.cos(math.pi * x2)
    assert np.allclose(c(x1, x2), expect)
    assert c.poly_degree is None


def test_expression_poly_degree():
    c = Coefficient.expression("1 + x1**2*x2 - x2/2")
    assert c.poly_degree == 3
    assert abs(c(2.0, 3.0) - (1 + 12 - 1.5)) < 1e-15


@pytest.mark.parametrize(
    "bad",
    [
        "__import__('os')",
        "x1 if x2 else 0",
        "tan(x1)",
        "x3 + 1",
        "lambda t: t",
        "[1,2]",
        "sin(x1, x2)",
    ],
)
def test_expression_rejects(bad):
    with pytest.raises((ValueError, SyntaxError)):
        Coefficient.expression(bad)


def test_as_coefficient_and_combine():
    r0 = as_coefficient(0.05)
    r1 = Coefficient.affine(4.0, 1.0, -1.0)
    w = combine("div", 1.0, combine("sub", r1, r0))
    x1, x2 = 0.3, 0.7
    assert abs(w(x1, x2) - 1.0 / (4.0 + 0.3 - 0.7 - 0.05)) < 1e-15


def _full(value):
    return lambda x, y: np.full_like(x, value)


def _affine(c0):
    return lambda x, y: c0 + 1.0 * x + -1.0 * y


def _radial(c0):
    return lambda x, y: c0 + x**2 + y**2


def _weights(lo, hi):
    """r = 1 / (hi - lo), r*lo and r*lo*hi, in the operation order of the
    transmission blocks."""
    def r(x, y):
        return 1.0 / (hi(x, y) - lo(x, y))
    return (r, lambda x, y: r(x, y) * lo(x, y),
            lambda x, y: r(x, y) * (lo(x, y) * hi(x, y)))


# lo = rho0, hi = rho1 (every pair is in the standard ordering), the
# degree of rho1 and the degree of the weights
_DENSITIES = {6: (_full(0.05), _full(3.0), 0, 0),
              7: (_full(0.5), _affine(4.0), 1, None),
              8: (_full(0.125), _radial(4.0), 2, None),
              9: (_full(1.0), _full(4.0), 0, 0)}


def _built_in():
    """name: (coefficient, restatement, poly_degree) for every example
    coefficient and transmission weight."""
    table = {
        "example1.beta": (EXAMPLES[1].beta, _full(1.0), 0),
        "example2.beta": (EXAMPLES[2].beta, _affine(8.0), 1),
        "example3.beta": (EXAMPLES[3].beta, _full(1.0), 0),
        "example4.beta": (EXAMPLES[4].beta, _affine(8.0), 1),
        "example5.beta": (EXAMPLES[5].beta, _radial(4.0), 2),
    }
    for n, (lo, hi, hi_degree, degree) in _DENSITIES.items():
        ex = EXAMPLES[n]
        r = combine("div", 1.0, combine("sub", ex.rho1, ex.rho0))
        weights = (r, combine("mul", r, ex.rho0),
                   combine("mul", r, combine("mul", ex.rho0, ex.rho1)))
        table[f"example{n}.rho0"] = (ex.rho0, lo, 0)
        table[f"example{n}.rho1"] = (ex.rho1, hi, hi_degree)
        for name, c, want in zip(("r", "r*lo", "r*lo*hi"), weights,
                                 _weights(lo, hi)):
            table[f"example{n}.{name}"] = (c, want, degree)
    return table


@pytest.mark.parametrize("domain", [
    "unit-square", "right-triangle", "equilateral-triangle", "l-shape",
])
def test_built_in_coefficients_bitwise(domain):
    """Every built-in coefficient and transmission weight equals its
    restatement bit for bit at the points of every quadrature rule, and
    has its pinned polynomial degree."""
    space = BrokenSpace(generate_domain(domain, 1), 3)
    for degree in QUAD_DEGREES:
        xq = space.physical_points(triangle_quadrature(degree).points)
        x, y = xq[..., 0], xq[..., 1]
        for name, (coeff, restated, poly_degree) in _built_in().items():
            got, want = coeff(x, y), restated(x, y)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (name, degree)
            assert coeff.poly_degree == poly_degree, name


def test_combine_leaves_operands_unchanged():
    x1, x2 = np.meshgrid(np.linspace(-1.0, 2.0, 5), np.linspace(0.0, 1.0, 4))
    operands = [Coefficient.constant(0.5), Coefficient.affine(4.0, 1.0, -1.0),
                Coefficient.radial_quadratic(4.0),
                Coefficient.expression("2 + sin(pi*x1)*x2**3")]
    before = [(c(x1, x2).tobytes(), c.poly_degree) for c in operands]
    ops = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
           "div": np.divide}
    for a in operands:
        for b in operands:
            for op, ufunc in ops.items():
                got = combine(op, a, b)(x1, x2)
                assert got.tobytes() == ufunc(a(x1, x2), b(x1, x2)).tobytes()
    assert [(c(x1, x2).tobytes(), c.poly_degree) for c in operands] == before


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_constant_reaches_require_finite(value):
    c = Coefficient.constant(value)
    with pytest.raises(ValueError, match="coefficient is not finite"):
        require_finite(c(np.zeros(3), np.zeros(3)))


def test_broadcast_shape():
    c = Coefficient.expression("pi")
    out = c(np.zeros((4, 5)), np.zeros((4, 5)))
    assert out.shape == (4, 5)
    assert np.allclose(out, math.pi)


_LEAVES = (
    st.sampled_from(["x1", "x2", "pi"])
    | st.integers(-10**6, 10**6).map(str)
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)
)


def _extend(inner):
    binary = st.tuples(inner, st.sampled_from("+-*/"), inner).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"
    )
    power = st.tuples(inner, inner).map(lambda t: f"({t[0]})**({t[1]})")
    unary = inner.map(lambda e: f"(-{e})")
    call = st.tuples(st.sampled_from(["sin", "cos"]), inner).map(
        lambda t: f"{t[0]}({t[1]})"
    )
    return binary | power | unary | call


EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(EXPRESSIONS)
def test_expression_evaluates_or_raises_value_error(text):
    x1, x2 = np.meshgrid(np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4))
    try:
        out = Coefficient.expression(text)(x1, x2)
    except ValueError:
        return
    assert isinstance(out, np.ndarray)
    assert out.shape == x1.shape
