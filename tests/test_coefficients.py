import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bielastic.coefficients import Coefficient, as_coefficient, combine


def test_constant():
    c = Coefficient.constant(3)
    x = np.linspace(0, 1, 7)
    assert np.allclose(c(x, x), 3.0)
    assert c.poly_degree == 0


def test_affine():
    c = Coefficient.affine(8.0, 1.0, -1.0)
    assert c(0.25, 0.75) == 8.0 + 0.25 - 0.75
    assert c.poly_degree == 1


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
