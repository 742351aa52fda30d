"""Scalar coefficient fields over the domain.

Every coefficient is one validated expression tree in x1 and x2
(arithmetic, powers, sin, cos and pi), compiled once and evaluated
vectorized over numpy arrays by one ``__call__``.  Constants, affine
fields c0 + cx*x1 + cy*x2 and the radial quadratic c0 + x1**2 + x2**2
build their trees from literal and name nodes, so a non-finite literal is
refused where the values are used (``require_finite``); ``expression``
parses closed-form text; ``combine`` joins two trees under one operator.
The polynomial degree, which sets the quadrature degree of a form, is read
from the tree alone (``_poly_degree``; None when not polynomial).
"""

import ast
import copy
import math

import numpy as np

_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos}
_ALLOWED_NAMES = {"x1", "x2", "pi"}
_NAMESPACE = {"__builtins__": {}, "pi": math.pi, **_ALLOWED_CALLS}
_X1, _X2 = ast.Name("x1", ast.Load()), ast.Name("x2", ast.Load())
_OPS = {"add": ast.Add, "sub": ast.Sub, "mul": ast.Mult, "div": ast.Div}

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
    ast.Call,
    ast.Load,
)


def _validate_tree(tree):
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(
                f"disallowed syntax in coefficient expression: "
                f"{type(node).__name__}"
            )
        if isinstance(node, ast.Constant) and not isinstance(
            node.value, (int, float)
        ):
            raise ValueError("only numeric literals are allowed")
        if isinstance(node, ast.Name) and node.id not in (
            _ALLOWED_NAMES | set(_ALLOWED_CALLS)
        ):
            raise ValueError(f"unknown name {node.id!r} in expression")
        if isinstance(node, ast.Call):
            if (
                not isinstance(node.func, ast.Name)
                or node.func.id not in _ALLOWED_CALLS
                or node.keywords
                or len(node.args) != 1
            ):
                raise ValueError("only sin(...) and cos(...) calls are allowed")


def _poly_degree(node):
    """Total degree of a polynomial expression tree, or None."""
    if isinstance(node, ast.Expression):
        return _poly_degree(node.body)
    if isinstance(node, ast.Constant):
        return 0
    if isinstance(node, ast.Name):
        return 0 if node.id == "pi" else 1
    if isinstance(node, ast.UnaryOp):
        return _poly_degree(node.operand)
    if isinstance(node, ast.Call):
        return None
    if isinstance(node, ast.BinOp):
        a = _poly_degree(node.left)
        b = _poly_degree(node.right)
        if a is None or b is None:
            return None
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return max(a, b)
        if isinstance(node.op, ast.Mult):
            return a + b
        if isinstance(node.op, ast.Div):
            return a if b == 0 else None
        if isinstance(node.op, ast.Pow):
            if (
                b == 0
                and isinstance(node.right, ast.Constant)
                and isinstance(node.right.value, int)
                and node.right.value >= 0
            ):
                return a * node.right.value
            return None
    return None


def _add(a, b):
    return ast.BinOp(a, ast.Add(), b)


def _mul(a, b):
    return ast.BinOp(a, ast.Mult(), b)


def _float_literals(tree):
    """A copy of the tree with every integer literal made a float, so that
    powers of literals overflow instead of growing without bound."""
    tree = copy.deepcopy(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            try:
                node.value = float(node.value)
            except OverflowError:
                raise ValueError("numeric literal out of range") from None
    return tree


class Coefficient:
    """A scalar field c(x1, x2): one validated expression tree (``tree``,
    the body of the expression), evaluated in batch."""

    def __init__(self, tree):
        expr = ast.Expression(tree)
        _validate_tree(expr)
        self.tree = tree
        try:
            self.poly_degree = _poly_degree(expr)
            code = ast.fix_missing_locations(_float_literals(expr))
            self._code = compile(code, "<coefficient>", "eval")
        except RecursionError:
            raise ValueError("expression nested too deeply") from None

    @classmethod
    def constant(cls, value):
        return cls(ast.Constant(float(value)))

    @classmethod
    def affine(cls, c0, cx, cy):
        c0, cx, cy = (ast.Constant(float(c)) for c in (c0, cx, cy))
        return cls(_add(_add(c0, _mul(cx, _X1)), _mul(cy, _X2)))

    @classmethod
    def radial_quadratic(cls, c0):
        x1sq, x2sq = (ast.BinOp(x, ast.Pow(), ast.Constant(2))
                      for x in (_X1, _X2))
        return cls(_add(_add(ast.Constant(float(c0)), x1sq), x2sq))

    @classmethod
    def expression(cls, text):
        try:
            tree = ast.parse(text, mode="eval")
        except SyntaxError as exc:
            raise ValueError(
                f"cannot parse expression {text!r}: {exc.msg}"
            ) from None
        except RecursionError:
            raise ValueError("expression nested too deeply") from None
        return cls(tree.body)

    def __call__(self, x1, x2):
        x1, x2 = np.asarray(x1, float), np.asarray(x2, float)
        # non-finite values are rejected where coefficients are used
        try:
            with np.errstate(all="ignore"):
                out = eval(self._code, _NAMESPACE, {"x1": x1, "x2": x2})
        except (ZeroDivisionError, OverflowError) as exc:
            raise ValueError(
                f"cannot evaluate expression {self.text!r}: {exc}"
            ) from None
        if np.iscomplexobj(out):
            raise ValueError(f"expression {self.text!r} has complex values")
        return np.broadcast_to(np.asarray(out, float), np.shape(x1)).copy()

    @property
    def text(self):
        return ast.unparse(self.tree)

    def __repr__(self):
        return f"Coefficient({self.text})"


def require_finite(values, what="coefficient"):
    """Values of a field, refusing NaN or infinite entries."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} is not finite on the domain")
    return values


def as_coefficient(c):
    """Coerce a float or Coefficient into a Coefficient."""
    if isinstance(c, Coefficient):
        return c
    return Coefficient.constant(c)


def combine(op, a, b):
    """Pointwise combination of two coefficients (used for density algebra
    like rho0*rho1/(rho1-rho0)): the operands' trees joined under one
    operator, the operands left unchanged."""
    a = as_coefficient(a)
    b = as_coefficient(b)
    return Coefficient(ast.BinOp(a.tree, _OPS[op](), b.tree))
