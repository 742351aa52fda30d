"""Scalar coefficient fields over the domain.

Supported kinds: constants, affine fields c0 + cx*x1 + cy*x2, the radial
quadratic c0 + x1**2 + x2**2, and restricted closed-form expressions in x1
and x2 (arithmetic, powers, sin, cos).  Expressions are parsed once into a
validated evaluation tree; evaluation is vectorized over numpy arrays.
"""

import ast
import copy
import math

import numpy as np

_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos}
_ALLOWED_NAMES = {"x1", "x2", "pi"}

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
    """A scalar field c(x1, x2), evaluated in batch."""

    def __init__(self, kind, func, poly_degree, label):
        self.kind = kind
        self._func = func
        self.poly_degree = poly_degree
        self.label = label

    @classmethod
    def constant(cls, value):
        value = float(value)
        return cls(
            "constant",
            lambda x1, x2: np.full(np.shape(x1), value),
            0,
            repr(value),
        )

    @classmethod
    def affine(cls, c0, cx, cy):
        c0, cx, cy = float(c0), float(cx), float(cy)
        deg = 0 if cx == 0.0 and cy == 0.0 else 1
        return cls(
            "affine",
            lambda x1, x2: c0 + cx * x1 + cy * x2,
            deg,
            f"{c0} + {cx}*x1 + {cy}*x2",
        )

    @classmethod
    def radial_quadratic(cls, c0):
        c0 = float(c0)
        return cls(
            "radial-quadratic",
            lambda x1, x2: c0 + x1**2 + x2**2,
            2,
            f"{c0} + x1**2 + x2**2",
        )

    @classmethod
    def expression(cls, text):
        try:
            tree = ast.parse(text, mode="eval")
        except SyntaxError as exc:
            raise ValueError(
                f"cannot parse expression {text!r}: {exc.msg}"
            ) from None
        _validate_tree(tree)
        code = compile(_float_literals(tree), "<coefficient>", "eval")
        namespace = {"__builtins__": {}, "pi": math.pi, **_ALLOWED_CALLS}

        def func(x1, x2):
            # non-finite values are rejected where coefficients are used
            try:
                with np.errstate(all="ignore"):
                    out = eval(code, namespace, {"x1": x1, "x2": x2})
            except (ZeroDivisionError, OverflowError) as exc:
                raise ValueError(
                    f"cannot evaluate expression {text!r}: {exc}"
                ) from None
            if np.iscomplexobj(out):
                raise ValueError(f"expression {text!r} has complex values")
            return np.broadcast_to(np.asarray(out, float), np.shape(x1)).copy()

        return cls("expression", func, _poly_degree(tree), text)

    def __call__(self, x1, x2):
        return self._func(np.asarray(x1, float), np.asarray(x2, float))

    def __repr__(self):
        return f"Coefficient({self.kind}: {self.label})"


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
    like rho0*rho1/(rho1-rho0))."""
    a = as_coefficient(a)
    b = as_coefficient(b)
    func = {
        "add": lambda x1, x2: a(x1, x2) + b(x1, x2),
        "sub": lambda x1, x2: a(x1, x2) - b(x1, x2),
        "mul": lambda x1, x2: a(x1, x2) * b(x1, x2),
        "div": lambda x1, x2: a(x1, x2) / b(x1, x2),
    }[op]
    if op in ("add", "sub"):
        deg = (
            max(a.poly_degree, b.poly_degree)
            if a.poly_degree is not None and b.poly_degree is not None
            else None
        )
    elif op == "mul":
        deg = (
            a.poly_degree + b.poly_degree
            if a.poly_degree is not None and b.poly_degree is not None
            else None
        )
    else:
        deg = a.poly_degree if b.poly_degree == 0 else None
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
    return Coefficient(
        "derived",
        func,
        deg,
        f"({a.label}) {sym} ({b.label})",
    )
