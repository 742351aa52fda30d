"""Bilinear forms, load vectors, and error norms over broken spaces.

Every matrix is block-diagonal per triangle over broken coefficients; vector
fields use a component-major layout, so a two-component form is the 2x2
block matrix of scalar-layout pieces, written straight into CSR from the
per-triangle blocks.  Every matrix comes from one kernel, ``_form``: each
form lists, per component block, its weighted products of tabulated
fields (values, gradients, Hessians).  Its quadrature degree is chosen
from the polynomial degree of the integrand, read from the coefficient's
expression tree, and capped at the finest available rule otherwise
(rational or trigonometric coefficients are integrated at degree 12; the
consistency error this leaves is far below the discretization error at
the mesh sizes involved).  The kernel checks only finiteness, of the
coefficient values and of the assembled blocks; whether a weight is
admissible (positive) is decided by the problem drivers in ``solvers``.

The forms integrate on the symmetric rule ``triangle_quadrature``; loads
and error norms on the collapsed rule ``collapsed_quadrature`` of the
fixed degree ``FIELD_DEGREE``, 36 points per triangle against 216, with
the same exactness.  The forms stay on the symmetric rule for
reproducibility, not accuracy: the reduced fourth-order block is so
ill-conditioned that a 3.6e-15 relative change in it, from the collapsed
rule, moved example 1's level-4 L2 error by 4.6e-6 relative, beyond the
benchmark's recorded tolerance.  The loads and norms moved that error by
4.8e-12.

Loads and error norms need no per-basis physical tables.  The load
contracts its weighted values with the reference value table; the error
norms contract each component's coefficients with the reference tables
first and push the resulting fields forward (``BrokenSpace.field``), so
their work per quadrature point does not grow with the local dimension.

The stress operators use the Lame parameters lam and mu with
sigma(u) = 2 mu eps(u) + lam tr(eps(u)) I, and the divergence identity
div sigma(u) = mu Lap(u) + (lam + mu) grad(div u)
            = (lam + 2 mu) grad(div u) - mu curl(rot u).
"""

from collections import defaultdict

import numpy as np
import scipy.sparse as sparse

from .coefficients import as_coefficient, require_finite
from .polybasis import (
    QUAD_DEGREES,
    collapsed_quadrature,
    triangle_quadrature,
)

CHUNK = 512
FIELD_DEGREE = 10  # quadrature degree of loads and error norms


def _pick_degree(base, coeff):
    if coeff is None:
        need = base
    elif coeff.poly_degree is not None:
        need = base + coeff.poly_degree
    else:
        need = QUAD_DEGREES[-1]
    need = min(max(need, 2), QUAD_DEGREES[-1])
    for d in QUAD_DEGREES:
        if d >= need:
            return d
    return QUAD_DEGREES[-1]


def _chunks(space, rule):
    """Yield (sel, cw_base, xq) per triangle chunk.

    cw_base is the physical quadrature weight (rule weight times |det B|);
    multiply by coefficient values for weighted forms.
    """
    nt = space.mesh.nt
    for t0 in range(0, nt, CHUNK):
        sel = slice(t0, min(t0 + CHUNK, nt))
        xq = space.physical_points(rule.points, sel)
        cw = np.abs(space.detB[sel])[:, None] * rule.weights[None, :]
        yield sel, cw, xq


def _coeff_weights(coeff, cw, xq):
    if coeff is None:
        return cw
    return cw * require_finite(coeff(xq[..., 0], xq[..., 1]))


def _divsigma_fields(tab, lam, mu):
    """Components of div sigma for basis fields e_c v: two 2-vectors."""
    hxx, hxy, hyy = tab["hxx"], tab["hxy"], tab["hyy"]
    d1 = ((lam + 2 * mu) * hxx + mu * hyy, (lam + mu) * hxy)
    d2 = ((lam + mu) * hxy, mu * hxx + (lam + 2 * mu) * hyy)
    return d1, d2


def _graddiv_fields(tab):
    hxx, hxy, hyy = tab["hxx"], tab["hxy"], tab["hyy"]
    return (hxx, hxy), (hxy, hyy)


_UPPER = ((0, 0), (0, 1), (1, 1))
_ALL = ((0, 0), (0, 1), (1, 0), (1, 1))


def _dot_terms(left, right, blocks):
    """Block (a, b) of sum_k c left[a][k] right[b][k] for two-vector fields."""
    return {(a, b): [(1, f, g) for f, g in zip(left[a], right[b])]
            for a, b in blocks}


def _form(space, coeff, base_degree, terms):
    """The one form kernel: block (a, b) gets sum over its terms (s, f, g)
    of s int c f_i g_j, with f and g tabulated fields of ``terms(tab)``.

    A form listing only block (0, 0) is scalar and repeated on both
    components; one listing (0, 1) but not (1, 0) is symmetric, and its
    (1, 0) block is the transpose of (0, 1).  A block that overflows, for
    a finite but huge coefficient, is refused.
    """
    coeff = None if coeff is None else as_coefficient(coeff)
    deg = _pick_degree(base_degree, coeff)
    nt, nloc = space.mesh.nt, space.nloc
    blocks = defaultdict(lambda: np.zeros((nt, nloc, nloc)))
    rule = triangle_quadrature(deg)
    for sel, cw, xq in _chunks(space, rule):
        tab = space.tabulate(rule.points, sel)
        w = _coeff_weights(coeff, cw, xq)
        for ab, parts in terms(tab).items():
            acc = blocks[ab][sel]
            for s, f, g in parts:
                acc += s * np.einsum("tq,tqi,tqj->tij", w, f, g,
                                     optimize=True)
    for b in blocks.values():
        require_finite(b, "assembled form")
    if (0, 1) in blocks and (1, 0) not in blocks:
        blocks[1, 0] = blocks[0, 1].transpose(0, 2, 1)
    blocks.setdefault((1, 1), blocks[0, 0])
    return _component_csr(blocks, nt, nloc)


def _component_csr(blocks, nt, nloc):
    """The 2 x 2 component block matrix of per-triangle blocks, written
    straight into CSR.  Row c N + t nloc + i (N = nt nloc) holds row i of
    triangle t's block (c, b) at columns b N + t nloc + j, for each
    component b that block row c lists, in increasing column order; a
    scalar form lists only (c, c).  Every block entry is stored, zeros
    included."""
    comps = [[b for b in range(2) if (a, b) in blocks] for a in range(2)]
    data = np.stack([np.stack([blocks[a, b] for b in comps[a]], axis=2)
                     for a in range(2)])  # (2, nt, nloc, nb, nloc)
    n, nb = nt * nloc, len(comps[0])
    index = np.int32 if data.size < 2**31 else np.int64
    local = np.arange(n, dtype=index).reshape(nt, 1, 1, nloc)
    cols = np.array(comps, dtype=index).reshape(2, 1, 1, nb, 1) * n
    indices = np.broadcast_to(local + cols, data.shape)
    indptr = np.arange(0, data.size + 1, nb * nloc, dtype=index)
    return sparse.csr_matrix(
        (data.reshape(-1), indices.reshape(-1), indptr),
        shape=(2 * n, 2 * n),
    )


def mass_matrix(space, coeff=None):
    """(c u, v); block-diagonal in the components."""
    return _form(space, coeff, 2 * space.degree,
                 lambda tab: {(0, 0): [(1, tab["v"], tab["v"])]})


def hessian_matrix(space):
    """(D2 u, D2 v) with the mixed derivative counted twice."""
    def terms(tab):
        hxx, hxy, hyy = tab["hxx"], tab["hxy"], tab["hyy"]
        return {(0, 0): [(1, hxx, hxx), (2, hxy, hxy), (1, hyy, hyy)]}
    return _form(space, None, 2 * (space.degree - 2), terms)


def bielastic_matrix(space, coeff, lam, mu):
    """(c div sigma(u), div sigma(v)) on the two-component space."""
    def terms(tab):
        d = _divsigma_fields(tab, lam, mu)
        return _dot_terms(d, d, _UPPER)
    return _form(space, coeff, 2 * (space.degree - 2), terms)


def graddiv_matrix(space):
    """(grad div u, grad div v)."""
    def terms(tab):
        gd = _graddiv_fields(tab)
        return _dot_terms(gd, gd, _UPPER)
    return _form(space, None, 2 * (space.degree - 2), terms)


def elastic_matrix(space, lam, mu):
    """(sigma(u), grad v) = int 2 mu eps(u):eps(v) + lam div u div v."""
    def terms(tab):
        gx, gy = tab["gx"], tab["gy"]
        return {
            (0, 0): [(2 * mu + lam, gx, gx), (mu, gy, gy)],
            (0, 1): [(mu, gy, gx), (lam, gx, gy)],
            (1, 1): [(2 * mu + lam, gy, gy), (mu, gx, gx)],
        }
    return _form(space, None, 2 * (space.degree - 1), terms)


def mixed_divsigma_matrix(space, coeff, lam, mu):
    """F[i, j] = (c phi_j, div sigma(phi_i)): value against the operator."""
    def terms(tab):
        d = _divsigma_fields(tab, lam, mu)
        return {(a, b): [(1, d[a][b], tab["v"])] for a, b in _ALL}
    return _form(space, coeff, 2 * space.degree - 2, terms)


def load_vector(space, f1, f2):
    """Broken load (f, v) for a two-component right-hand side: per chunk
    and component, one product of the weighted load values with the
    reference value table (values need no push-forward)."""
    nt, nloc = space.mesh.nt, space.nloc
    rule = collapsed_quadrature(FIELD_DEGREE)
    ref_v = space.ref_tables(rule.points)["v"]
    out = np.zeros((2, nt, nloc))
    for sel, cw, xq in _chunks(space, rule):
        x, y = xq[..., 0], xq[..., 1]
        for c, f in enumerate((f1, f2)):
            fv = require_finite(np.asarray(f(x, y), dtype=float), "load")
            out[c, sel] = (cw * fv) @ ref_v
    return out.reshape(-1)


def error_norms(space, u, exact):
    """Broken L2 / H1-semi / H2-semi errors of a two-component field.

    u holds broken coefficients (component-major).  exact is one callable:
    ``exact(x, y)`` maps the keys v, gx, gy, hxx, hxy, hyy to the pair of
    component values, and may omit the keys of norms not wanted.  It is
    called once per chunk, and only the fields of the keys it returns are
    contracted with the reference tables and pushed forward
    (``BrokenSpace.field``).  A norm that is not finite is refused.
    """
    nt, nloc = space.mesh.nt, space.nloc
    uc = u.reshape(2, nt, nloc)
    rule = collapsed_quadrature(FIELD_DEGREE)
    acc = {"l2": 0.0, "h1": 0.0, "h2": 0.0}
    contrib = {
        "l2": (("v", 1.0),),
        "h1": (("gx", 1.0), ("gy", 1.0)),
        "h2": (("hxx", 1.0), ("hxy", 2.0), ("hyy", 1.0)),
    }
    for sel, cw, xq in _chunks(space, rule):
        want = exact(xq[..., 0], xq[..., 1])
        fields = [space.field(uc[c], rule.points, sel) for c in range(2)]
        for norm, parts in contrib.items():
            for key, factor in parts:
                if key not in want:
                    continue
                for c in range(2):
                    diff = fields[c][key] - want[key][c]
                    acc[norm] += factor * float(np.sum(cw * diff * diff))
    norms = {k: np.sqrt(v) for k, v in acc.items()}
    require_finite(list(norms.values()), "error norm")
    return norms
