"""Bilinear forms, load vectors, and error norms over broken spaces.

Every matrix is block-diagonal per triangle over broken coefficients; vector
fields use a component-major layout, so a two-component form is the 2x2
block matrix of scalar-layout pieces.  Quadrature degree is chosen from the
polynomial degree of the integrand when the coefficient is polynomial and
capped at the finest available rule otherwise (rational or trigonometric
coefficients are integrated at degree 12; the consistency error this leaves
is far below the discretization error at the mesh sizes involved).

The stress operators use the Lame parameters lam and mu with
sigma(u) = 2 mu eps(u) + lam tr(eps(u)) I, and the divergence identity
div sigma(u) = mu Lap(u) + (lam + mu) grad(div u)
            = (lam + 2 mu) grad(div u) - mu curl(rot u).
"""

import numpy as np
import scipy.sparse as sparse

from .coefficients import as_coefficient, require_finite
from .polybasis import QUAD_DEGREES, triangle_quadrature

CHUNK = 512


def _pick_degree(base, coeff, override=None):
    if override is not None:
        need = override
    elif coeff is None:
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


def _chunks(space, degree):
    """Yield (sel, tab, cw_base, xq) per triangle chunk.

    cw_base is the physical quadrature weight (rule weight times |det B|);
    multiply by coefficient values for weighted forms.
    """
    rule = triangle_quadrature(degree)
    nt = space.mesh.nt
    for t0 in range(0, nt, CHUNK):
        sel = slice(t0, min(t0 + CHUNK, nt))
        tab = space.tabulate(rule.points, sel)
        xq = space.physical_points(rule.points, sel)
        cw = np.abs(space.detB[sel])[:, None] * rule.weights[None, :]
        yield sel, tab, cw, xq


def _coeff_weights(coeff, cw, xq, positive=False):
    if coeff is None:
        return cw
    values = require_finite(coeff(xq[..., 0], xq[..., 1]))
    if positive:
        vmin = float(np.min(values))
        if vmin <= 0.0:
            raise ValueError(
                f"coefficient must be positive on the domain; "
                f"min value {vmin:.3e} at a quadrature point"
            )
    return cw * values


def _block_diag(space, blocks):
    """(nt, nloc, nloc) dense blocks into a block-diagonal CSR matrix."""
    nt, nloc = blocks.shape[0], blocks.shape[1]
    mat = sparse.bsr_matrix(
        (blocks, np.arange(nt), np.arange(nt + 1)),
        shape=(nt * nloc, nt * nloc),
    )
    return mat.tocsr()


def _divsigma_fields(tab, lam, mu):
    """Components of div sigma for basis fields e_c v: two 2-vectors."""
    hxx, hxy, hyy = tab["hxx"], tab["hxy"], tab["hyy"]
    d1 = ((lam + 2 * mu) * hxx + mu * hyy, (lam + mu) * hxy)
    d2 = ((lam + mu) * hxy, mu * hxx + (lam + 2 * mu) * hyy)
    return d1, d2


def _graddiv_fields(tab):
    hxx, hxy, hyy = tab["hxx"], tab["hxy"], tab["hyy"]
    return (hxx, hxy), (hxy, hyy)


def _curlrot_fields(tab):
    hxx, hxy, hyy = tab["hxx"], tab["hxy"], tab["hyy"]
    return (-hyy, hxy), (hxy, -hxx)


def _pair_form(space, coeff, fields_for, base_degree, degree=None,
               positive=False):
    """Generic 2x2 component form: entries sum_k int c A_k(u) A_k(v)."""
    coeff = None if coeff is None else as_coefficient(coeff)
    deg = _pick_degree(base_degree, coeff, degree)
    nt, nloc = space.mesh.nt, space.nloc
    blocks = [[np.zeros((nt, nloc, nloc)) for _ in range(2)]
              for _ in range(2)]
    for sel, tab, cw, xq in _chunks(space, deg):
        w = _coeff_weights(coeff, cw, xq, positive)
        fields = fields_for(tab)
        for a in range(2):
            for b in range(a, 2):
                acc = None
                for fa, fb in zip(fields[a], fields[b]):
                    term = np.einsum("tq,tqi,tqj->tij", w, fa, fb,
                                     optimize=True)
                    acc = term if acc is None else acc + term
                blocks[a][b][sel] += acc
    blocks[1][0] = blocks[0][1].transpose(0, 2, 1)
    return sparse.bmat(
        [[_block_diag(space, blocks[a][b]) for b in range(2)]
         for a in range(2)],
        format="csr",
    )


def mass_matrix(space, coeff=None, degree=None, components=2,
                positive=False):
    """(c u, v); block-diagonal in the components."""
    coeff = None if coeff is None else as_coefficient(coeff)
    deg = _pick_degree(2 * space.degree, coeff, degree)
    nt, nloc = space.mesh.nt, space.nloc
    blocks = np.zeros((nt, nloc, nloc))
    for sel, tab, cw, xq in _chunks(space, deg):
        w = _coeff_weights(coeff, cw, xq, positive)
        blocks[sel] = np.einsum("tq,tqi,tqj->tij", w, tab["v"], tab["v"],
                                optimize=True)
    scalar = _block_diag(space, blocks)
    if components == 1:
        return scalar
    return sparse.block_diag((scalar, scalar), format="csr")


def laplace_matrix(space, coeff=None, degree=None, components=2):
    """(c Lap u, Lap v) componentwise."""
    coeff = None if coeff is None else as_coefficient(coeff)
    deg = _pick_degree(2 * (space.degree - 2), coeff, degree)
    nt, nloc = space.mesh.nt, space.nloc
    blocks = np.zeros((nt, nloc, nloc))
    for sel, tab, cw, xq in _chunks(space, deg):
        w = _coeff_weights(coeff, cw, xq)
        lap = tab["hxx"] + tab["hyy"]
        blocks[sel] = np.einsum("tq,tqi,tqj->tij", w, lap, lap,
                                optimize=True)
    scalar = _block_diag(space, blocks)
    if components == 1:
        return scalar
    return sparse.block_diag((scalar, scalar), format="csr")


def hessian_matrix(space, coeff=None, degree=None, components=2):
    """(c D2 u, D2 v) with the mixed derivative counted twice."""
    coeff = None if coeff is None else as_coefficient(coeff)
    deg = _pick_degree(2 * (space.degree - 2), coeff, degree)
    nt, nloc = space.mesh.nt, space.nloc
    blocks = np.zeros((nt, nloc, nloc))
    for sel, tab, cw, xq in _chunks(space, deg):
        w = _coeff_weights(coeff, cw, xq)
        acc = np.einsum("tq,tqi,tqj->tij", w, tab["hxx"], tab["hxx"],
                        optimize=True)
        acc += 2 * np.einsum("tq,tqi,tqj->tij", w, tab["hxy"], tab["hxy"],
                             optimize=True)
        acc += np.einsum("tq,tqi,tqj->tij", w, tab["hyy"], tab["hyy"],
                         optimize=True)
        blocks[sel] = acc
    scalar = _block_diag(space, blocks)
    if components == 1:
        return scalar
    return sparse.block_diag((scalar, scalar), format="csr")


def bielastic_matrix(space, coeff, lam, mu, degree=None, positive=False):
    """(c div sigma(u), div sigma(v)) on the two-component space."""
    return _pair_form(
        space, coeff, lambda tab: _divsigma_fields(tab, lam, mu),
        2 * (space.degree - 2), degree, positive,
    )


def graddiv_matrix(space, coeff=None, degree=None):
    """(c grad div u, grad div v)."""
    return _pair_form(space, coeff, _graddiv_fields,
                      2 * (space.degree - 2), degree)


def curlrot_matrix(space, coeff=None, degree=None):
    """(c curl rot u, curl rot v)."""
    return _pair_form(space, coeff, _curlrot_fields,
                      2 * (space.degree - 2), degree)


def elastic_matrix(space, lam, mu, coeff=None, degree=None):
    """(c sigma(u), grad v) = int c [2 mu eps(u):eps(v) + lam div u div v]."""
    coeff = None if coeff is None else as_coefficient(coeff)
    deg = _pick_degree(2 * (space.degree - 1), coeff, degree)
    nt, nloc = space.mesh.nt, space.nloc
    b11 = np.zeros((nt, nloc, nloc))
    b12 = np.zeros((nt, nloc, nloc))
    b22 = np.zeros((nt, nloc, nloc))
    for sel, tab, cw, xq in _chunks(space, deg):
        w = _coeff_weights(coeff, cw, xq)
        gx, gy = tab["gx"], tab["gy"]

        def pair(wa, fa, fb):
            return wa * np.einsum("tq,tqi,tqj->tij", w, fa, fb,
                                  optimize=True)

        b11[sel] = pair(2 * mu + lam, gx, gx) + pair(mu, gy, gy)
        b22[sel] = pair(2 * mu + lam, gy, gy) + pair(mu, gx, gx)
        b12[sel] = pair(mu, gy, gx) + pair(lam, gx, gy)
    B11 = _block_diag(space, b11)
    B22 = _block_diag(space, b22)
    B12 = _block_diag(space, b12)
    B21 = _block_diag(space, b12.transpose(0, 2, 1))
    return sparse.bmat([[B11, B12], [B21, B22]], format="csr")


def mixed_divsigma_matrix(space, coeff, lam, mu, degree=None,
                          positive=False):
    """F[i, j] = (c phi_j, div sigma(phi_i)): value against the operator."""
    coeff = None if coeff is None else as_coefficient(coeff)
    deg = _pick_degree(2 * space.degree - 2, coeff, degree)
    nt, nloc = space.mesh.nt, space.nloc
    blocks = [[np.zeros((nt, nloc, nloc)) for _ in range(2)]
              for _ in range(2)]
    for sel, tab, cw, xq in _chunks(space, deg):
        w = _coeff_weights(coeff, cw, xq, positive)
        dfields = _divsigma_fields(tab, lam, mu)
        for a in range(2):
            for b in range(2):
                blocks[a][b][sel] = np.einsum(
                    "tq,tqi,tqj->tij", w, dfields[a][b], tab["v"],
                    optimize=True,
                )
    return sparse.bmat(
        [[_block_diag(space, blocks[a][b]) for b in range(2)]
         for a in range(2)],
        format="csr",
    )


def mixed_graddiv_curlrot_matrix(space, coeff=None, degree=None):
    """M[i, j] = (c grad div phi_j, curl rot phi_i)."""
    coeff = None if coeff is None else as_coefficient(coeff)
    deg = _pick_degree(2 * (space.degree - 2), coeff, degree)
    nt, nloc = space.mesh.nt, space.nloc
    blocks = [[np.zeros((nt, nloc, nloc)) for _ in range(2)]
              for _ in range(2)]
    for sel, tab, cw, xq in _chunks(space, deg):
        w = _coeff_weights(coeff, cw, xq)
        cr = _curlrot_fields(tab)
        gd = _graddiv_fields(tab)
        for a in range(2):
            for b in range(2):
                acc = None
                for fa, fb in zip(cr[a], gd[b]):
                    term = np.einsum("tq,tqi,tqj->tij", w, fa, fb,
                                     optimize=True)
                    acc = term if acc is None else acc + term
                blocks[a][b][sel] = acc
    return sparse.bmat(
        [[_block_diag(space, blocks[a][b]) for b in range(2)]
         for a in range(2)],
        format="csr",
    )


def load_vector(space, f1, f2, degree=10):
    """Broken load (f, v) for a two-component right-hand side."""
    deg = degree
    nt, nloc = space.mesh.nt, space.nloc
    out = np.zeros((2, nt, nloc))
    for sel, tab, cw, xq in _chunks(space, deg):
        x, y = xq[..., 0], xq[..., 1]
        for c, f in enumerate((f1, f2)):
            fv = require_finite(np.asarray(f(x, y), dtype=float), "load")
            fv = np.broadcast_to(fv, x.shape)
            out[c, sel] = np.einsum("tq,tq,tqi->ti", cw, fv, tab["v"],
                                    optimize=True)
    return out.reshape(-1)


def error_norms(space, u, exact, degree=10):
    """Broken L2 / H1-semi / H2-semi errors of a two-component field.

    u holds broken coefficients (component-major).  exact maps the keys
    v, gx, gy, hxx, hxy, hyy to pairs of callables (one per component);
    keys may be omitted when the corresponding norm is not wanted.
    """
    nt, nloc = space.mesh.nt, space.nloc
    uc = u.reshape(2, nt, nloc)
    acc = {"l2": 0.0, "h1": 0.0, "h2": 0.0}
    contrib = {
        "l2": (("v", 1.0),),
        "h1": (("gx", 1.0), ("gy", 1.0)),
        "h2": (("hxx", 1.0), ("hxy", 2.0), ("hyy", 1.0)),
    }
    for sel, tab, cw, xq in _chunks(space, degree):
        x, y = xq[..., 0], xq[..., 1]
        for norm, parts in contrib.items():
            for key, factor in parts:
                if key not in exact:
                    continue
                for c in range(2):
                    approx = np.einsum("tqi,ti->tq", tab[key], uc[c][sel])
                    ex = np.broadcast_to(
                        np.asarray(exact[key][c](x, y), dtype=float), x.shape
                    )
                    diff = approx - ex
                    acc[norm] += factor * float(np.sum(cw * diff * diff))
    return {k: np.sqrt(v) for k, v in acc.items()}
