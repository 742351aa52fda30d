"""Independent oracles that only the test suite uses.

* ``build_b3_constraints`` writes the conditions of the constrained cubic
  space as explicit rows over broken-P3 coefficients; its null space is
  the independent check of the entity reduction.
* ``kernel_basis`` is the dense orthonormal basis Z of ker(psi), the
  independent check of the local basis W that the library solves in.
* ``laplace_matrix``, ``curlrot_matrix`` and
  ``mixed_graddiv_curlrot_matrix`` assemble the forms of the identity
  div sigma(u) = mu Lap(u) + (lam + mu) grad(div u)
               = (lam + 2 mu) grad(div u) - mu curl(rot u)
  through the library's one form kernel.
* ``barycentric_moment`` and ``divsigma_eval`` are closed forms for the
  quadrature and the stress divergence.
* ``physical_tables``, ``error_norms_tables`` and ``load_vector_tables``
  are the per-basis table route to the error norms and the load vector:
  physical tables of every basis function, with gradients J^T g and
  Hessians J^T H J written as matrix products (J = B^-1), then contracted
  with the field.  They share no push-forward code with the library.
* ``exact_of`` turns a table of per-key pairs of callables into the one
  callable ``exact(x, y)`` that ``assembly.error_norms`` takes; the
  table itself is what ``error_norms_tables`` reads.
* ``sorted_complex`` lists complex eigenvalues in a rounded order, for
  comparing two eigensolvers whose copies of one value differ in the last
  bits.
"""

import math

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sparse

from bielastic.assembly import (
    _ALL,
    _UPPER,
    _dot_terms,
    _form,
    _graddiv_fields,
)
from bielastic.polybasis import triangle_quadrature
from bielastic.spaces import _edge_functional_tables


def kernel_basis(psi):
    """Dense orthonormal basis of ker(psi), by a dense SVD."""
    return dla.null_space(psi.toarray() if sparse.issparse(psi) else psi)


class ConstraintSystem:
    """Sparse linear constraints whose null space is the conforming space.

    The boundary rows (vertex values, edge value means, edge normal
    moments) are included, so the null space carries the zero boundary
    conditions.
    """

    def __init__(self, mesh, matrix, kinds):
        self.mesh = mesh
        self.matrix = matrix
        self.kinds = kinds

    @property
    def nrows(self):
        return self.matrix.shape[0]


def build_b3_constraints(mesh):
    """Explicit constraint rows over broken-P3 coefficients."""
    mean, mom0, mom1 = _edge_functional_tables(mesh)
    tri = mesh.triangles
    nloc = 10
    rows = []
    cols = []
    vals = []
    kinds = []

    def add_row(kind, entries):
        r = len(kinds)
        kinds.append(kind)
        for c, v in entries:
            rows.append(r)
            cols.append(c)
            vals.append(v)

    # vertex rows
    vert_tris = [[] for _ in range(mesh.nv)]
    for t in range(mesh.nt):
        for i in range(3):
            vert_tris[tri[t, i]].append((t, i))
    for v in range(mesh.nv):
        inc = vert_tris[v]
        if mesh.boundary_vertex[v]:
            for t, i in inc:
                add_row("vertex-bdry", [(t * nloc + i, 1.0)])
        else:
            t0, i0 = inc[0]
            for t, i in inc[1:]:
                add_row(
                    "vertex-int",
                    [(t * nloc + i, 1.0), (t0 * nloc + i0, -1.0)],
                )

    # edge rows
    def local_edge(t, e):
        return int(np.where(mesh.tri_edges[t] == e)[0][0])

    tables = {"mean": mean, "n0": mom0, "n1": mom1}
    for e in range(mesh.ne):
        tplus, tminus = mesh.edge_tris[e]
        kplus = local_edge(tplus, e)
        if tminus < 0:
            for name, kind in (
                ("mean", "bdry-mean"), ("n0", "bdry-n0"), ("n1", "bdry-n1")
            ):
                row = tables[name][tplus, kplus]
                add_row(
                    kind,
                    [(tplus * nloc + j, row[j]) for j in range(nloc)],
                )
        else:
            kminus = local_edge(tminus, e)
            for name, kind in (
                ("mean", "jump-mean"), ("n0", "jump-n0"), ("n1", "jump-n1")
            ):
                rp = tables[name][tplus, kplus]
                rm = tables[name][tminus, kminus]
                add_row(
                    kind,
                    [(tplus * nloc + j, rp[j]) for j in range(nloc)]
                    + [(tminus * nloc + j, -rm[j]) for j in range(nloc)],
                )

    matrix = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(kinds), mesh.nt * nloc)
    )
    return ConstraintSystem(mesh, matrix, np.array(kinds))


def _curlrot_fields(tab):
    hxx, hxy, hyy = tab["hxx"], tab["hxy"], tab["hyy"]
    return (-hyy, hxy), (hxy, -hxx)


def laplace_matrix(space, coeff=None):
    """(c Lap u, Lap v) componentwise."""
    def terms(tab):
        lap = tab["hxx"] + tab["hyy"]
        return {(0, 0): [(1, lap, lap)]}
    return _form(space, coeff, 2 * (space.degree - 2), terms)


def curlrot_matrix(space, coeff=None):
    """(c curl rot u, curl rot v)."""
    def terms(tab):
        cr = _curlrot_fields(tab)
        return _dot_terms(cr, cr, _UPPER)
    return _form(space, coeff, 2 * (space.degree - 2), terms)


def mixed_graddiv_curlrot_matrix(space, coeff=None):
    """M[i, j] = (c grad div phi_j, curl rot phi_i)."""
    def terms(tab):
        return _dot_terms(_curlrot_fields(tab), _graddiv_fields(tab), _ALL)
    return _form(space, coeff, 2 * (space.degree - 2), terms)


def barycentric_moment(a, b, c):
    """Integral of l1^a l2^b l3^c over the reference triangle (area 1/2)."""
    return (
        math.factorial(a) * math.factorial(b) * math.factorial(c)
        / math.factorial(a + b + c + 2)
    )


def divsigma_eval(hess1, hess2, lam, mu):
    """Divergence of the stress tensor from component Hessians.

    For u = (u1, u2) with Hessian triplets ``hess{1,2} = (hxx, hxy, hyy)``:

        div sigma(u) = mu * lap(u) + (lam + mu) * grad(div u)

    which componentwise is

        (1): (lam + 2 mu) u1_xx + mu u1_yy + (lam + mu) u2_xy
        (2): (lam + mu) u1_xy + mu u2_xx + (lam + 2 mu) u2_yy

    Arguments broadcast; returns a pair of arrays.
    """
    h1xx, h1xy, h1yy = hess1
    h2xx, h2xy, h2yy = hess2
    d1 = (lam + 2 * mu) * h1xx + mu * h1yy + (lam + mu) * h2xy
    d2 = (lam + mu) * h1xy + mu * h2xx + (lam + 2 * mu) * h2yy
    return d1, d2


def sorted_complex(values):
    """Ascending modulus rounded to 9 digits, then real part rounded, then
    imaginary part: the negative member of each conjugate pair first."""
    values = np.asarray(values)
    return values[np.lexsort((values.imag, np.round(values.real, 9),
                              np.round(np.abs(values), 9)))]


def physical_tables(space, ref_points):
    """Physical values/derivatives of every basis function on every
    triangle, shape (nt, npoints, nloc) per key."""
    ref = space.shapes.tabulate(ref_points)
    J = space.Binv
    grad = np.stack([ref["gx"], ref["gy"]], axis=-1)
    hess = np.stack([np.stack([ref["hxx"], ref["hxy"]], axis=-1),
                     np.stack([ref["hxy"], ref["hyy"]], axis=-1)], axis=-2)
    g = np.einsum("qia,tab->tqib", grad, J)
    h = np.einsum("tab,qiac,tcd->tqibd", J, hess, J)
    v = np.broadcast_to(ref["v"], (space.mesh.nt,) + ref["v"].shape)
    return {"v": v, "gx": g[..., 0], "gy": g[..., 1],
            "hxx": h[..., 0, 0], "hxy": h[..., 0, 1], "hyy": h[..., 1, 1]}


def _quadrature(space, degree):
    """Physical points (nt, npoints, 2) and weights (nt, npoints)."""
    rule = triangle_quadrature(degree)
    xq = space.p0[:, None, :] + np.einsum("tab,qb->tqa", space.B,
                                          rule.points)
    cw = np.abs(space.detB)[:, None] * rule.weights[None, :]
    return rule, xq, cw


def exact_of(table):
    """``exact(x, y)`` of a table mapping keys to pairs of callables."""
    return lambda x, y: {key: tuple(f(x, y) for f in pair)
                         for key, pair in table.items()}


def error_norms_tables(space, u, exact, degree=10):
    """``assembly.error_norms`` through per-basis physical tables."""
    rule, xq, cw = _quadrature(space, degree)
    tab = physical_tables(space, rule.points)
    uc = u.reshape(2, space.mesh.nt, space.nloc)
    x, y = xq[..., 0], xq[..., 1]
    contrib = {
        "l2": (("v", 1.0),),
        "h1": (("gx", 1.0), ("gy", 1.0)),
        "h2": (("hxx", 1.0), ("hxy", 2.0), ("hyy", 1.0)),
    }
    acc = {"l2": 0.0, "h1": 0.0, "h2": 0.0}
    for norm, parts in contrib.items():
        for key, factor in parts:
            if key not in exact:
                continue
            for c in range(2):
                approx = np.einsum("tqi,ti->tq", tab[key], uc[c])
                diff = approx - np.broadcast_to(exact[key][c](x, y), x.shape)
                acc[norm] += factor * float(np.sum(cw * diff * diff))
    return {k: math.sqrt(v) for k, v in acc.items()}


def load_vector_tables(space, f1, f2, degree=10):
    """``assembly.load_vector`` through the broadcast value table."""
    rule, xq, cw = _quadrature(space, degree)
    tab = physical_tables(space, rule.points)
    x, y = xq[..., 0], xq[..., 1]
    out = np.stack([
        np.einsum("tq,tq,tqi->ti", cw, np.broadcast_to(f(x, y), x.shape),
                  tab["v"])
        for f in (f1, f2)
    ])
    return out.reshape(-1)
