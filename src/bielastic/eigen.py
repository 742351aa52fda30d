"""Linear algebra layer: one direct solve and one symmetric generalized
eigensolver, and the quadratic-pencil companion solver.

Both elements work in an explicit sparse basis of their space, so every
matrix here is a reduced block with no constraint rows.  Every symmetric
positive definite K is factored by one call, with diagonal pivots in a
minimum-degree order.  The source solve refines its first solve against
K, up to ``REFINE_STEPS`` steps, only while its relative residual stays
above ``REFINE_TOL``; the eigensolver's operator is the bare pair of
triangular solves.  The eigensolver accepts a start vector, so a sweep
over a parameter can start each Lanczos run from the eigenvectors of the
previous one.  When ARPACK's Lanczos basis would span the whole space, a
dense ``eigh`` of the pencil replaces it; ``DENSE_SYM_CAP`` bounds that
order.

``ConstrainedOperator``, ``solve_sym_constrained`` and
``eig_sym_constrained`` keep the names of the KKT design they replaced,
which solved on the kernel of the cubic element's compatibility rows, and
``KernelProjector`` stays as a stub: the benchmark's tracer wraps them by
name, and ROADMAP item 7 renames them with it.

The quadratic solver works on dense copies of its blocks, made only
once the companion order has passed its cap.  For the few eigenvalues of
smallest modulus it runs shift-invert Arnoldi at zero on the companion
linearization, which needs one LU of K; this is valid for the
transmission pencil, where K = D and M = Mq are positive definite, so no
eigenvalue is zero or infinite.  The dense QZ of the whole companion
pencil stays for all eigenvalues, for pencils too small for ARPACK, and
as the fallback.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

DENSE_SYM_CAP = 3000
COMPANION_CAP = 6000
EIG_TOL = 1e-10
EIG_MAXITER = 500
RESIDUAL_FACTOR = 1e-8
REFINE_TOL = 1e-13
REFINE_STEPS = 3


@dataclass
class EigResult:
    """Eigenpairs sorted ascending (real) or by modulus (complex)."""

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    method: str


def norm1(A):
    """The 1-norm of A, its largest absolute column sum; 0 when A is empty.

    A sparse A is summed column by column from its canonical entries, so
    duplicate entries count once, as their sum.
    """
    if not sparse.issparse(A):
        return float(np.abs(A).sum(axis=0).max(initial=0.0))
    A = sparse.csr_matrix(A)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    sums = np.bincount(A.indices, np.abs(A.data), minlength=A.shape[1])
    return float(sums.max(initial=0.0))


def _orientation(vectors):
    """Unit factor per column that makes its largest-magnitude entry
    positive real: a deterministic orientation."""
    turn = np.ones(vectors.shape[1], dtype=vectors.dtype)
    for j in range(vectors.shape[1]):
        pivot = vectors[np.argmax(np.abs(vectors[:, j])), j]
        if np.iscomplexobj(vectors):
            if abs(pivot) > 0:
                turn[j] = abs(pivot) / pivot
        elif pivot < 0:
            turn[j] = -1.0
    return turn


def _check_residuals(result, scale_of):
    bounds = np.array([scale_of(v) for v in result.values])
    bad = result.residuals > RESIDUAL_FACTOR * bounds
    if np.any(bad):
        worst = float(np.max(result.residuals / bounds))
        raise RuntimeError(
            f"eigensolver residuals exceed tolerance "
            f"(worst {worst:.3e} of the 1e-8 bound); method "
            f"{result.method}, achieved {result.residuals[bad]}"
        )
    return result


def _sym_result(A, B, vals, vecs, method):
    """Sort the eigenpairs ascending, B-normalize (a dense solve already
    is, up to roundoff) and orient them, and check their residuals."""
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    bx = B @ vecs
    scale = np.sqrt(np.einsum("ij,ij->j", vecs, bx))
    vecs = vecs / scale
    turn = _orientation(vecs)
    vecs, bx = vecs * turn, bx * (turn / scale)
    r = A @ vecs - bx * vals
    residuals = np.linalg.norm(r, axis=0) / np.linalg.norm(vecs, axis=0)
    result = EigResult(vals, vecs, residuals, method)
    na, nb = norm1(A), norm1(B)
    return _check_residuals(result, lambda v: na + abs(v) * nb)


class KernelProjector:
    """A stub that nothing in the library constructs: its identity
    ``__call__`` remains from the design that projected onto the kernel
    of constraint rows, which an explicit basis makes the whole space.
    The benchmark's tracer (``bench/tracer.py``) wraps ``__init__`` and
    ``__call__`` by name, so the class goes with the tracer (ROADMAP
    item 7).
    """

    def __call__(self, x):
        """The projector onto the whole space: x itself."""
        return x


class ConstrainedOperator:
    """LU factor of a symmetric matrix K, positive definite for a source
    solve and a shift-invert eigensolve at zero, with diagonal pivots in a
    minimum-degree order on K + K^T; ``solve`` is one pair of triangular
    solves, the operator that ARPACK applies.  ``kkt`` is K and ``lu`` its
    factor.  The class and attribute names remain from the KKT system it
    once factored; the benchmark's tracer wraps ``__init__`` and ``solve``
    and reads ``kkt`` and ``lu.nnz`` by name (ROADMAP item 7 renames them).
    """

    def __init__(self, K):
        self.kkt = sparse.csr_matrix(K)
        self.lu = spla.splu(self.kkt.tocsc(), permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=0.0,
                            options=dict(SymmetricMode=True))

    def solve(self, b):
        return self.lu.solve(b)


def solve_sym_constrained(K, b, tol=1e-10):
    """Minimize 1/2 x'Kx - b'x for a symmetric positive definite K.

    The first solve is refined, up to ``REFINE_STEPS`` steps, only while
    the residual b - K x exceeds ``REFINE_TOL`` times b.  A solve under
    that bound already has a backward error below 1e-13, and a further
    step would only lower it (Higham 1997), so it is skipped.  Raises when
    the last residual exceeds ``tol`` times b.  The name remains from the
    constrained solve, since the benchmark's tracer wraps it by name.
    """
    op = ConstrainedOperator(K)
    x = op.solve(b)
    bnorm = np.linalg.norm(b)
    for step in range(REFINE_STEPS + 1):
        r = b - op.kkt @ x
        rnorm = np.linalg.norm(r)
        if rnorm <= REFINE_TOL * bnorm or step == REFINE_STEPS:
            break
        x = x + op.solve(r)
    if rnorm > tol * bnorm:
        raise RuntimeError(f"constrained solve residual {rnorm / bnorm:.3e} "
                           f"exceeds {tol:g}")
    return x


def _eig_dense(KA, KB, k):
    """The k smallest eigenpairs by a dense ``eigh`` of the pencil; k is
    clamped to its order, which ``DENSE_SYM_CAP`` bounds."""
    n = KA.shape[0]
    if n > DENSE_SYM_CAP:
        raise RuntimeError(f"pencil order {n} exceeds the dense cap "
                           f"{DENSE_SYM_CAP}")
    return dla.eigh(KA.toarray(), KB.toarray(),
                    subset_by_index=[0, min(k, n) - 1])


def eig_sym_constrained(KA, KB, k, v0=None):
    """k smallest eigenpairs of KA x = lambda KB x.  The name remains from
    the eigensolver on the kernel of constraint rows, since the
    benchmark's tracer wraps it by name.

    Shift-invert about zero through ``ConstrainedOperator``, one pair of
    triangular solves per application and no refinement: ARPACK's
    relative tolerance ``EIG_TOL`` = 1e-10 sits far above the backward
    error of the factor's solves; KA must be positive definite.  ARPACK
    keeps ncv = min(n, max(2k + 1, 20)) Lanczos vectors (scipy's default,
    passed explicitly).  When ncv reaches n, the Lanczos basis would span
    the whole space, so the pencil is solved by a dense ``eigh`` instead,
    and k is clamped to n; that is exact and cheaper than the Lanczos run
    it replaces.  The method is ``arpack`` or ``dense``.

    ``v0`` starts the Lanczos run, for example the sum of the eigenvectors
    of a nearby pencil, so a sweep converges in fewer solves.  Without it,
    or when it is zero, the run starts from the solve of KB times the ones
    vector.
    """
    n = KA.shape[0]
    ncv = min(n, max(2 * k + 1, 20))
    if ncv >= n:
        vals, vecs = _eig_dense(KA, KB, k)
        method = "dense"
    else:
        op = ConstrainedOperator(KA)
        opinv = spla.LinearOperator((n, n), matvec=op.solve, dtype=float)
        nv0 = 0.0 if v0 is None else np.linalg.norm(v0)
        if nv0 == 0:
            v0 = op.solve(KB @ np.ones(n))
            nv0 = np.linalg.norm(v0)
            if nv0 == 0:
                raise RuntimeError("eigensolver start vector vanished")
        try:
            vals, vecs = spla.eigsh(
                KA, k=k, M=KB, sigma=0.0, OPinv=opinv, v0=v0 / nv0,
                ncv=ncv, tol=EIG_TOL, maxiter=EIG_MAXITER,
            )
            method = "arpack"
        except spla.ArpackError:
            vals, vecs = _eig_dense(KA, KB, k)
            method = "dense"
    return _sym_result(KA, KB, vals, vecs, method)


def check_companion_size(n):
    """Refuse a pencil of order n whose companion exceeds the dense cap."""
    if 2 * n > COMPANION_CAP:
        raise ValueError(
            f"companion dimension {2 * n} exceeds the dense cap "
            f"{COMPANION_CAP}"
        )


def _companion_qz(K, C, M):
    """Every finite eigenpair of the companion pencil by dense QZ; the
    pencil vectors are the lower halves z[n:] of z = [tau x; x].

    LAPACK lists a complex pair at j, j + 1, positive imaginary part first,
    as alpha_j / beta_j and conj(alpha_j) / beta_{j+1} with betas that
    differ in the last bits, so the second member is set to the exact
    conjugate of the first; a sort by modulus then keeps the pair together.
    """
    n = K.shape[0]
    eye = np.eye(n)
    zero = np.zeros((n, n))
    Amat = np.block([[-C, -K], [eye, zero]])
    Bmat = np.block([[M, zero], [zero, eye]])
    vals, vecs = dla.eig(Amat, Bmat)
    upper = np.flatnonzero(vals.imag > 0)
    vals[upper + 1] = vals[upper].conj()
    finite = np.isfinite(vals) & (np.abs(vals) < 1e12)
    return vals[finite], vecs[n:, finite]


def _companion_arnoldi(K, C, M, nev):
    """At least the nev eigenpairs of smallest modulus, by shift-invert
    Arnoldi at zero on the companion pencil.

    T [x; y] = [-K^-1 (C x + M y); x] has the eigenvalues 1/tau with
    eigenvectors [x; tau x] / tau, so its largest-modulus eigenvalues
    give the smallest tau, and the upper half z[:n] is a pencil vector.

    One start vector finds one copy of a multiple eigenvalue, so each
    Arnoldi run works on T deflated by the invariant subspace Q found so
    far, (I - Q Q^T) T (I - Q Q^T), whose spectrum is the rest of T's.
    Its eigenvectors w extend Q, and Rayleigh-Ritz on Q gives the
    eigenpairs.  The runs stop when one finds nothing larger than the
    nev-th largest eigenvalue already held, so the first run is checked
    by a second one.  A singular K raises ``LinAlgWarning``, a failed run
    ``ArpackError``.
    """
    n = K.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", dla.LinAlgWarning)
        lu = dla.lu_factor(K)

    def apply(z):
        x = dla.lu_solve(lu, C @ z[:n] + M @ z[n:])
        return np.concatenate([-x, z[:n]])

    Q = np.zeros((2 * n, 0))
    deflate = lambda z: z - Q @ (Q.T @ z)
    T = spla.LinearOperator(
        (2 * n, 2 * n), matvec=lambda z: deflate(apply(deflate(np.ravel(z)))),
        dtype=float,
    )
    v0 = np.cos(np.arange(1, 2 * n + 1))
    cut = 0.0
    while True:
        ritz, w = spla.eigs(T, k=nev, which="LM", v0=deflate(v0),
                            tol=EIG_TOL, maxiter=EIG_MAXITER)
        w = w[:, np.abs(ritz) > cut]
        if w.shape[1] == 0:
            break
        Q = dla.orth(np.hstack([Q, w.real, w.imag]))
        mu, y = dla.eig(Q.T @ apply(Q))
        cut = np.sort(np.abs(mu))[-nev]
    return 1.0 / mu, (Q @ y)[:n]


def eig_quadratic(K, C, M, k=None):
    """The k eigenvalues of smallest modulus (all of them when k is None)
    of the pencil K + tau C + tau^2 M, by its companion linearization
    [[-C, -K], [I, 0]] z = tau [[M, 0], [0, I]] z.

    The blocks may be sparse; a pencil whose companion exceeds
    ``COMPANION_CAP`` is refused before any block is made dense.  With k
    given and small next to the companion order 2n, shift-invert
    Arnoldi at zero, with deflated reruns that recover every copy of a
    multiple eigenvalue, computes the k + 2 of smallest modulus from one
    dense LU of K (method ``companion-arnoldi``); the two extra values
    keep a conjugate pair at the cut whole.  Shifting at zero is valid
    for the transmission pencil, where K = D is positive definite on the
    space; M = Mq is positive definite too, so the pencil has no
    infinite eigenvalues.  The dense QZ of the whole companion pencil
    (method ``companion``) runs when k is None, when k + 2 is too close
    to 2n for ARPACK, and as the fallback when K is singular or ARPACK
    fails.

    Returns eigenvalues sorted by modulus, the negative-imaginary member
    of each conjugate pair first, the order reports print; infinite
    eigenvalues are dropped.
    """
    n = K.shape[0]
    check_companion_size(n)
    Kd = K.toarray() if sparse.issparse(K) else np.asarray(K, float)
    Cd = C.toarray() if sparse.issparse(C) else np.asarray(C, float)
    Md = M.toarray() if sparse.issparse(M) else np.asarray(M, float)
    method = "companion"
    if k is not None and 2 * (k + 2) + 1 < 2 * n:
        try:
            vals, x = _companion_arnoldi(Kd, Cd, Md, k + 2)
            method = "companion-arnoldi"
        except (dla.LinAlgWarning, spla.ArpackError):
            pass
    if method == "companion":
        vals, x = _companion_qz(Kd, Cd, Md)
    order = np.lexsort((vals.imag, np.abs(vals)))
    vals, x = vals[order], x[:, order]
    if k is not None:
        vals, x = vals[:k], x[:, :k]
    norms = np.linalg.norm(x, axis=0)
    norms[norms == 0] = 1.0
    x = x / norms
    x = x * _orientation(x)
    residuals = np.empty(vals.size)
    for j, tau in enumerate(vals):
        r = Kd @ x[:, j] + tau * (Cd @ x[:, j]) + tau**2 * (Md @ x[:, j])
        residuals[j] = np.linalg.norm(r) / np.linalg.norm(x[:, j])
    result = EigResult(vals, x, residuals, method)
    nk, nc, nm = norm1(Kd), norm1(Cd), norm1(Md)
    return _check_residuals(
        result, lambda v: nk + abs(v) * nc + abs(v) ** 2 * nm
    )
