"""Linear algebra layer: one direct solve and one symmetric generalized
eigensolver, both on the kernel of a constraint matrix Psi, and the
quadratic-pencil companion solver.

A matrix K restricted to ker(Psi) is handled through the augmented KKT
system [[K + gamma Psi^T Psi, Psi^T], [Psi, 0]], whose solution is that
of the plain KKT system, since Psi x = 0.  The factored matrix also
carries -delta I in its zero block, which makes it symmetric
quasi-definite (Vanderbei 1995): it then factors stably with diagonal
pivots in a minimum-degree order, which fills in far less than the
pivoting an indefinite KKT matrix needs.  Iterative refinement against
the unregularized system removes the regularization.  A Psi with no
rows is the unconstrained case: the kernel is the whole space, the
projector onto it is the identity, and the factor is that of K alone.

A KKT solve refines, up to ``REFINE_STEPS`` steps, only while its
relative residual stays above ``REFINE_TOL``.

The solve and the eigensolver take Psi as a ``KernelProjector``, which
holds everything that depends on Psi alone; their callers build it, so
one whose Psi is fixed builds it once for all its solves.  The
eigensolver accepts a start vector in ker(Psi), so a sweep over a
parameter can start each Lanczos run from the eigenvectors of the
previous one.  When ARPACK's Lanczos basis would be at least as large as
the kernel, it reduces the pencil densely onto a kernel basis instead,
which is exact and cheaper there; ``DENSE_SYM_CAP`` bounds that basis.

The quadratic solver works on dense copies of its blocks, made only
once the companion order has passed its cap.  For the few eigenvalues of
smallest modulus it runs shift-invert Arnoldi at zero on the companion
linearization, which needs one LU of K; this is valid for the
transmission pencil, where K = D is positive definite on the kernel and
M = Mq is positive definite, so no eigenvalue is zero or infinite.  The
dense QZ of the whole companion pencil stays for all eigenvalues, for
pencils too small for ARPACK, and as the fallback.
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


def _sym_result(A, B, vals, vecs, method, kernel):
    """Sort the eigenpairs ascending, B-normalize (a dense solve already
    is, up to roundoff) and orient them, and check their residuals,
    projected by ``kernel``."""
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    bx = B @ vecs
    scale = np.sqrt(np.einsum("ij,ij->j", vecs, bx))
    vecs = vecs / scale
    turn = _orientation(vecs)
    vecs, bx = vecs * turn, bx * (turn / scale)
    r = kernel(A @ vecs - bx * vals)
    residuals = np.linalg.norm(r, axis=0) / np.linalg.norm(vecs, axis=0)
    result = EigResult(vals, vecs, residuals, method)
    na, nb = norm1(A), norm1(B)
    return _check_residuals(result, lambda v: na + abs(v) * nb)


class KernelProjector:
    """Everything that depends on Psi alone, built once and shared by every
    solve and eigensolve on ker(Psi).

    Called on x, it applies the orthogonal projector onto ker(Psi) through
    the normal equations, with a factor of Psi Psi^T.  For the KKT
    matrices of ``ConstrainedOperator`` it holds ``ptp`` = Psi^T Psi and
    its 1-norm, |Psi|_1 and the constraint ``border`` [[0, Psi^T],
    [Psi, 0]], and ``factor`` keeps the minimum-degree order of the last
    KKT pattern it factored.  ``basis``, a dense orthonormal basis of
    ker(Psi), is computed on first use.
    """

    def __init__(self, psi):
        self.psi = sparse.csr_matrix(psi)
        self.lu = spla.splu((self.psi @ self.psi.T).tocsc())
        self.ptp = (self.psi.T @ self.psi).tocsr()
        self.ptp_norm = norm1(self.ptp)
        self.psi_norm = norm1(self.psi)
        self.border = sparse.bmat(
            [[None, self.psi.T], [self.psi, None]], format="csr"
        )
        self._basis = None
        self._order = self._permuted = None

    def __call__(self, x):
        return x - self.psi.T @ self.lu.solve(self.psi @ x)

    @property
    def basis(self):
        if self._basis is None:
            self._basis = kernel_basis(self.psi)
        return self._basis

    def factor(self, reg):
        """LU of the quasi-definite CSR matrix ``reg`` with diagonal
        pivots in a minimum-degree order on A + A^T.

        SuperLU computes that order inside the factorization, and it
        depends on the pattern alone.  So the pattern last factored and
        its order are kept, and a matrix of the same pattern, which the
        secant scan makes at every tau != 0 of a level, is factored as
        P reg P^T in its natural order: the same fill, without the
        ordering.  The first such matrix also fixes where each entry of
        reg goes in P reg P^T, so later ones are permuted by one gather.
        """
        kept = self._order
        if (kept is not None and np.array_equal(kept[0], reg.indptr)
                and np.array_equal(kept[1], reg.indices)):
            q = kept[2]
            if self._permuted is None:
                self._permuted = _permuted_pattern(reg.indptr, reg.indices, q)
            gather, indptr, indices = self._permuted
            PA = sparse.csc_matrix((reg.data[gather], indices, indptr),
                                   shape=reg.shape)
            return _OrderedFactor(_splu_diagonal(PA, "NATURAL"), q)
        indptr, indices = reg.indptr, reg.indices
        reg = reg.tocsc()
        lu = _splu_diagonal(reg, "MMD_AT_PLUS_A")
        # perm_c is a view that would keep the whole factor alive
        self._order = (indptr, indices, lu.perm_c.copy())
        self._permuted = None
        return lu


def _splu_diagonal(A, permc_spec):
    return spla.splu(A, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def _permuted_pattern(indptr, indices, q):
    """Where the entries of a CSR matrix A with this pattern go in the CSC
    matrix P A P^T, with (P x)[q] = x: returns ``gather``, with
    (P A P^T).data = A.data[gather], and that matrix's indptr and
    indices."""
    n = indptr.size - 1
    rows = q[np.repeat(np.arange(n), np.diff(indptr))]
    cols = q[indices]
    gather = np.lexsort((rows, cols))
    ptr = np.zeros_like(indptr)
    np.cumsum(np.bincount(cols, minlength=n), out=ptr[1:])
    return gather, ptr, rows[gather]


class _OrderedFactor:
    """A factor ``lu`` of P A P^T, with (P x)[q] = x, that serves as a
    factor of A: ``solve`` and ``nnz`` are A's."""

    def __init__(self, lu, q):
        self.lu, self.nnz = lu, lu.nnz
        self.q, self.p = q, np.argsort(q)

    def solve(self, b):
        return self.lu.solve(b[self.p])[self.q]


def _bordered(A, border):
    """A padded with zero rows and columns to the order of ``border``,
    plus ``border``."""
    A = sparse.csr_matrix(A)
    pad = np.full(border.shape[0] - A.shape[0], A.indptr[-1])
    A = sparse.csr_matrix(
        (A.data, A.indices, np.concatenate([A.indptr, pad])),
        shape=border.shape,
    )
    return A + border


class ConstrainedOperator:
    """Factorization of the regularized, augmented KKT matrix of K on
    ker(Psi); solves K-systems on ker(Psi).  ``kernel`` is the
    ``KernelProjector`` of Psi, which supplies every part of the matrix
    that depends on Psi alone.

    With gamma = |K|_1 / |Psi^T Psi|_1 and Kg = K + gamma Psi^T Psi,
    ``kkt`` is [[Kg, Psi^T], [Psi, 0]], which has the solution of the
    plain KKT system, and ``lu`` factors [[Kg, Psi^T], [Psi, -delta I]]
    with delta = 3e-8 |Psi|_1^2 / |K|_1.  Kg is positive definite on the
    whole space, where K is so only on the kernel, and -delta I is
    negative definite, so that matrix is symmetric quasi-definite: it
    factors stably in a minimum-degree order on A + A^T with diagonal
    pivots.  delta is small enough that refinement against ``kkt``
    removes it in a few steps.  The order is computed once per KKT
    pattern (``KernelProjector.factor``).

    The constant 3e-8 was measured.  Below it, the rounding that a
    smaller delta lets grow in the factor dominates the first solve's
    error; above it, the regularization itself does, and 1e-5 helps the
    source solve but costs the secant scan.  Triangular solves of one
    ``tep-secant`` study (example 6, levels 1-3), and the relative KKT
    residuals of the source solve at example 1 level 4, after the first
    solve and after each refinement step:

    ========  ============  ===================================
    constant  tri. solves   example 1 level 4 residuals
    ========  ============  ===================================
    1e-9      25,647        fails the 1e-10 check of the solve
    1e-8      21,905        8.5e-4, 8.7e-7, 1.1e-9, 3.0e-11
    3e-8      18,555        3.3e-4, 4.2e-7, 7.1e-10, 3.0e-11
    1e-7      19,172        9.2e-5, 8.1e-9, 3.1e-11, 3.1e-11
    1e-5      33,710        8.1e-7, 1.6e-10, 5.7e-11, 3.5e-11
    ========  ============  ===================================

    With no rows (m = 0) gamma is 0, ``kkt`` is K and ``lu`` factors K
    itself, which must then be positive definite.

    ``solve`` takes up to ``REFINE_STEPS`` steps of iterative refinement,
    each only while the KKT residual exceeds ``REFINE_TOL`` times the
    right-hand side.  A solve under that bound already has a backward error
    below 1e-13, and a further step would only lower it (Higham 1997), so
    it is skipped.  The bound sits three orders below both users of the solve:
    ARPACK's relative tolerance ``EIG_TOL`` = 1e-10, which an operator
    applied to 1e-13 does not limit, and the residual check of
    ``solve_sym_constrained``, at most 1e-10.
    """

    def __init__(self, K, kernel):
        self.n = K.shape[0]
        self.m = kernel.psi.shape[0]
        nk = norm1(K)
        gamma = nk / kernel.ptp_norm if self.m else 0.0
        delta = 3e-8 * kernel.psi_norm ** 2 / nk
        self.kkt = _bordered(K + gamma * kernel.ptp, kernel.border)
        shift = sparse.diags(np.repeat([0.0, -delta], [self.n, self.m]))
        self.lu = kernel.factor(self.kkt + shift)

    def solve(self, b):
        rhs = np.zeros(self.n + self.m)
        rhs[: self.n] = b
        z = self.lu.solve(rhs)
        bound = REFINE_TOL * np.linalg.norm(rhs)
        for _ in range(REFINE_STEPS):
            r = rhs - self.kkt @ z
            if np.linalg.norm(r) <= bound:
                break
            z = z + self.lu.solve(r)
        return z[: self.n]


def solve_sym_constrained(K, kernel, b, tol=1e-10):
    """Minimize 1/2 x'Kx - b'x over ker(Psi), with ``kernel`` the
    ``KernelProjector`` P of Psi; returns the primal part.  Raises when
    the projected residual P (b - K x) exceeds ``tol`` times P b."""
    x = ConstrainedOperator(K, kernel).solve(b)
    r = kernel(b - K @ x)
    bnorm = np.linalg.norm(kernel(b))
    if bnorm > 0 and np.linalg.norm(r) > tol * bnorm:
        raise RuntimeError(
            "constrained solve residual "
            f"{np.linalg.norm(r) / bnorm:.3e} exceeds {tol:g}"
        )
    return x


def kernel_basis(psi):
    """Dense orthonormal basis of ker(Psi) for a full-row-rank Psi.

    Refuses kernels larger than ``DENSE_SYM_CAP``, beyond which the dense
    SVD and the reduced pencil no longer fit the dense path.
    """
    kernel_dim = psi.shape[1] - psi.shape[0]
    if kernel_dim > DENSE_SYM_CAP:
        raise RuntimeError(
            f"constraint kernel dimension {kernel_dim} exceeds the dense "
            f"cap {DENSE_SYM_CAP}"
        )
    return dla.null_space(psi.toarray() if sparse.issparse(psi) else psi)


def _eig_constrained_dense(KA, KB, kernel, k):
    """Dense reduction of the constrained pencil onto the kernel basis of
    ``kernel``, a ``KernelProjector``; k is clamped to the kernel
    dimension."""
    Z = kernel.basis
    if Z.shape[1] == 0:
        raise RuntimeError("constraint matrix has a trivial kernel")
    k = min(k, Z.shape[1])
    Ar = Z.T @ (KA @ Z)
    Br = Z.T @ (KB @ Z)
    vals, y = dla.eigh(Ar, Br, subset_by_index=[0, k - 1])
    return vals, Z @ y


def eig_sym_constrained(KA, KB, kernel, k, v0=None):
    """k smallest eigenpairs of KA x = lambda KB x restricted to ker(Psi),
    with ``kernel`` the ``KernelProjector`` of Psi.

    Shift-invert about zero through the KKT factorization; KA must be
    positive definite on the kernel.  ARPACK keeps ncv = min(n, max(2k + 1,
    20)) Lanczos vectors (scipy's default, passed explicitly).  When ncv
    reaches the kernel dimension, the Lanczos basis would span the whole
    kernel, so the problem is reduced densely onto an explicit null-space
    basis instead, and k is clamped to the kernel dimension.  That
    reduction is exact, needs no KKT factorization, and works on at most
    ncv kernel columns, so it is also cheaper than the Lanczos run it
    replaces.  The method is ``kkt-arpack`` or ``kkt-dense``, and
    ``arpack`` or ``dense`` when Psi has no rows and the kernel is the
    whole space.

    ``v0`` starts the Lanczos run; it must lie in ker(Psi), for example
    the sum of the eigenvectors of a nearby pencil, so a sweep converges
    in fewer KKT solves.  Without it, or when it is zero, the run starts
    from the KKT solve of KB times the ones vector.  Residuals are
    measured after projecting out the constraint range with ``kernel``.
    """
    n = KA.shape[0]
    m = kernel.psi.shape[0]
    prefix = "kkt-" if m else ""
    ncv = min(n, max(2 * k + 1, 20))
    if ncv >= n - m:
        vals, vecs = _eig_constrained_dense(KA, KB, kernel, k)
        method = prefix + "dense"
    else:
        op = ConstrainedOperator(KA, kernel)
        opinv = spla.LinearOperator((n, n), matvec=op.solve, dtype=float)
        nv0 = 0.0 if v0 is None else np.linalg.norm(v0)
        if nv0 == 0:
            v0 = op.solve(KB @ np.ones(n))
            nv0 = np.linalg.norm(v0)
            if nv0 == 0:
                raise RuntimeError("constraint kernel start vector vanished")
        try:
            vals, vecs = spla.eigsh(
                KA, k=k, M=KB, sigma=0.0, OPinv=opinv, v0=v0 / nv0,
                ncv=ncv, tol=EIG_TOL, maxiter=EIG_MAXITER,
            )
            method = prefix + "arpack"
        except spla.ArpackError:
            vals, vecs = _eig_constrained_dense(KA, KB, kernel, k)
            method = prefix + "dense"
    return _sym_result(KA, KB, vals, vecs, method, kernel)


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
    kernel; M = Mq is positive definite too, so the pencil has no
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
