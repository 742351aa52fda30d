"""Linear algebra layer: one direct solve and one symmetric generalized
eigensolver, and the quadratic-pencil companion solver.

Both elements work in an explicit sparse basis of their space, so every
matrix here is a reduced block with no constraint rows.  Every symmetric
positive definite K is factored by one call, ``factor_spd``, with
diagonal pivots in a minimum-degree order, and applied as one pair of
triangular solves.  The source solve accepts its solution by its normwise
backward error, bounded by ``BACKWARD_ERROR_BOUND``.  The eigensolver
scales its pencil by powers of two near its norms, accepts a start
vector, so a sweep over a parameter can start each Lanczos run from the
eigenvectors of the previous one, and replaces ARPACK's Lanczos basis by a
dense ``eigh`` of the pencil when that basis would span the whole space;
``DENSE_SYM_CAP`` bounds that order.  Every eigensolve, symmetric or
quadratic, dense or Lanczos, returns through one acceptance check,
``_result``: each pair's residual ||sum_i lambda^i A_i x|| / ||x|| must
be at most ``RESIDUAL_FACTOR`` times sum_i |lambda|^i ||A_i||_1.  So the
pair's normwise backward error as an eigenpair of the matrix polynomial
(Tisseur, Linear Algebra Appl. 309, 2000), with 1-norms for the 2-norms
of the A_i, is at most ``RESIDUAL_FACTOR``, and a NaN fails the check.

The path follows from whether the caller reuses B.  A single eigensolve
runs generalized shift-invert Lanczos (ARPACK mode 3): about four
reverse-communication calls and three B products per solve.  A sweep that
solves against the same B many times passes an ``SpdRoot`` of it, a root
G G^T = B factored once, and each of its eigensolves runs either
standard Lanczos (mode 1) on G^T A^-1 G, one call, one solve and two G
products per step (the spectral transformation of Ericsson and Ruhe,
Math. Comp. 35, 1980), or, at or below ``ROOT_DENSE_ORDER``, a dense
standard ``eigh`` of G^-1 A G^-T, which factors nothing.  A single
eigensolve keeps mode 3, where the root is a second factor, of about the
fill of A's, that one solve does not repay (measured below).

``ROOT_DENSE_ORDER`` is measured: the secant scan of one level
(``find_teps_secant`` with the report's 12 branches, root included),
minimum of 5 runs on one pinned CPU of a shared 2-vCPU host, BLAS at 1
thread, numpy 2.4.6 and scipy 1.17.1:

    example, element, level   order  evaluations  dense eigh  Lanczos
    9, b3, 2                     86          116     0.112 s   0.493 s
    6, Morley, 2                 98           88     0.136 s   0.260 s
    6, b3, 2                    134           97     0.199 s   0.325 s
    8, Morley, 3                210           90     0.318 s   0.547 s
    8, b3, 3                    294           97     0.731 s   0.513 s
    9, Morley, 3                322          102     0.715 s   0.697 s
    6, Morley, 3                450           94     1.423 s   0.816 s
    9, b3, 3                    454          121     2.159 s   1.101 s
    6, b3, 3                    646           96     3.762 s   1.283 s

The two cross between orders 210 and 294; at 322 they tie.

Both sides of the fork between a plain B and a root, on the same host,
in two processes each.  A single eigensolve,
``eig_sym_constrained(KA, KM, 6)`` against the plain mass block and
against an ``SpdRoot`` of it built inside the timing, minimum of 3; and
one level's secant scan above ``ROOT_DENSE_ORDER``, minimum of 5:

    example, element, level   order   plain B           root
    3, b3, 4 (single)         11,782  0.465, 0.416 s    0.647, 0.651 s
    5, b3, 4 (single)         23,814  1.165, 1.054 s    1.681, 1.628 s
    5, Morley, 4 (single)     16,002  0.339, 0.330 s    0.506, 0.474 s
    6, b3, 3 (scan)              646  2.035, 1.580 s    1.861, 1.444 s
    6, Morley, 3 (scan)          450  1.428, 1.173 s    0.958, 0.865 s
    9, b3, 3 (scan)              454  2.142, 2.067 s    1.263, 1.386 s

At or below the order, one evaluation's 12 pairs (minimum of 200) by the
root's standard ``eigh`` took 0.16, 0.70, 1.09, 1.47 and 2.85 ms (second
process 0.11, 0.67, 0.83, 1.39 and 2.84 ms) at orders 22, 86, 98, 134
and 210, and by a generalized ``eigh`` against a dense B 0.13, 0.84,
1.02, 1.59 and 3.21 ms (0.13, 0.79, 0.97, 1.58 and 3.24 ms): a tie at
22 and 98, the root 8-17 % faster at 86, 134 and 210.  So each of the
four paths is the faster one where it runs.

``ConstrainedOperator``, ``solve_sym_constrained`` and
``eig_sym_constrained`` keep the names of the KKT design they replaced,
which solved on the kernel of the cubic element's compatibility rows, and
``KernelProjector`` stays as a stub: the benchmark's tracer wraps them by
name, and ROADMAP item 7 renames them with it.

The quadratic solver works on the sparse blocks it is given.  For the
few eigenvalues of smallest modulus it runs shift-invert Arnoldi at zero
on the companion linearization, which needs the same SPD factor of K;
this is valid for the transmission pencil, where K = D and M = Mq are
positive definite, so no eigenvalue is zero or infinite.  The dense QZ
of the whole companion pencil stays for all eigenvalues, for pencils too
small for ARPACK, and as the fallback; it alone makes the blocks dense,
and ``COMPANION_CAP`` bounds its order.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

DENSE_SYM_CAP = 3000
ROOT_DENSE_ORDER = 250
COMPANION_CAP = 6000
EIG_TOL = 1e-10
EIG_MAXITER = 500
RESIDUAL_FACTOR = 1e-8
BACKWARD_ERROR_BOUND = 1e-14


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


def _result(vals, vecs, unit, terms, method):
    """The one acceptance path of every eigensolve: the sorted eigenpairs
    (vals, vecs) of the matrix polynomial sum_i lambda^i A_i, where
    ``terms`` lists (A_i @ vecs, ||A_i||_1) for each power i, products of
    the solver's own vectors.  The residual ||sum_i lambda^i A_i x|| / ||x||
    does not depend on the scale of x; a pair is accepted only when it is
    at most ``RESIDUAL_FACTOR`` times sum_i |lambda|^i ||A_i||_1, so a NaN
    fails.  The accepted vectors are divided by ``unit`` and oriented."""
    r = sum(ax * vals**i for i, (ax, _) in enumerate(terms))
    residuals = np.linalg.norm(r, axis=0) / np.linalg.norm(vecs, axis=0)
    bounds = sum(norm * np.abs(vals)**i for i, (_, norm) in enumerate(terms))
    bad = ~(residuals <= RESIDUAL_FACTOR * bounds)
    if np.any(bad):
        worst = float(np.max(residuals / bounds))
        raise RuntimeError(
            f"eigensolver residuals exceed tolerance "
            f"(worst {worst:.3e} of the 1e-8 bound); method "
            f"{method}, achieved {residuals[bad]}"
        )
    vecs = vecs / unit
    return EigResult(vals, vecs * _orientation(vecs), residuals, method)


def _exponent(norm):
    """The even power of two near a 1-norm, by which the eigensolver
    divides its matrix; dividing by it is exact."""
    return 2 * (int(np.frexp(norm)[1]) // 2)


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


def factor_spd(K):
    """Sparse LU factor of a symmetric positive definite K, with diagonal
    pivots in a minimum-degree order on K + K^T.  A singular K raises
    ``RuntimeError``."""
    return spla.splu(sparse.csc_matrix(K), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


class SpdRoot:
    """A symmetric positive definite B prepared once for the many
    eigensolves of a sweep against it: the exponent b of ``_exponent``,
    ``matrix`` = 2^-b B, its 1-norm ``norm``, and a root G G^T = 2^-b B
    with its transpose ``GT``.

    One ``factor_spd`` of 2^-b B gives P 2^-b B P^T = L diag(d) L^T with
    the factor's row order P, so G = P^T L diag(sqrt(d)).  Unless the
    row and column orders agree and every pivot is finite and positive,
    B is not positive definite and a ``RuntimeError`` is raised; a
    singular B raises one from the factor.
    """

    def __init__(self, B):
        norm = norm1(B)
        self.exponent = _exponent(norm)
        self.norm = np.ldexp(norm, -self.exponent)
        self.matrix = sparse.csr_matrix(B) * np.ldexp(1.0, -self.exponent)
        lu = factor_spd(self.matrix)
        d = lu.U.diagonal()
        if not (np.array_equal(lu.perm_r, lu.perm_c)
                and np.all((d > 0) & (d < np.inf))):
            raise RuntimeError("the eigensolver's B is not positive definite")
        self.G = (lu.L @ sparse.diags(np.sqrt(d))).tocsr()[lu.perm_r]
        self.GT = self.G.T.tocsr()

    @cached_property
    def inverse(self):
        """G^-1 as a dense array, made on first use."""
        return np.linalg.inv(self.G.toarray())


class ConstrainedOperator:
    """``factor_spd`` of a symmetric positive definite K, for a source
    solve and the solves of an eigensolve; ``solve`` is one pair of
    triangular solves, the core of the operator that ARPACK applies.
    ``kkt`` is K and ``lu`` its factor.  The class and attribute names
    remain from the KKT system it once factored; the benchmark's tracer
    wraps ``__init__`` and ``solve`` and reads ``kkt`` and ``lu.nnz`` by
    name (ROADMAP item 7 renames them).
    """

    def __init__(self, K):
        self.kkt = sparse.csr_matrix(K)
        self.lu = factor_spd(self.kkt)

    def solve(self, b):
        return self.lu.solve(b)


def solve_sym_constrained(K, b):
    """Minimize 1/2 x'Kx - b'x for a symmetric positive definite K.

    One solve, accepted when its normwise backward error
    ||b - Kx||_1 / (||K||_1 ||x||_1 + ||b||_1) is at most
    ``BACKWARD_ERROR_BOUND`` (Rigal and Gaches 1967; Higham 2002, 7.1),
    else a ``RuntimeError``.  Unlike ||b - Kx|| / ||b||, this has no
    rounding floor above the bound on fine meshes; a zero load passes with
    x = 0.  The name remains from the constrained solve for the
    benchmark's tracer.
    """
    x = ConstrainedOperator(K).solve(b)
    r = np.abs(b - K @ x).sum()
    scale = norm1(K) * np.abs(x).sum() + np.abs(b).sum()
    if not r <= BACKWARD_ERROR_BOUND * scale:
        raise RuntimeError(f"source solve backward error {r / scale:.3e} "
                           f"exceeds {BACKWARD_ERROR_BOUND:g}")
    return x


def _eig_dense(KA, KB, b, k):
    """The k smallest eigenpairs of the pencil (KA, 2^-b KB) by a dense
    ``eigh``; k is clamped to its order, which ``DENSE_SYM_CAP`` bounds.
    For an ``SpdRoot`` KB, whose ``matrix`` is already scaled, the
    standard ``eigh`` of C = G^-1 KA G^-T gives x = G^-T y."""
    n = KA.shape[0]
    if n > DENSE_SYM_CAP:
        raise RuntimeError(f"pencil order {n} exceeds the dense cap "
                           f"{DENSE_SYM_CAP}")
    subset = [0, min(k, n) - 1]
    if isinstance(KB, SpdRoot):
        Gi = KB.inverse
        vals, y = dla.eigh(Gi @ (KA @ Gi.T), subset_by_index=subset)
        return vals, Gi.T @ y
    return dla.eigh(KA.toarray(), np.ldexp(KB.toarray(), -b),
                    subset_by_index=subset)


def _lanczos(KA, bmul, root, k, ncv, v0):
    """The k eigenpairs of (KA, B) nearest zero by ARPACK, B applied by
    ``bmul``: generalized shift-invert at zero (mode 3) when ``root`` is
    None, else standard mode on z -> G^T KA^-1 G z with the ``SpdRoot``
    G, whose eigenvalues 1/lambda are taken largest in modulus and whose
    eigenvectors z give x = KA^-1 G z / mu in one block solve.  A start
    vector x maps to G^T x."""
    n = KA.shape[0]
    op = ConstrainedOperator(KA)
    nv0 = 0.0 if v0 is None else np.linalg.norm(v0)
    if nv0 == 0:
        v0 = op.solve(bmul(np.ones(n)))
        nv0 = np.linalg.norm(v0)
        if nv0 == 0:
            raise RuntimeError("eigensolver start vector vanished")
    lanczos = dict(k=k, ncv=ncv, tol=EIG_TOL, maxiter=EIG_MAXITER)
    if root is None:
        M = spla.LinearOperator((n, n), matvec=bmul, dtype=float)
        opinv = spla.LinearOperator((n, n), matvec=op.solve, dtype=float)
        return spla.eigsh(KA, M=M, sigma=0.0, OPinv=opinv, v0=v0 / nv0,
                          **lanczos)
    G, GT = root.G, root.GT
    opz = spla.LinearOperator((n, n), matvec=lambda z: GT @ op.solve(G @ z),
                              dtype=float)
    z0 = GT @ v0
    mu, z = spla.eigsh(opz, which="LM", v0=z0 / np.linalg.norm(z0),
                       **lanczos)
    return 1.0 / mu, op.solve(G @ z) / mu


def eig_sym_constrained(KA, KB, k, v0=None):
    """k smallest eigenpairs of KA x = lambda KB x, KB a sparse matrix or
    an ``SpdRoot`` of one.  The name remains from the eigensolver on the
    kernel of constraint rows, since the benchmark's tracer wraps it by
    name.

    A plain KB, as a single eigensolve passes it, runs generalized
    shift-invert Lanczos at zero (ARPACK mode 3), and a dense ``eigh`` of
    the pencil when ARPACK's ncv = min(n, max(2k + 1, 20)) Lanczos vectors
    (scipy's default, passed explicitly) would span the whole space; k is
    then clamped to n.  An ``SpdRoot``, which a sweep prepares once for
    its many eigensolves against one KB, runs standard Lanczos on
    G^T KA^-1 G (mode 1) with no KB product above ``ROOT_DENSE_ORDER``,
    and at or below it a dense standard ``eigh`` of G^-1 KA G^-T, which
    factors nothing.  A single eigensolve keeps mode 3 because the root
    would cost it a second factor (see the module docstring).  ARPACK
    applies ``ConstrainedOperator``, one pair of triangular solves per
    step and no refinement: its relative tolerance ``EIG_TOL`` = 1e-10
    sits far above the backward error of the solves; KA must be positive
    definite.  The dense ``eigh`` is the fallback when ARPACK fails.
    Every path's residuals are checked on the pencil (KA, KB), not on
    the root.  The method is ``arpack`` or ``dense``.

    KA and KB are divided by 2^a and 2^b, the even powers of two near
    their 1-norms, so no weight overflows or underflows; KA is copied
    scaled, a plain KB's products are scaled instead, and an ``SpdRoot``
    holds its KB scaled.  The values, vectors and residuals are scaled
    back by 2^(a - b), 2^(-b/2) and 2^a.  These scalings are exact, so a
    moderate pencil gives the same bits.

    ``v0`` starts the Lanczos run, for example the sum of the eigenvectors
    of a nearby pencil, so a sweep converges in fewer solves.  Without it,
    or when it is zero, the run starts from the solve of KB times the ones
    vector.
    """
    na = norm1(KA)
    a = _exponent(na)
    KA, na = KA * np.ldexp(1.0, -a), np.ldexp(na, -a)
    n = KA.shape[0]
    ncv = min(n, max(2 * k + 1, 20))
    dense = ncv >= n
    if isinstance(KB, SpdRoot):
        root, b, nb, bmul = KB, KB.exponent, KB.norm, KB.matrix.__matmul__
        dense = dense or n <= ROOT_DENSE_ORDER
    else:
        root, nb = None, norm1(KB)
        b = _exponent(nb)
        nb = np.ldexp(nb, -b)
        bmul = lambda x: np.ldexp(KB @ x, -b)
    method = "dense"
    if not dense:
        try:
            vals, vecs = _lanczos(KA, bmul, root, k, ncv, v0)
            method = "arpack"
        except spla.ArpackError:
            pass
    if method == "dense":
        vals, vecs = _eig_dense(KA, KB, b, k)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    bx = bmul(vecs)
    unit = np.sqrt(np.einsum("ij,ij->j", vecs, bx))
    res = _result(vals, vecs, unit, [(KA @ vecs, na), (-bx, nb)], method)
    return EigResult(np.ldexp(res.values, a - b),
                     np.ldexp(res.vectors, -(b // 2)),
                     np.ldexp(res.residuals, a), method)


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
    Arnoldi at zero on the companion pencil of the sparse K, C, M.

    T [x; y] = [-K^-1 (C x + M y); x] has the eigenvalues 1/tau with
    eigenvectors [x; tau x] / tau, so its largest-modulus eigenvalues
    give the smallest tau, and the upper half z[:n] is a pencil vector;
    K^-1 is one ``factor_spd`` of K.

    One start vector finds one copy of a multiple eigenvalue, so each
    Arnoldi run works on T deflated by the invariant subspace Q found so
    far, (I - Q Q^T) T (I - Q Q^T), whose spectrum is the rest of T's.
    Its eigenvectors w extend Q, and Rayleigh-Ritz on Q gives the
    eigenpairs.  The runs stop when one finds nothing larger than the
    nev-th largest eigenvalue already held, so the first run is checked
    by a second one.  A singular K or a failed run raises
    ``RuntimeError`` (``ArpackError`` is one).
    """
    n = K.shape[0]
    lu = factor_spd(K)

    def apply(z):
        x = lu.solve(C @ z[:n] + M @ z[n:])
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

    The blocks are held sparse; a dense argument is converted.  With k
    given and small next to the companion order 2n, shift-invert
    Arnoldi at zero, with deflated reruns that recover every copy of a
    multiple eigenvalue, computes the k + 2 of smallest modulus from one
    sparse SPD factor of K (method ``companion-arnoldi``); the two extra
    values keep a conjugate pair at the cut whole.  Shifting at zero is
    valid for the transmission pencil, where K = D is positive definite
    on the space; M = Mq is positive definite too, so the pencil has no
    infinite eigenvalues.  The dense QZ of the whole companion pencil
    (method ``companion``) runs when k is None, when k + 2 is too close
    to 2n for ARPACK, and as the fallback when K is singular or ARPACK
    fails.  Only the QZ makes the blocks dense, and ``COMPANION_CAP``
    bounds it alone: over the cap it refuses the pencil (``ValueError``),
    or, after a failed Arnoldi run, raises ``RuntimeError``.

    Returns eigenvalues sorted by modulus, the negative-imaginary member
    of each conjugate pair first, the order reports print; infinite
    eigenvalues are dropped.
    """
    K, C, M = (sparse.csr_matrix(A) for A in (K, C, M))
    n = K.shape[0]
    method = "companion"
    failure = None
    if k is not None and 2 * (k + 2) + 1 < 2 * n:
        try:
            vals, x = _companion_arnoldi(K, C, M, k + 2)
            method = "companion-arnoldi"
        except RuntimeError as exc:
            failure = exc
    if method == "companion":
        if 2 * n > COMPANION_CAP:
            over = (f"companion dimension {2 * n} exceeds the dense cap "
                    f"{COMPANION_CAP}")
            if failure is None:
                raise ValueError(over)
            raise RuntimeError(f"{over}, and Arnoldi failed: {failure}")
        vals, x = _companion_qz(K.toarray(), C.toarray(), M.toarray())
    order = np.lexsort((vals.imag, np.abs(vals)))
    vals, x = vals[order], x[:, order]
    if k is not None:
        vals, x = vals[:k], x[:, :k]
    terms = [(A @ x, norm1(A)) for A in (K, C, M)]
    return _result(vals, x, np.linalg.norm(x, axis=0), terms, method)
