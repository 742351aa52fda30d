"""Problem drivers: source solves, fourth-order eigenvalue solves, the
tau-parameterized spectral function, and transmission-eigenvalue search
by secant iteration or quadratic linearization.

Both space realizations are one ``Realization``: a sparse map ``lift``
from the coefficients of an explicit basis with local support to the
broken space.  The cubic element's basis is W, a local basis of the
kernel of its compatibility rows in entity variables
(``spaces.local_basis``); Morley's is its nodal basis.  ``reduced`` takes
an assembled broken form to the basis, exactly symmetric.  The drivers
reduce each form as soon as it is assembled, so no broken matrix outlives
its reduction, and call the direct solve ``solve_sym_constrained`` and the
eigensolvers, ``eig_sym_constrained`` and ``eig_quadratic``, on the
reduced blocks.  Both elements share these three solvers, none of which
carries constraint rows, a per-element tolerance or state between calls.
"""

import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sparse

from .assembly import (
    bielastic_matrix,
    elastic_matrix,
    error_norms,
    graddiv_matrix,
    hessian_matrix,
    load_vector,
    mass_matrix,
    mixed_divsigma_matrix,
)
from .coefficients import as_coefficient, combine, require_finite
from .eigen import (
    SpdRoot,
    eig_quadratic,
    eig_sym_constrained,
    solve_sym_constrained,
)
from .polybasis import triangle_quadrature
from .spaces import (
    BrokenSpace,
    build_morley,
    local_basis,
    reduce_entities,
    vector_transform,
)

SECANT_FTOL = 1e-10
SECANT_MAXITER = 50
CERT_TOL = 1e-9
DEDUPE_TOL = 1e-8
CROSSING_TOL = 1e-8
SCAN_POINTS = 60  # tau grid of the secant scan


class Realization:
    """A space reached from the coefficients of its basis through
    ``lift``.  A subclass names its ``element``."""

    def __init__(self, mesh, space, lift):
        self.mesh = mesh
        self.space = space
        self.lift = lift

    @property
    def dofs(self):
        return self.lift.shape[1]

    def reduced(self, A):
        """lift^T A lift, made exactly symmetric, as the forms are:
        rounding in the products would leave entries without an equal
        transpose, and could split a multiple real eigenvalue of the
        quadratic pencil off the real axis."""
        P = self.lift.T @ A @ self.lift
        return (0.5 * (P + P.T)).tocsr()


class B3Realization(Realization):
    """Nonconforming cubic space in the local basis W of the kernel of
    its compatibility rows: ``lift`` is the entity reduction's lift times
    diag(W, W)."""

    element = "b3"

    def __init__(self, mesh):
        self.reduction = reduce_entities(mesh)
        lift = vector_transform(self.reduction.lift) @ self.explicit_basis()
        super().__init__(mesh, BrokenSpace(mesh, 3), lift)

    def explicit_basis(self):
        """diag(W, W), W = ``spaces.local_basis`` of the entity reduction,
        as a sparse matrix.  The benchmark's tracer times this method and
        reads its ``nnz`` by name (ROADMAP item 7 renames it)."""
        return vector_transform(local_basis(self.reduction))


class MorleyRealization(Realization):
    """Stabilized Morley space with its explicit local basis."""

    element = "morley"

    def __init__(self, mesh):
        super().__init__(mesh, BrokenSpace(mesh, 2),
                         vector_transform(build_morley(mesh)))


def make_realization(mesh, element):
    if element == "b3":
        return B3Realization(mesh)
    if element == "morley":
        return MorleyRealization(mesh)
    raise ValueError(f"unknown element {element!r}")


def coefficient_range(space, coeff):
    """(min, max) of a coefficient over the physical points of the
    degree-12 quadrature rule."""
    coeff = as_coefficient(coeff)
    xq = space.physical_points(triangle_quadrature(12).points)
    values = require_finite(coeff(xq[..., 0], xq[..., 1]))
    return float(np.min(values)), float(np.max(values))


def fourth_order_block(real, coeff, lam, mu, alpha=None, inclusive=False):
    """The weighted (div sigma, div sigma) block.

    A weight whose minimum over the degree-12 quadrature points
    (``coefficient_range``) is not positive is refused, on either element.
    On the cubic element the form is assembled directly, and an alpha is
    refused, since no stabilization applies.  On Morley it is
    replaced by the alpha-split stabilization: (coeff - alpha) times the
    fourth-order form plus alpha mu^2 times the full-Hessian form plus
    alpha (lambda^2 + 2 lambda mu) times the grad-div form.  The admissible
    range is 0 < alpha < min(coeff), with equality allowed for the
    transmission weight (inclusive=True); without an alpha, the midpoint
    min(coeff) / 2 is taken.
    """
    sp = real.space
    coeff = as_coefficient(coeff)
    cmin = coefficient_range(sp, coeff)[0]
    if cmin <= 0.0:
        raise ValueError(
            f"weight must be positive on the domain; its minimum is "
            f"{cmin:.6g}"
        )
    if real.element == "b3":
        if alpha is not None:
            raise ValueError("alpha applies only to the morley element")
        return bielastic_matrix(sp, coeff, lam, mu)
    if alpha is None:
        alpha = 0.5 * cmin
    ok = (0.0 < alpha <= cmin) if inclusive else (0.0 < alpha < cmin)
    if not ok:
        bracket = "]" if inclusive else ")"
        raise ValueError(
            f"alpha {alpha} outside the coercivity range "
            f"(0, {cmin:.6g}{bracket}"
        )
    shifted = combine("sub", coeff, alpha)
    K = bielastic_matrix(sp, shifted, lam, mu)
    K = K + alpha * mu**2 * hessian_matrix(sp)
    K = K + alpha * (lam**2 + 2 * lam * mu) * graddiv_matrix(sp)
    return K.tocsr()


@dataclass
class SourceResult:
    broken: np.ndarray
    norms: dict
    dofs: int


def solve_source(real, beta, lam, mu, f1, f2, exact=None, alpha=None):
    """Weighted fourth-order source problem with load (f1, f2)."""
    KA = real.reduced(fourth_order_block(real, beta, lam, mu, alpha))
    rhs = real.lift.T @ load_vector(real.space, f1, f2)
    broken = real.lift @ solve_sym_constrained(KA, rhs)
    norms = (
        error_norms(real.space, broken, exact) if exact is not None else {}
    )
    return SourceResult(broken, norms, real.dofs)


def solve_bielastic_eigs(real, beta, lam, mu, k, alpha=None):
    """k smallest eigenvalues of the weighted fourth-order pencil against
    the plain mass form.  The pencil is positive definite, so a value that
    is not positive is a solver failure (``RuntimeError``)."""
    KA = real.reduced(fourth_order_block(real, beta, lam, mu, alpha))
    KM = real.reduced(mass_matrix(real.space))
    res = eig_sym_constrained(KA, KM, k)
    if not np.all(res.values > 0.0):
        raise RuntimeError("the bi-elastic pencil gave a non-positive "
                           f"eigenvalue {np.min(res.values):.6g}")
    return res


def detect_density_case(space, rho0, rho1):
    """Which non-intersecting ordering the densities satisfy.

    Returns "standard" when rho0 <= 1 <= rho1 (weight (rho1 - rho0)^-1)
    and "swapped" when rho1 <= 1 <= rho0 (roles exchanged).  A density
    whose minimum over the degree-12 quadrature points is not positive is
    refused; with both densities positive and strictly ordered, the
    transmission weights r, r*lo and r*lo*hi are positive too.
    """
    ranges = {"rho0": coefficient_range(space, rho0),
              "rho1": coefficient_range(space, rho1)}
    for name, (lo, _) in ranges.items():
        if lo <= 0.0:
            raise ValueError(
                f"density {name} must be positive on the domain; its "
                f"minimum is {lo:.6g}"
            )
    (min0, max0), (min1, max1) = ranges.values()
    if max0 <= 1.0 <= min1 and min1 - max0 > 0.0:
        return "standard"
    if max1 <= 1.0 <= min0 and min0 - max1 > 0.0:
        return "swapped"
    raise ValueError(
        "densities must satisfy one of the non-intersecting orderings "
        f"(rho0 range [{min0:.4g}, {max0:.4g}], "
        f"rho1 range [{min1:.4g}, {max1:.4g}])"
    )


class TepBlocks:
    """Cached primitive blocks of the transmission-eigenvalue forms.

    With lo/hi the small/large density and r = (hi - lo)^-1, the
    tau-dependent form is D + tau (F0 + F0') + tau^2 Mq where D is the
    r-weighted fourth-order block, F0 mixes values against the stress
    divergence with weight r*lo, and Mq = Mass(r*lo*hi), which is
    Mass(r*lo^2) + Mass(lo) because r*lo^2 + lo = r*lo*hi.  The search
    pencil subtracts tau times the elastic-energy form B, and the
    quadratic path uses the same algebra arranged as K + tau C + tau^2 M
    with K = D, C = F0 + F0' - B, M = Mq.  Each form is reduced to the
    realization's variables as soon as it is assembled, and only the
    reduced blocks KD, KF, KB and KM are kept.

    What every evaluation of the spectral function shares is prepared
    once, on first use, and the quadratic path prepares none of it:
    ``_terms``, the union pattern of KD, KF and KM with their entries
    aligned to it, on which each tau-form is one vector expression; and
    ``_kb_root``, an ``SpdRoot`` of KB, against which each eigensolve of
    the scan runs: a dense standard ``eigh`` at or below
    ``eigen.ROOT_DENSE_ORDER``, standard Lanczos with no KB product above
    it.  A single eigensolve (``solve_bielastic_eigs``) passes its mass
    block plain instead, since a root would cost it a second factor.
    """

    def __init__(self, real, lam, mu, rho0, rho1, alpha=None):
        self.real = real
        sp = real.space
        rho0, rho1 = as_coefficient(rho0), as_coefficient(rho1)
        self.case = detect_density_case(sp, rho0, rho1)
        lo, hi = (rho0, rho1) if self.case == "standard" else (rho1, rho0)
        r = combine("div", 1.0, combine("sub", hi, lo))
        D = fourth_order_block(real, r, lam, mu, alpha, inclusive=True)
        self.KD = real.reduced(D.tocsr())
        F0 = mixed_divsigma_matrix(sp, combine("mul", r, lo), lam, mu)
        self.KF = real.reduced((F0 + F0.T).tocsr())
        self.KB = real.reduced(elastic_matrix(sp, lam, mu).tocsr())
        Mq = mass_matrix(sp, combine("mul", r, combine("mul", lo, hi)))
        self.KM = real.reduced(Mq.tocsr())
        self._lambda_cache = {}
        self._last_vectors = None
        self.eig_methods = Counter()

    @cached_property
    def _terms(self):
        """The union pattern of KD, KF and KM, exactly symmetric as they
        are, and the entries of each at its positions."""
        pattern = (abs(self.KD) + abs(self.KF) + abs(self.KM)).tocsr()
        rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
        return pattern, *(np.asarray(A[rows, pattern.indices]).ravel()
                          for A in (self.KD, self.KF, self.KM))

    @cached_property
    def _kb_root(self):
        return SpdRoot(self.KB)

    def a_tau(self, tau):
        """D + tau (F0 + F0') + tau^2 Mq on the pattern of ``_terms``, with
        the entries of the sparse sum KD + tau KF + tau^2 KM.  A tau at
        which the form overflows is refused (``ValueError``)."""
        pattern, d, f, m = self._terms
        with np.errstate(over="ignore", invalid="ignore"):
            data = (d + tau * f) + (tau * tau) * m
        if not np.all(np.isfinite(data)):
            raise ValueError(f"tau range too wide: the tau-form overflows "
                             f"at tau={tau:.6g}")
        return sparse.csr_matrix((data, pattern.indices, pattern.indptr),
                                 shape=pattern.shape)

    def lambda_of_tau(self, tau, k):
        """Sorted eigenvalues of the tau-form against the elastic energy.

        Memoized on (tau, k): the secant search certifies each root at
        the point its refinement evaluated last.  Each new evaluation
        starts its Lanczos run from the sum of the previous evaluation's
        eigenvectors, which is rich in the wanted eigenvectors when tau
        moves little; only that last eigenvector block is kept.  Every
        eigensolve is against ``_kb_root``.  ``eig_methods`` counts the
        eigensolves that the memo did not serve by ``EigResult.method``.
        """
        key = (float(tau), k)
        if key not in self._lambda_cache:
            v0 = None
            if self._last_vectors is not None:
                v0 = self._last_vectors.sum(axis=1)
            res = eig_sym_constrained(self.a_tau(tau), self._kb_root, k,
                                      v0=v0)
            self._lambda_cache[key] = res.values
            self._last_vectors = res.vectors
            self.eig_methods[res.method] += 1
        values = self._lambda_cache[key]
        if values[0] <= 0.0:
            warnings.warn(
                f"coercivity loss at tau={tau}: smallest eigenvalue "
                f"{values[0]:.6g}",
                RuntimeWarning,
            )
        return values.copy()


@dataclass
class TepRoot:
    tau: float
    branch: int
    residual: float
    iterations: int
    crossing_flag: bool


def _secant_refine(f, a, b, fa, fb):
    """Bracketed secant with bisection fallback."""
    t, ft = b, fb
    for it in range(1, SECANT_MAXITER + 1):
        if fb != fa:
            t = b - fb * (b - a) / (fb - fa)
        else:
            t = 0.5 * (a + b)
        lo, hi = min(a, b), max(a, b)
        if not lo < t < hi:
            t = 0.5 * (a + b)
        ft = f(t)
        if abs(ft) <= SECANT_FTOL * (1.0 + abs(t)):
            return t, ft, it, True
        if np.sign(ft) == np.sign(fa):
            a, fa = t, ft
        else:
            b, fb = t, ft
    return t, ft, SECANT_MAXITER, False


def find_teps_secant(blocks, k=12, tau_lo=0.25, tau_hi=None):
    """Real transmission eigenvalues: roots of f_j(tau) = lambda_j(tau) - tau.

    Scans each branch for sign changes at ``SCAN_POINTS`` taus, refines
    every bracket by safeguarded secant iteration, certifies each root
    against all branches, and deduplicates.
    """
    lam0 = blocks.lambda_of_tau(0.0, k)
    k = min(k, lam0.size)
    if tau_hi is None:
        tau_hi = 1.5 * lam0[-1]
    taus = np.linspace(tau_lo, tau_hi, SCAN_POINTS)
    table = np.array([blocks.lambda_of_tau(t, k) for t in taus])
    roots = []
    for j in range(k):
        fj = table[:, j] - taus

        def f(tau, j=j):
            return blocks.lambda_of_tau(tau, k)[j] - tau

        for i in range(SCAN_POINTS - 1):
            if fj[i] == 0.0:
                sign_change = True
                a, b, fa, fb = taus[i], taus[i], 0.0, 0.0
            else:
                sign_change = fj[i] * fj[i + 1] < 0.0
                a, b, fa, fb = taus[i], taus[i + 1], fj[i], fj[i + 1]
            if not sign_change:
                continue
            gaps = np.diff(table[i]), np.diff(table[i + 1])
            crossing = any(np.min(np.abs(g)) < CROSSING_TOL for g in gaps)
            if fa == 0.0 and fb == 0.0:
                tau_star, iters = a, 0
            else:
                tau_star, _, iters, ok = _secant_refine(f, a, b, fa, fb)
                if not ok:
                    continue
            lam_at = blocks.lambda_of_tau(tau_star, k)
            residual = float(np.min(np.abs(lam_at - tau_star)))
            if residual <= CERT_TOL * (1.0 + abs(tau_star)):
                roots.append(
                    TepRoot(tau_star, j, residual, iters, crossing)
                )
    roots.sort(key=lambda r: r.tau)
    unique = []
    for root in roots:
        if unique and abs(root.tau - unique[-1].tau) <= DEDUPE_TOL * (
            1.0 + abs(root.tau)
        ):
            continue
        unique.append(root)
    if not unique:
        warnings.warn(
            "no transmission eigenvalue bracketed in the scan range",
            RuntimeWarning,
        )
    return unique


def find_teps_quadratic(blocks, k=10):
    """Transmission eigenvalues through the companion linearization of
    K + tau C + tau^2 M; complex values allowed."""
    return eig_quadratic(blocks.KD, blocks.KF - blocks.KB, blocks.KM, k)
