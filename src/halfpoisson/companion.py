"""First-order reduction of the normal ODE at a single frequency point.

At a tangential frequency ``xi'`` and parameter ``lambda`` the interior
equation ``(lambda - A(D))u = 0`` becomes an ODE in the normal variable,

    lambda u - A(xi', D_n) u = 0,       D_n = -i d/dx_n,

whose decaying solutions are spanned by ``e^{i tau x_n}`` with ``Im tau > 0``
(``tau`` runs over the roots of ``lambda - A(xi', tau)``).  Everything here is
phrased in the rescaled variables

    rho   = (1 + |xi'|^2 + |lambda|^{1/m})^{1/2},
    b     = xi' / rho,
    sigma = lambda / rho^{2m},

which compactify the frequency-parameter space: the rescaled companion matrix
``A0``, the stable spectral projection ``Pminus`` and the boundary-inversion
matrix ``M`` depend on ``(b, sigma)`` only.

The companion state vector uses the scaling ``v_k = D_n^{k-1} u / rho^{k-1}``,
``k = 1..2m``; with it the propagator is ``e^{i rho A0 x_n}`` and the boundary
operators act through rows ``B_j u(0) = rho^{m_j} Lambda_j(b) . V(0)``.  The
matrix ``M`` maps prescribed boundary values to initial states: for the
solution ``u(x_n) = pr_1 e^{i rho A0 x_n} M g_rho`` (with ``g_rho`` carrying
the per-component scaling ``g_j / rho^{m_j}``) one has ``B_j u(0) = g_j``.

Two construction routes are provided and cross-checked in the tests:

* the primary route via ordered Schur decomposition, which isolates the
  stable invariant subspace robustly even for multiple roots, and
* a root-basis oracle (:func:`root_basis_solution`) valid for simple roots.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "FrequencyPoint",
    "CompanionSystem",
    "make_frequency_point",
    "stable_roots",
    "build_companion",
    "propagate",
    "boundary_map_conditioning",
    "root_basis_solution",
    "LopatinskiiError",
    "EllipticityMarginError",
]


class LopatinskiiError(ValueError):
    """Boundary map on the stable subspace is (numerically) singular."""

    def __init__(self, message, condition_number=math.inf):
        super().__init__(message)
        self.condition_number = condition_number


class EllipticityMarginError(ValueError):
    """A characteristic root sits too close to the real axis."""


@dataclass(frozen=True)
class FrequencyPoint:
    """One point ``(xi', lambda)`` with its rescaled coordinates."""

    xi_prime: np.ndarray
    lam: complex
    m: int
    rho: float
    b: np.ndarray
    sigma: complex
    mu: complex

    @property
    def order(self) -> int:
        return 2 * self.m


def make_frequency_point(xi_prime, lam, m: int) -> FrequencyPoint:
    """Build a :class:`FrequencyPoint`; rejects the degenerate origin."""
    xi_prime = np.atleast_1d(np.asarray(xi_prime, dtype=float))
    lam = complex(lam)
    if lam == 0 and not np.any(xi_prime):
        raise ValueError("degenerate frequency point: xi' = 0 and lambda = 0")
    rho = math.sqrt(1.0 + float(xi_prime @ xi_prime) + abs(lam) ** (1.0 / m))
    b = xi_prime / rho
    sigma = lam / rho ** (2 * m)
    # principal 2m-th root; observable quantities depend on lambda only
    mu = cmath.exp(cmath.log(lam) / (2 * m)) if lam != 0 else 0j
    return FrequencyPoint(xi_prime=xi_prime, lam=lam, m=m, rho=rho, b=b, sigma=sigma, mu=mu)


def _char_poly_coeffs(problem, fp: FrequencyPoint) -> np.ndarray:
    """Coefficients of ``lambda - A(xi', tau)`` in increasing powers of tau."""
    c = -problem.normal_symbol_coeffs(fp.xi_prime)
    c[0] += fp.lam
    return c


def stable_roots(problem, fp: FrequencyPoint, axis_tol: float = 1e-10) -> np.ndarray:
    """The m roots tau of ``lambda - A(xi', tau) = 0`` with ``Im tau > 0``.

    Sorted by imaginary part.  A root count != m signals an ellipticity
    violation; a root hugging the real axis signals a vanished spectral gap.
    """
    c = _char_poly_coeffs(problem, fp)
    roots = np.roots(c[::-1])
    gap = axis_tol * fp.rho
    if np.any(np.abs(roots.imag) <= gap):
        raise EllipticityMarginError(
            f"characteristic root within {gap:.3e} of the real axis at "
            f"(xi'={fp.xi_prime}, lambda={fp.lam})"
        )
    stable = roots[roots.imag > 0]
    if len(stable) != problem.m:
        raise EllipticityMarginError(
            f"expected {problem.m} stable roots, found {len(stable)} at "
            f"(xi'={fp.xi_prime}, lambda={fp.lam}); parameter-ellipticity fails"
        )
    return stable[np.argsort(stable.imag)]


def _companion_matrix(problem, fp: FrequencyPoint) -> np.ndarray:
    """Rescaled companion matrix A0(b, sigma) of the normal ODE.

    With ``v_k = D_n^{k-1}u / rho^{k-1}`` the ODE reads ``D_n V = rho A0 V``;
    the eigenvalues of A0 are the characteristic roots divided by rho.
    """
    order = fp.order
    # c_l(b): tau-coefficients of A at the rescaled frequency b
    c = problem.normal_symbol_coeffs(fp.b)
    a_top = c[order]
    A0 = np.zeros((order, order), dtype=complex)
    A0[np.arange(order - 1), np.arange(1, order)] = 1.0
    A0[order - 1, :] = -c[:order] / a_top
    A0[order - 1, 0] += fp.sigma / a_top
    return A0


def _boundary_rows(problem, b: np.ndarray) -> np.ndarray:
    """Rows Lambda_j(b): ``B_j u(0) = rho^{m_j} Lambda_j . V(0)``.

    Entry k (0-based) collects the coefficients of normal order k evaluated
    at the rescaled tangential frequency b.
    """
    order = 2 * problem.m
    rows = np.zeros((problem.m, order), dtype=complex)
    b = np.atleast_1d(b)
    for j, bop in enumerate(problem.boundary_ops):
        for beta, coeff in bop.coeffs.items():
            tang = np.prod(b ** np.array(beta[:-1])) if problem.n > 1 else 1.0
            rows[j, beta[-1]] += coeff * tang
    return rows


@dataclass(frozen=True)
class CompanionSystem:
    """Stable-subspace data of the rescaled first-order system at one point."""

    problem: object
    fp: FrequencyPoint
    A0: np.ndarray
    Pminus: np.ndarray
    M: np.ndarray
    stable_basis: np.ndarray      # orthonormal columns spanning range(Pminus)
    stable_block: np.ndarray      # m x m upper-triangular T11 in that basis
    coeffs: np.ndarray            # stable_basis @ coeffs == M
    boundary_rows: np.ndarray     # Lambda rows at b
    stable_roots: np.ndarray
    boundary_map: np.ndarray      # L_{jl} = B_j(xi', tau_l), simple-root case


def build_companion(problem, fp: FrequencyPoint, axis_tol: float = 1e-10,
                    ls_tol: float = 1e-8) -> CompanionSystem:
    """Ordered-Schur construction of ``(A0, Pminus, M)`` at one point.

    The Schur form is sorted so the eigenvalues above the real axis come
    first; the leading Schur vectors then span the stable invariant subspace,
    and the spectral projection is the standard oblique projector obtained
    from the Sylvester equation ``T11 X - X T22 = T12``.
    """
    m, order = problem.m, fp.order
    A0 = _companion_matrix(problem, fp)
    gap = axis_tol  # A0 is rescaled; its eigenvalues are tau/rho, O(1)
    T, Q, sdim = scipy.linalg.schur(A0, output="complex",
                                    sort=lambda z: z.imag > gap)
    eigs = np.diag(T)
    if np.any(np.abs(eigs.imag) <= gap):
        raise EllipticityMarginError(
            f"rescaled eigenvalue within {gap:.3e} of the real axis at "
            f"(xi'={fp.xi_prime}, lambda={fp.lam})"
        )
    if sdim != m:
        raise EllipticityMarginError(
            f"stable subspace has dimension {sdim}, expected {m} at "
            f"(xi'={fp.xi_prime}, lambda={fp.lam})"
        )
    T11, T12, T22 = T[:m, :m], T[:m, m:], T[m:, m:]
    X = scipy.linalg.solve_sylvester(T11, -T22, T12)
    P_schur = np.zeros((order, order), dtype=complex)
    P_schur[:m, :m] = np.eye(m)
    P_schur[:m, m:] = X
    Pminus = Q @ P_schur @ Q.conj().T

    S = Q[:, :m]
    rows = _boundary_rows(problem, fp.b)
    LS = rows @ S
    svals = scipy.linalg.svdvals(LS)
    scale = max(np.linalg.norm(LS), 1e-300)
    if svals[-1] <= ls_tol * scale:
        raise LopatinskiiError(
            f"Lopatinskii-Shapiro failure at (xi'={fp.xi_prime}, lambda={fp.lam}): "
            f"boundary map singular values {svals}",
            condition_number=svals[0] / max(svals[-1], 1e-300),
        )
    coeffs = np.linalg.solve(LS, np.eye(m))
    M = S @ coeffs

    roots = stable_roots(problem, fp, axis_tol=axis_tol)
    bmap = np.zeros((m, m), dtype=complex)
    xi_prime = fp.xi_prime
    for j, bop in enumerate(problem.boundary_ops):
        for l, tau in enumerate(roots):
            total = 0j
            for beta, coeff in bop.coeffs.items():
                tang = np.prod(xi_prime ** np.array(beta[:-1])) if problem.n > 1 else 1.0
                total += coeff * tang * tau ** beta[-1]
            bmap[j, l] = total

    return CompanionSystem(
        problem=problem, fp=fp, A0=A0, Pminus=Pminus, M=M,
        stable_basis=S, stable_block=T11, coeffs=coeffs,
        boundary_rows=rows, stable_roots=roots, boundary_map=bmap,
    )


def boundary_map_conditioning(problem, fp: FrequencyPoint) -> tuple[float, float]:
    """(normalized min singular value, condition number) of the LS map.

    Used by the sample-based Lopatinskii-Shapiro check; never raises on a
    singular map, so the caller can report the worst point.
    """
    A0 = _companion_matrix(problem, fp)
    gap = 1e-12
    try:
        T, Q, sdim = scipy.linalg.schur(A0, output="complex",
                                        sort=lambda z: z.imag > gap)
    except scipy.linalg.LinAlgError:
        return 0.0, math.inf
    if sdim != problem.m:
        return 0.0, math.inf
    S = Q[:, :problem.m]
    LS = _boundary_rows(problem, fp.b) @ S
    svals = scipy.linalg.svdvals(LS)
    scale = max(np.linalg.norm(LS), 1e-300)
    return svals[-1] / scale, svals[0] / max(svals[-1], 1e-300)


def propagate(cs: CompanionSystem, x_n: float, deriv_order: int = 0) -> np.ndarray:
    """``D_{x_n}^k e^{i rho A0 x_n} M_rho`` as a 2m x m matrix.

    Computed entirely on the reduced stable block: with ``M = S C`` and the
    ordered Schur pair ``(S, T11)`` one has

        e^{i rho A0 x_n} M = S expm(i rho T11 x_n) C,

    and ``D_{x_n} = -i d/dx_n`` pulls down a factor ``rho T11`` per order.
    The anti-stable eigenvalues never enter, so nothing overflows.
    """
    x_n = float(x_n)
    if x_n < 0:
        raise ValueError("x_n must be >= 0")
    if deriv_order < 0:
        raise ValueError("deriv_order must be >= 0")
    rho = cs.fp.rho
    T11 = cs.stable_block
    E = scipy.linalg.expm(1j * rho * x_n * T11)
    block = np.linalg.matrix_power(rho * T11, deriv_order) @ E if deriv_order else E
    scal = np.array([rho ** (-bop.order) for bop in cs.problem.boundary_ops])
    return (cs.stable_basis @ block @ cs.coeffs) * scal


def root_basis_solution(cs: CompanionSystem, g, x_n, deriv_order: int = 0):
    """Oracle: ``D_{x_n}^k u(x_n)`` from the exponential root basis.

    Solves ``u = sum_l c_l e^{i tau_l x_n}`` with ``B_j(xi', D_n)u(0) = g_j``
    directly from the unrescaled boundary map L.  Valid only when the stable
    roots are simple; used to cross-check the Schur route.
    """
    g = np.asarray(g, dtype=complex)
    taus = cs.stable_roots
    if len(np.unique(np.round(taus, 9))) != len(taus):
        raise ValueError("repeated stable roots; root basis is degenerate")
    c = np.linalg.solve(cs.boundary_map, g)
    x_n = np.asarray(x_n, dtype=float)
    phases = np.exp(1j * np.multiply.outer(x_n, taus))
    return phases @ (c * taus ** deriv_order)
