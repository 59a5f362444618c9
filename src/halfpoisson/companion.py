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
``A0``, its stable invariant subspace and the boundary-inversion map
``M = S C`` (S an orthonormal basis of that subspace) depend on
``(b, sigma)`` only.

The companion state vector uses the scaling ``v_k = D_n^{k-1} u / rho^{k-1}``,
``k = 1..2m``; with it the propagator is ``e^{i rho A0 x_n}`` and the boundary
operators act through rows ``B_j u(0) = rho^{m_j} Lambda_j(b) . V(0)``.  The
map ``M`` takes prescribed boundary values to initial states: for the
solution ``u(x_n) = pr_1 e^{i rho A0 x_n} M g_rho`` (with ``g_rho`` carrying
the per-component scaling ``g_j / rho^{m_j}``) one has ``B_j u(0) = g_j``.

The construction uses the ordered Schur decomposition, which isolates the
stable invariant subspace robustly even for multiple roots.  The tests check
it against the exponential root basis of :func:`halfpoisson.poisson.kernel_batch`,
valid for simple roots.

The Lopatinskii-Shapiro (LS) map ``Lambda S`` (boundary rows applied to an
orthonormal basis S of the stable subspace) is judged with each row divided
by its boundary row ``||Lambda_j(b)||``: its smallest singular value is then
the LS measure, zero exactly where the condition fails, for every m.
:func:`build_companion` raises :class:`LopatinskiiError` and
:func:`boundary_map_conditioning` reports on that same value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FrequencyPoint",
    "CompanionSystem",
    "make_frequency_point",
    "build_companion",
    "propagate",
    "boundary_map_conditioning",
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
    return FrequencyPoint(xi_prime=xi_prime, lam=lam, m=m, rho=rho, b=b, sigma=sigma)


# a root with |Im| at most this (relative to rho) counts as on the real axis
_AXIS_TOL = 1e-10
# the row-normalised LS map is singular below this smallest singular value
_LS_TOL = 1e-8


def _companion_matrix(problem, fp: FrequencyPoint) -> np.ndarray:
    """Rescaled companion matrix A0(b, sigma) of the normal ODE.

    With ``v_k = D_n^{k-1}u / rho^{k-1}`` the ODE reads ``D_n V = rho A0 V``;
    the eigenvalues of A0 are the characteristic roots divided by rho.
    """
    order = fp.order
    # c_l(b): tau-coefficients of A at the rescaled frequency b
    c = problem.interior_symbol.table(fp.b)
    a_top = c[order]
    A0 = np.zeros((order, order), dtype=complex)
    A0[np.arange(order - 1), np.arange(1, order)] = 1.0
    A0[order - 1, :] = -c[:order] / a_top
    A0[order - 1, 0] += fp.sigma / a_top
    return A0


def _schur_ls(problem, fp: FrequencyPoint, gap: float):
    """Ordered Schur form of A0 and the Lopatinskii-Shapiro (LS) map.

    Schur vectors of the eigenvalues with ``Im > gap`` come first, so the
    leading m of them, S, span the stable subspace.  The LS map is
    ``Lambda S`` with the boundary rows ``Lambda_j(b)``.  Its conditioning
    is measured row by row: row j is divided by ``||Lambda_j(b)||``, so each
    boundary operator counts at unit size and a 1 x 1 map is not scored 1 by
    construction.  Returns ``(T, Q, sdim, LS, svals)`` with ``svals`` the
    singular values of the row-normalised map.
    """
    import scipy.linalg

    A0 = _companion_matrix(problem, fp)
    T, Q, sdim = scipy.linalg.schur(A0, output="complex",
                                    sort=lambda z: z.imag > gap)
    rows = problem.boundary_table(fp.b)
    LS = rows @ Q[:, :problem.m]
    row_norms = np.maximum(np.linalg.norm(rows, axis=1), 1e-300)
    svals = scipy.linalg.svdvals(LS / row_norms[:, None])
    return T, Q, sdim, LS, svals


@dataclass(frozen=True)
class CompanionSystem:
    """Stable-subspace data of the rescaled first-order system at one point."""

    problem: object
    fp: FrequencyPoint
    stable_basis: np.ndarray      # S: orthonormal columns spanning the stable subspace
    stable_block: np.ndarray      # m x m upper-triangular T11 with A0 S = S T11
    coeffs: np.ndarray            # C with Lambda S C = I, so M = S C


def build_companion(problem, fp: FrequencyPoint) -> CompanionSystem:
    """Ordered-Schur construction of the stable pair ``(S, T11)`` and ``C``.

    The Schur form is sorted so the eigenvalues above the real axis come
    first; the leading Schur vectors then span the stable invariant subspace,
    and ``C`` inverts the LS map ``Lambda S`` on it.
    """
    m = problem.m
    gap = _AXIS_TOL  # A0 is rescaled; its eigenvalues are tau/rho, O(1)
    T, Q, sdim, LS, svals = _schur_ls(problem, fp, gap)
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
    if svals[-1] <= _LS_TOL:
        raise LopatinskiiError(
            f"Lopatinskii-Shapiro failure at (xi'={fp.xi_prime}, lambda={fp.lam}): "
            f"row-normalised boundary map singular values {svals}",
            condition_number=svals[0] / max(svals[-1], 1e-300),
        )
    return CompanionSystem(
        problem=problem, fp=fp, stable_basis=Q[:, :m], stable_block=T[:m, :m],
        coeffs=np.linalg.solve(LS, np.eye(m)),
    )


def boundary_map_conditioning(problem, fp: FrequencyPoint) -> tuple[float, float]:
    """(min singular value, condition number) of the row-normalised LS map.

    Each row ``Lambda_j(b) S`` is divided by ``||Lambda_j(b)||`` (see
    :func:`_schur_ls`), so the value is 0 exactly when the boundary map on
    the stable subspace is singular, for every m.  Used by the sample-based
    Lopatinskii-Shapiro check; never raises on a singular map, so the caller
    can report the worst point.
    """
    import scipy.linalg

    try:
        _, _, sdim, _, svals = _schur_ls(problem, fp, 1e-12)
    except scipy.linalg.LinAlgError:
        return 0.0, math.inf
    if sdim != problem.m:
        return 0.0, math.inf
    return svals[-1], svals[0] / max(svals[-1], 1e-300)


def propagate(cs: CompanionSystem, x_n: float, deriv_order: int = 0) -> np.ndarray:
    """``D_{x_n}^k e^{i rho A0 x_n} M_rho`` as a 2m x m matrix.

    Computed entirely on the reduced stable block: with ``M = S C`` and the
    ordered Schur pair ``(S, T11)`` one has

        e^{i rho A0 x_n} M = S expm(i rho T11 x_n) C,

    and ``D_{x_n} = -i d/dx_n`` pulls down a factor ``rho T11`` per order.
    The anti-stable eigenvalues never enter, so nothing overflows.
    """
    import scipy.linalg

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
