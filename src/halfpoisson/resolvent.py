"""Half-space resolvent via extension-restriction plus boundary correction,
and the holomorphic semigroup via sectorial contour quadrature.

The construction mirrors the solution formula

    R(lambda) f = r_+ (lambda - A(D))^{-1} E f
                  - sum_j pr_1 Poi_j(lambda) tr_{x_n=0} B_j(D) (lambda - A(D))^{-1} E f,

where ``E`` is a reflection-type extension to the whole space: the first term
solves the equation but spoils the boundary conditions, and the Poisson
correction removes exactly the stray boundary values (delta-normalization of
the kernels).

Discretization: tangential torus modes as everywhere else; the normal
variable on a uniform grid over [0, X) doubled to a torus [-X, X) so the
whole-space multiplier is one 1-D FFT per mode.  The reflected side holds the
Hestenes/Seeley extension ``u(-x) = sum_k c_k u(k x) * cutoff(x)`` whose
coefficients match derivatives up to order K-1 across 0 (Vandermonde system
``sum_k c_k (-k)^l = 1``).  The dilations are integers, so at a grid node
``x = h i`` the reflection reads the grid samples at ``k i``: no interpolation.

R(lambda) f is one call from the datum: :func:`halfspace_resolvent` takes
``f`` (modes x uniform normal nodes) and one lambda or an array of them.
Every operator is diagonal in the tangential modes, so only the active rows,
the modes where ``f`` is nonzero, carry data; every other row of R(lambda) f
is exactly zero.  On the active rows it runs the Seeley extension and its
FFT, the multiplier ``(lambda - A)^{-1}`` for every lambda at once
(:func:`whole_space_resolvent`), one inverse FFT, the boundary traces, and
the Poisson correction from one kernel batch over every (lambda, mode) pair
that serves all m boundary indices.  The checks run on every row, active or
not: the ill-conditioning test of the multiplier, and the root-margin,
root-count and LS tests of the kernel batch.

The semigroup uses trapezoid quadrature of ``(2 pi i)^{-1} \\oint e^{z t}
R(z + _SIGMA) dz`` over a left-opening hyperbola; resolvents are only ever
evaluated at ``z + _SIGMA``, which stays inside the verified sector.  One
:func:`halfspace_resolvent` call serves all contour nodes of a
:func:`semigroup_apply` call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import model as mdl
from .grids import TangentialGrid, UniformHalfGrid
from .poisson import kernel_batch

__all__ = [
    "seeley_extend",
    "whole_space_resolvent",
    "halfspace_resolvent",
    "ResolventResult",
    "interior_residual_fd",
    "boundary_trace_fd",
    "semigroup_apply",
]


def _seeley_coefficients(K: int) -> np.ndarray:
    """c_1..c_K solving sum_k c_k (-k)^l = 1 for l = 0..K-1.

    c_k is the Lagrange basis polynomial of the nodes -1..-K evaluated at 1,
    the integer (-1)^(k-1) k binom(K+1, k+1).
    """
    return np.array([(-1) ** (k - 1) * k * math.comb(K + 1, k + 1)
                     for k in range(1, K + 1)], dtype=float)


def _seeley_order(problem: mdl.ModelProblem) -> int:
    """Extension order max(4, k_min + 2m + 1), k_min the lowest normal order
    of the boundary operators."""
    return max(4, min(sym.orders[0] for sym in problem.boundary_symbols)
               + problem.order + 1)


def _taper(s: np.ndarray) -> np.ndarray:
    """C^2 quintic step from 1 at s <= 0 to 0 at s >= 1."""
    s = np.clip(s, 0.0, 1.0)
    return 1.0 - s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)


def seeley_extend(profile: np.ndarray, K: int, grid: UniformHalfGrid) -> np.ndarray:
    """Extend half-line samples to the doubled torus by the Seeley reflection
    of order K, FFT spatial order.

    Input: values at x = 0, h, ..., X-h (length N).  Output length 2N with
    indices N..2N-1 holding the reflected side x in [-X, 0).  The positive
    side is passed through untouched; the reflected node x = -h i takes
    ``sum_k c_k u[k i] * cutoff(h i)``, where samples at or beyond X read 0
    (the torus already assumes the data has decayed there) and the cutoff
    is a C^2 window, 1 for x <= X/4 and 0 for x >= 0.45 X.
    """
    if K < 1:
        raise ValueError("extension order must be >= 1")
    profile = np.asarray(profile)
    N = grid.N
    if profile.shape[-1] != N:
        raise ValueError(f"profile has {profile.shape[-1]} nodes, grid has {N}")
    padded = np.concatenate([profile, np.zeros_like(profile[..., :1])], axis=-1)
    i = np.arange(N, 0, -1)                  # torus index 2N - i holds x = -h i
    acc = sum(c * padded[..., np.minimum(k * i, N)]
              for k, c in enumerate(_seeley_coefficients(K), start=1))
    acc = acc * _taper((grid.h * i - 0.25 * grid.X) / (0.20 * grid.X))
    return np.concatenate([profile.astype(complex), acc], axis=-1)


def whole_space_resolvent(problem: mdl.ModelProblem, lam, f_hat: np.ndarray,
                          tgrid: TangentialGrid, xi_normal: np.ndarray,
                          rows) -> np.ndarray:
    """(lambda - A(D))^{-1} as the diagonal multiplier on 2-D frequency data.

    ``lam`` is one parameter or an array of them; the result has the shape
    ``lam.shape + f_hat.shape``.  ``f_hat`` holds the rows ``rows`` of the
    modes x normal-frequency grid (frequencies ``xi_normal``), but the
    ill-conditioning test, scaled by (1 + |xi'|^2 + xi_n^2)^m, covers every
    row.
    """
    lam = np.asarray(lam, dtype=complex)
    symbol = problem.interior_symbol(tgrid.xi_modes, xi_normal)
    weight = (1.0 + tgrid.xi_sq[:, None] + xi_normal ** 2) ** problem.m
    _check_multiplier(lam.reshape(-1), symbol, weight)
    denom = lam.reshape(lam.shape + (1, 1)) - symbol[rows]
    return np.divide(f_hat, denom, out=denom)


def _check_multiplier(lams: np.ndarray, symbol: np.ndarray, weight: np.ndarray) -> None:
    """Raise where |lambda - A| < 1e-14 (|lambda| + weight) on any row.

    Only a symbol value whose real part lies within 1e-14 (|lambda| + max
    weight) of Re lambda can fail, so the sorted real parts of the symbol
    pick the lambdas that need the full test (with a 4x margin for rounding).
    """
    re = np.sort(symbol.real, axis=None)
    reach = 4e-14 * (np.abs(lams) + weight.max())
    near = (np.searchsorted(re, lams.real + reach, side="right")
            > np.searchsorted(re, lams.real - reach))
    for lam in map(complex, lams[near]):
        if np.any(np.abs(lam - symbol) < 1e-14 * (abs(lam) + weight)):
            raise ValueError(f"resolvent multiplier ill conditioned at lambda={lam}")


@dataclass(frozen=True)
class ResolventResult:
    """R(lambda) f for one lambda or an array of them.

    Only the ``rows`` where f is nonzero are computed; every other row is
    exactly zero.
    """

    rows: np.ndarray         # (A,) active modes, where f is nonzero
    n_modes: int
    u_rows: np.ndarray       # lam.shape + (A, N), half-line samples on the rows

    @cached_property
    def u(self) -> np.ndarray:
        """lam.shape + (modes, N), half-line samples of R(lambda) f."""
        out = np.zeros(self.u_rows.shape[:-2] + (self.n_modes, self.u_rows.shape[-1]),
                       dtype=complex)
        out[..., self.rows, :] = self.u_rows
        return out


def halfspace_resolvent(problem: mdl.ModelProblem, lam, f: np.ndarray,
                        tgrid: TangentialGrid, ugrid: UniformHalfGrid) -> ResolventResult:
    """R(lambda) f on the half-space grid.

    ``f`` holds tangential-frequency data on modes x uniform normal nodes;
    ``lam`` is one parameter or an array of them.  One kernel batch covers
    every (lambda, mode) pair, and the extension, the multiplier, the
    inverse FFT, the traces and the Poisson correction run on the rows where
    ``f`` is nonzero only.
    """
    lam = np.asarray(lam, dtype=complex)
    f = np.asarray(f, dtype=complex)
    if f.shape != (tgrid.n_modes, ugrid.N):
        raise ValueError(f"f has shape {f.shape}, the grids hold "
                         f"{tgrid.n_modes} modes x {ugrid.N} nodes")
    rows = np.flatnonzero(np.any(f != 0, axis=-1))
    F = np.fft.fft(seeley_extend(f[rows], _seeley_order(problem), ugrid), axis=-1)
    W = whole_space_resolvent(problem, lam, F, tgrid, ugrid.xi_normal, rows)
    # D_n^l w at x = 0 from the normal-frequency data
    traces = problem.boundary_traces(
        tgrid.xi_modes[rows],
        lambda l: (W * ugrid.xi_normal ** l).sum(axis=-1) / W.shape[-1])
    u = np.fft.ifft(W, axis=-1)[..., : ugrid.N].copy()
    del W
    u -= kernel_batch(problem, lam, tgrid.xi_modes).eval(ugrid.x, traces, 0, rows)
    return ResolventResult(rows=rows, n_modes=tgrid.n_modes, u_rows=u)


def _fd_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Weights of d^order/dx^order at 0 from samples at ``offsets``."""
    if len(offsets) <= order:
        raise ValueError("not enough nodes for the requested derivative")
    A = np.vander(offsets, increasing=True).T
    rhs = np.zeros(len(offsets))
    rhs[order] = math.factorial(order)
    return np.linalg.solve(A, rhs)


def _fd_derivative(vals: np.ndarray, h: float, order: int) -> np.ndarray:
    """Central finite differences of accuracy >= 4 along the last axis.

    The r = (order + 3) // 2 nodes at either end, where the central stencil
    does not fit, are NaN; residual measurements exclude them via their
    interior margin.
    """
    vals = np.asarray(vals, dtype=complex)
    if order == 0:
        return vals.copy()
    r = (order + 3) // 2
    w = _fd_weights(np.arange(-r, r + 1) * h, order)
    out = np.full_like(vals, np.nan)
    n = vals.shape[-1]
    if n > 2 * r:
        out[..., r:n - r] = sum(w[k] * vals[..., k:n - 2 * r + k] for k in range(2 * r + 1))
    return out


def interior_residual_fd(problem: mdl.ModelProblem, lam: complex,
                         u: np.ndarray, f: np.ndarray,
                         tgrid: TangentialGrid, ugrid: UniformHalfGrid) -> float:
    """Relative residual ||(lambda - A(D))u - f|| by finite differences.

    Tangential derivatives are spectral (exact per mode); normal derivatives
    use repeated central differences, so the residual measures the honest
    discretization error at order 2.  Nodes within twice the problem order
    of either end are excluded (one-sided stencils there).
    """
    margin = 2 * problem.order
    sym = problem.interior_symbol
    # D_n = -i d/dx: D^l = (-i)^l (d/dx)^l
    Au = sym.contract(sym.table(tgrid.xi_modes)[:, None, :],
                      lambda l: (-1j) ** l * _fd_derivative(u, ugrid.h, l))
    res = lam * np.asarray(u) - Au - np.asarray(f)
    sl = slice(margin, ugrid.N - margin)
    denom = float(np.linalg.norm(f[:, sl]))
    if denom == 0:
        denom = max(abs(lam) * float(np.linalg.norm(u[:, sl])), 1e-300)
    return float(np.linalg.norm(res[:, sl])) / denom


def boundary_trace_fd(problem: mdl.ModelProblem, u: np.ndarray,
                      tgrid: TangentialGrid, ugrid: UniformHalfGrid) -> np.ndarray:
    """tr B_j(D) u at x_n = 0 for every j, shape (m,) + u.shape[:-1] (any
    leading axes, then modes x nodes); normal derivatives by one-sided FD on
    the first six nodes."""
    offsets = np.arange(6) * ugrid.h
    head = np.asarray(u)[..., :len(offsets)]
    return problem.boundary_traces(
        tgrid.xi_modes, lambda l: (head @ _fd_weights(offsets, l)) * (-1j) ** l)


# Contour quadrature (Weideman & Trefethen, Math. Comp. 76, 2007): N_C nodes
# on the hyperbola of asymptotic half-angle pi/2 + _ALPHA, truncated where
# e^{Re z t} has fallen to e^{-_TAIL}, shifted right by _SIGMA.
_N_C = 48
_ALPHA = math.pi / 5.0
_TAIL = 30.0
_SIGMA = 1.0


def semigroup_apply(problem: mdl.ModelProblem, u0: np.ndarray, t: float,
                    tgrid: TangentialGrid, ugrid: UniformHalfGrid) -> np.ndarray:
    """e^{t A_B} u0 by contour quadrature of the half-space resolvent.

    Contour: z(theta) = mu (1 - sin(alpha + i theta)), a left-opening
    hyperbola around the spectrum of A_B - _SIGMA; resolvents are evaluated
    at z + _SIGMA, and the factor e^{_SIGMA t} restores the unshifted
    semigroup.  Requires the working angle phi > pi/2 so that the asymptotic
    contour directions (pi/2 + alpha) stay inside the sector.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if problem.phi <= math.pi / 2:
        raise ValueError("semigroup needs working angle phi > pi/2")
    if math.pi / 2 + _ALPHA >= problem.phi:
        raise ValueError("contour asymptote leaves the verified sector")
    mu = 0.25 * _N_C / t
    # truncate where e^{Re z t} has decayed below the tail tolerance
    ch = (1.0 + _TAIL / (mu * t)) / math.sin(_ALPHA)
    theta_max = math.acosh(max(ch, 1.0 + 1e-9))
    # increasing theta moves the contour point downward in the imaginary
    # direction; reversing the node order keeps the Bromwich orientation
    # (upward through the right half-plane)
    thetas = np.linspace(theta_max, -theta_max, _N_C)
    h = thetas[1] - thetas[0]
    z = [mu * (1.0 - cmath.sin(_ALPHA + 1j * th)) for th in thetas]
    dz = [-1j * mu * cmath.cos(_ALPHA + 1j * th) for th in thetas]
    u0 = np.asarray(u0, dtype=complex)
    res = halfspace_resolvent(problem, np.array([zk + _SIGMA for zk in z]),
                              u0, tgrid, ugrid)
    # accumulate in node order: the sum is the same, bit for bit, as one
    # resolvent solve per node
    acc = np.zeros((len(res.rows), ugrid.N), dtype=complex)
    for zk, dzk, uk in zip(z, dz, res.u_rows):
        acc += (cmath.exp(zk * t) * dzk) * uk
    full = np.zeros_like(u0)
    full[res.rows] = acc
    return math.exp(_SIGMA * t) * (h / (2.0j * math.pi)) * full
