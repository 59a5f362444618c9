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
Seeley/Hestenes extension ``u(-x) = sum_k c_k u(x/k) * cutoff(x)`` whose
coefficients match derivatives up to order K-1 across 0 (Vandermonde system
``sum_k c_k (-1/k)^l = 1``).

Work is split by its dependence on lambda.  :func:`resolvent_source` builds
once per datum ``f`` and grid pair what no lambda changes: the Seeley
extension of ``f`` and its FFT, the full symbol A(xi', xi_n), the weight
(1 + |xi'|^2 + xi_n^2)^m of the conditioning test, and the tangential factors
of the boundary operators.  Each lambda then costs only
:func:`halfspace_resolvent`: the multiplier ``(lambda - A)^{-1}`` with its
ill-conditioning check, one inverse FFT, the boundary traces, and the Poisson
correction from one kernel batch that serves all m boundary indices.

The semigroup uses trapezoid quadrature of ``(2 pi i)^{-1} \\oint e^{z t}
R(z + sigma) dz`` over a left-opening hyperbola; resolvents are only ever
evaluated at ``z + sigma``, which stays inside the verified sector.  One
source serves all contour nodes of a :func:`semigroup_apply` call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from . import model as mdl
from .grids import TangentialGrid, UniformHalfGrid
from .poisson import kernel_batch

__all__ = [
    "ExtensionOperator",
    "seeley_extend",
    "multiplier_data",
    "whole_space_resolvent",
    "ResolventSource",
    "resolvent_source",
    "halfspace_resolvent",
    "ResolventResult",
    "interior_residual_fd",
    "boundary_trace_fd",
    "semigroup_apply",
]


@dataclass(frozen=True)
class ExtensionOperator:
    """Truncated Seeley/Hestenes reflection of order K."""

    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("extension order must be >= 1")

    @staticmethod
    def for_problem(problem: mdl.ModelProblem) -> "ExtensionOperator":
        return ExtensionOperator(K=max(4, mdl.k_max(problem) + problem.order + 1))

    @cached_property
    def coefficients(self) -> np.ndarray:
        """c_1..c_K solving sum_k c_k (-1/k)^l = 1 for l = 0..K-1."""
        ks = np.arange(1, self.K + 1, dtype=float)
        V = (-1.0 / ks) ** np.arange(self.K)[:, None]
        return np.linalg.solve(V, np.ones(self.K))

    @staticmethod
    def cutoff(x: np.ndarray, X: float) -> np.ndarray:
        """C^2 window: 1 for x <= X/4, 0 for x >= 0.45 X (quintic smoothstep)."""
        s = np.clip((np.asarray(x) - 0.25 * X) / (0.20 * X), 0.0, 1.0)
        return 1.0 - s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)


def seeley_extend(profile: np.ndarray, ext: ExtensionOperator,
                  grid: UniformHalfGrid) -> np.ndarray:
    """Extend half-line samples to the doubled torus, FFT spatial order.

    Input: values at x = 0, h, ..., X-h (length N).  Output length 2N with
    indices N..2N-1 holding the reflected side x in [-X, 0).  The positive
    side is passed through untouched; the reflection samples ``u(x/k)`` by
    cubic interpolation.
    """
    profile = np.asarray(profile)
    N = grid.N
    if profile.shape[-1] != N:
        raise ValueError(f"profile has {profile.shape[-1]} nodes, grid has {N}")
    spline = CubicSpline(grid.x, profile, axis=-1)
    x_neg = grid.h * np.arange(N, 2 * N) - 2.0 * grid.X   # in [-X, 0)
    x_pos = -x_neg                                        # in (0, X]
    x_pos = np.minimum(x_pos, grid.x[-1])
    acc = np.zeros(profile.shape[:-1] + (N,), dtype=complex)
    for k, c in enumerate(ext.coefficients, start=1):
        acc += c * spline(x_pos / k)
    acc *= ext.cutoff(x_pos, grid.X)
    return np.concatenate([profile.astype(complex), acc], axis=-1)


def multiplier_data(problem: mdl.ModelProblem, tgrid: TangentialGrid,
                    xi_normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symbol A(xi', xi_n) and the weight (1 + |xi'|^2 + xi_n^2)^m.

    Both live on modes x normal frequencies; the weight scales the
    ill-conditioning test of :func:`whole_space_resolvent`.
    """
    xi_normal = np.asarray(xi_normal)
    xi_modes = tgrid.xi_modes
    Nq = xi_modes.shape[0]
    symbol = np.zeros((Nq, len(xi_normal)), dtype=complex)
    for alpha, a in problem.interior_coeffs.items():
        tang = np.full(Nq, a, dtype=complex)
        for ax, e in enumerate(alpha[:-1]):
            if e:
                tang = tang * xi_modes[:, ax] ** e
        symbol += tang[:, None] * xi_normal[None, :] ** alpha[-1]
    weight = (1.0 + tgrid.xi_sq.reshape(-1, 1) + xi_normal[None, :] ** 2) ** problem.m
    return symbol, weight


def whole_space_resolvent(lam: complex, f_hat: np.ndarray, symbol: np.ndarray,
                          weight: np.ndarray) -> np.ndarray:
    """(lambda - A(D))^{-1} as the diagonal multiplier on 2-D frequency data."""
    lam = complex(lam)
    denom = lam - symbol
    if np.any(np.abs(denom) < 1e-14 * (abs(lam) + weight)):
        raise ValueError(f"resolvent multiplier ill conditioned at lambda={lam}")
    return np.asarray(f_hat) / denom


@dataclass(frozen=True)
class ResolventSource:
    """The lambda-independent part of R(lambda) f for one f on one grid pair."""

    F: np.ndarray            # modes x 2N, FFT of the Seeley extension of f
    symbol: np.ndarray       # modes x 2N, A(xi', xi_n)
    weight: np.ndarray       # modes x 2N, (1 + |xi'|^2 + xi_n^2)^m
    boundary_terms: tuple    # per B_j: ((normal order l, tangential factor), ...)


def resolvent_source(problem: mdl.ModelProblem, f: np.ndarray,
                     tgrid: TangentialGrid, ugrid: UniformHalfGrid,
                     ext: ExtensionOperator | None = None) -> ResolventSource:
    """Everything in R(lambda) f that does not depend on lambda.

    ``f`` holds tangential-frequency data on modes x uniform normal nodes.
    """
    if ext is None:
        ext = ExtensionOperator.for_problem(problem)
    f = np.asarray(f, dtype=complex).reshape(-1, ugrid.N)
    F = np.fft.fft(seeley_extend(f, ext, ugrid), axis=-1)
    symbol, weight = multiplier_data(problem, tgrid, ugrid.xi_normal)
    xi_modes = tgrid.xi_modes
    Nq = xi_modes.shape[0]
    terms = []
    for bop in problem.boundary_ops:
        row = []
        for beta, bcoef in bop.coeffs.items():
            tang = np.full(Nq, bcoef, dtype=complex)
            for ax, e in enumerate(beta[:-1]):
                if e:
                    tang = tang * xi_modes[:, ax] ** e
            row.append((beta[-1], tang))
        terms.append(tuple(row))
    return ResolventSource(F=F, symbol=symbol, weight=weight,
                           boundary_terms=tuple(terms))


@dataclass(frozen=True)
class ResolventResult:
    u: np.ndarray            # modes x N, half-line samples of R(lambda)f
    w: np.ndarray            # modes x N, uncorrected whole-space part
    traces: np.ndarray       # m x modes, tr B_j w used for the correction


def _normal_derivative_traces(W: np.ndarray, xi_normal: np.ndarray,
                              orders) -> dict[int, np.ndarray]:
    """Values of D_n^l w at x = 0 from normal-frequency data (per mode)."""
    M = W.shape[-1]
    return {
        l: (W * xi_normal[None, :] ** l).sum(axis=-1) / M
        for l in orders
    }


def halfspace_resolvent(problem: mdl.ModelProblem, lam: complex,
                        src: ResolventSource, tgrid: TangentialGrid,
                        ugrid: UniformHalfGrid) -> ResolventResult:
    """R(lambda) f on the half-space grid, from the source of f."""
    lam = complex(lam)
    if src.F.shape != (tgrid.n_modes, 2 * ugrid.N):
        raise ValueError("resolvent source was built on other grids")
    W = whole_space_resolvent(lam, src.F, src.symbol, src.weight)
    w_ext = np.fft.ifft(W, axis=-1)
    w = w_ext[:, : ugrid.N]

    orders_needed = sorted({l for row in src.boundary_terms for l, _ in row})
    dtr = _normal_derivative_traces(W, ugrid.xi_normal, orders_needed)
    m = problem.m
    traces = np.zeros((m, tgrid.n_modes), dtype=complex)
    for j, row in enumerate(src.boundary_terms):
        for l, tang in row:
            traces[j] += tang * dtr[l]

    kernels = kernel_batch(problem, lam, tgrid.xi_modes).eval(ugrid.x, 0)
    u = w.copy()
    for j in range(m):
        u -= kernels[j] * traces[j][:, None]
    return ResolventResult(u=u, w=w, traces=traces)


def _central_fd_weights(order: int, half_width: int, h: float) -> np.ndarray:
    """Weights of d^order/dx^order on the symmetric stencil -r h, ..., r h."""
    offsets = np.arange(-half_width, half_width + 1) * h
    A = np.vander(offsets, increasing=True).T
    rhs = np.zeros(len(offsets))
    rhs[order] = math.factorial(order)
    return np.linalg.solve(A, rhs)


def _fd_derivative(vals: np.ndarray, h: float, order: int) -> np.ndarray:
    """Central finite differences of accuracy >= 4 along the last axis.

    Edge nodes fall back to nested second-order differences; residual
    measurements exclude them via their interior margin.
    """
    vals = np.asarray(vals, dtype=complex)
    if order == 0:
        return vals.copy()
    n_pts = order + 3
    if n_pts % 2 == 0:
        n_pts += 1
    r = n_pts // 2
    w = _central_fd_weights(order, r, h)
    out = vals.copy()
    for _ in range(order):
        out = np.gradient(out, h, axis=-1, edge_order=2)
    n = vals.shape[-1]
    if n >= n_pts:
        interior = sum(w[k] * vals[..., k:n - n_pts + 1 + k] for k in range(n_pts))
        out[..., r:n - r] = interior
    return out


def interior_residual_fd(problem: mdl.ModelProblem, lam: complex,
                         u: np.ndarray, f: np.ndarray,
                         tgrid: TangentialGrid, ugrid: UniformHalfGrid,
                         margin: int | None = None) -> float:
    """Relative residual ||(lambda - A(D))u - f|| by finite differences.

    Tangential derivatives are spectral (exact per mode); normal derivatives
    use repeated central differences, so the residual measures the honest
    discretization error at order 2.  Nodes within ``margin`` of either end
    are excluded (one-sided stencils there).
    """
    order = problem.order
    if margin is None:
        margin = 2 * order
    xi_modes = tgrid.xi_modes
    Nq = xi_modes.shape[0]
    Au = np.zeros((Nq, ugrid.N), dtype=complex)
    derivs = {}
    for alpha, a in problem.interior_coeffs.items():
        l = alpha[-1]
        if l not in derivs:
            # D_n = -i d/dx: D^l = (-i)^l (d/dx)^l
            derivs[l] = (-1j) ** l * _fd_derivative(u, ugrid.h, l)
        tang = np.full(Nq, a, dtype=complex)
        for ax, e in enumerate(alpha[:-1]):
            if e:
                tang = tang * xi_modes[:, ax] ** e
        Au += tang[:, None] * derivs[l]
    res = lam * np.asarray(u) - Au - np.asarray(f)
    sl = slice(margin, ugrid.N - margin)
    denom = float(np.linalg.norm(f[:, sl]))
    if denom == 0:
        denom = max(abs(lam) * float(np.linalg.norm(u[:, sl])), 1e-300)
    return float(np.linalg.norm(res[:, sl])) / denom


def _onesided_fd_weights(order: int, n_pts: int, h: float) -> np.ndarray:
    """Weights of d^order/dx^order at x = 0 from nodes 0, h, ..., (n-1)h."""
    if n_pts <= order:
        raise ValueError("not enough nodes for the requested derivative")
    A = np.vander(np.arange(n_pts) * h, increasing=True).T
    rhs = np.zeros(n_pts)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(A, rhs)


def boundary_trace_fd(problem: mdl.ModelProblem, u: np.ndarray,
                      tgrid: TangentialGrid, ugrid: UniformHalfGrid,
                      j: int, n_pts: int = 6) -> np.ndarray:
    """tr B_j(D) u at x_n = 0 per mode, normal derivatives by one-sided FD."""
    xi_modes = tgrid.xi_modes
    Nq = xi_modes.shape[0]
    out = np.zeros(Nq, dtype=complex)
    for beta, bcoef in problem.boundary_ops[j].coeffs.items():
        l = beta[-1]
        wts = _onesided_fd_weights(l, n_pts, ugrid.h)
        dval = (np.asarray(u)[:, :n_pts] @ wts) * (-1j) ** l
        tang = np.full(Nq, bcoef, dtype=complex)
        for ax, e in enumerate(beta[:-1]):
            if e:
                tang = tang * xi_modes[:, ax] ** e
        out += tang * dval
    return out


@dataclass(frozen=True)
class ContourParams:
    N_c: int = 48
    alpha: float = math.pi / 5.0
    sigma_shift: float = 1.0
    tail: float = 30.0


def semigroup_apply(problem: mdl.ModelProblem, u0: np.ndarray, t: float,
                    tgrid: TangentialGrid, ugrid: UniformHalfGrid,
                    contour: ContourParams | None = None,
                    ext: ExtensionOperator | None = None) -> np.ndarray:
    """e^{t A_B} u0 by contour quadrature of the half-space resolvent.

    Contour: z(theta) = mu (1 - sin(alpha + i theta)), a left-opening
    hyperbola around the spectrum of A_B - sigma; resolvents are evaluated at
    z + sigma, and the factor e^{sigma t} restores the unshifted semigroup.
    Requires the working angle phi > pi/2 so that the asymptotic contour
    directions (pi/2 + alpha) stay inside the sector.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if contour is None:
        contour = ContourParams()
    if problem.phi <= math.pi / 2:
        raise ValueError("semigroup needs working angle phi > pi/2")
    if math.pi / 2 + contour.alpha >= problem.phi:
        raise ValueError("contour asymptote leaves the verified sector")
    sigma = contour.sigma_shift
    N_c = contour.N_c
    mu = 0.25 * N_c / t
    # truncate where e^{Re z t} has decayed below the tail tolerance
    ch = (1.0 + contour.tail / (mu * t)) / math.sin(contour.alpha)
    theta_max = math.acosh(max(ch, 1.0 + 1e-9))
    # increasing theta moves the contour point downward in the imaginary
    # direction; reversing the node order keeps the Bromwich orientation
    # (upward through the right half-plane)
    thetas = np.linspace(theta_max, -theta_max, N_c)
    h = thetas[1] - thetas[0]
    u0 = np.asarray(u0, dtype=complex).reshape(-1, ugrid.N)
    src = resolvent_source(problem, u0, tgrid, ugrid, ext)
    acc = np.zeros_like(u0)
    for th in thetas:
        z = mu * (1.0 - cmath.sin(contour.alpha + 1j * th))
        dz = -1j * mu * cmath.cos(contour.alpha + 1j * th)
        res = halfspace_resolvent(problem, z + sigma, src, tgrid, ugrid)
        acc += (cmath.exp(z * t) * dz) * res.u
    return math.exp(sigma * t) * (h / (2.0j * math.pi)) * acc
