"""Half-space resolvent via extension-restriction plus boundary correction,
and the holomorphic semigroup via sectorial contour quadrature.

The construction mirrors the solution formula

    R(lambda) f = r_+ (lambda - A(D))^{-1} E f
                  - sum_j pr_1 Poi_j(lambda) tr_{x_n=0} B_j(D) (lambda - A(D))^{-1} E f,

where ``E`` is a reflection-type extension to the whole space: the first term
solves the equation but spoils the boundary conditions, and the Poisson
correction removes exactly the stray boundary values (delta-normalization of
the kernels).

Discretization: tangential modes are the rows of ``xi_modes``; the normal
variable on a uniform grid over [0, X) doubled to a torus [-X, X) so the
whole-space multiplier is one 1-D FFT per mode.  The reflected side holds the
Hestenes/Seeley extension ``u(-x) = sum_k c_k u(k x) * cutoff(x)`` whose
coefficients match derivatives up to order K-1 across 0 (Vandermonde system
``sum_k c_k (-k)^l = 1``).  The dilations are integers, so at a grid node
``x = h i`` the reflection reads the grid samples at ``k i``: no interpolation.

R(lambda) f is one call from the datum: :func:`halfspace_resolvent` takes
``f`` (modes x uniform normal nodes) and one lambda or an array of them, and
solves every row of ``xi_modes``.  Every operator is diagonal in the
tangential modes, so a zero row of ``f`` stays exactly zero through the FFT,
the multiplier and the traces, and :meth:`~halfpoisson.poisson.KernelBatch.eval`
skips it; a caller that wants fewer rows passes fewer rows.  The call runs
the Seeley extension and its FFT, the multiplier ``(lambda - A)^{-1}`` for
every lambda at once (:func:`whole_space_resolvent`, which also tests it for
ill-conditioning), the inverse FFT and the boundary traces by blocks of
lambdas, and the Poisson correction from one kernel batch over every
(lambda, mode) pair that serves all m boundary indices and checks the root
margin, root count and LS measure on every pair.  Given weights, the call
returns the weighted sum over the lambdas instead: one inverse FFT of the
summed frequency data, less the Poisson correction of the weighted traces
summed over the lambdas.

The semigroup uses trapezoid quadrature of ``(2 pi i)^{-1} \\oint e^{z t}
R(z + _SIGMA) dz`` over a left-opening hyperbola; resolvents are only ever
evaluated at ``z + _SIGMA``, which stays inside the verified sector.  One
weighted :func:`halfspace_resolvent` call, with the quadrature weights
e^{z t} dz, serves all contour nodes of a :func:`semigroup_apply` call: it
makes one inverse FFT and one Poisson correction, not one per node, and its
bits differ from the sum of per-node solves by rounding.

The hyperbola is symmetric about the real axis, z(-theta) = conj z(theta),
and for a real operator and real data R(conj lambda) f = conj(R(lambda) f),
so half of the nodes are conjugates of the others.  The test is per row
and exact: the row's interior table is tau-even with real entries, each of
its boundary rows times (-i)^l is one complex scalar times a real vector,
and its data have a zero imaginary part.  Such a row takes one weighted call
on the nodes with theta > 0 only, Y, and the sum c (Y - conj Y), exactly
real; every other row (complex data, as ``ibvp_solve``'s initial state, or
an oblique boundary row with a tangential part) still takes all nodes, with
the bits of one call on them.  The routes differ only through the torus's
unpaired Nyquist frequency in odd-order traces: the pair route sums the
conjugate-symmetric part of the discrete operator.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import model as mdl
from .grids import UniformHalfGrid
from .poisson import kernel_batch

__all__ = [
    "seeley_extend",
    "whole_space_resolvent",
    "halfspace_resolvent",
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
                          xi_modes: np.ndarray, xi_normal: np.ndarray) -> np.ndarray:
    """(lambda - A(D))^{-1} as the diagonal multiplier on 2-D frequency data.

    ``lam`` is one parameter or an array of them; ``f_hat`` holds the
    ``xi_modes`` x normal-frequency grid (frequencies ``xi_normal``), and the
    result has the shape ``lam.shape + f_hat.shape``.  Raises where the
    multiplier is ill conditioned, scaled by (1 + |xi'|^2 + xi_n^2)^m.
    """
    lam = np.asarray(lam, dtype=complex)
    symbol = problem.interior_symbol(xi_modes, xi_normal)
    weight = (1.0 + (xi_modes ** 2).sum(1)[:, None] + xi_normal ** 2) ** problem.m
    _check_multiplier(lam.reshape(-1), symbol, weight)
    denom = lam.reshape(lam.shape + (1, 1)) - symbol
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


def _check_data(f: np.ndarray, xi_modes: np.ndarray, ugrid: UniformHalfGrid) -> None:
    if f.shape != (len(xi_modes), ugrid.N):
        raise ValueError(f"f has shape {f.shape}, the grids hold "
                         f"{len(xi_modes)} modes x {ugrid.N} nodes")


def halfspace_resolvent(problem: mdl.ModelProblem, lam, f: np.ndarray,
                        xi_modes: np.ndarray, ugrid: UniformHalfGrid,
                        weights=None) -> np.ndarray:
    """R(lambda) f on the half-space grid, shape ``lam.shape + (M, N)``.

    ``f`` holds data on the M modes ``xi_modes`` x the N uniform normal
    nodes; ``lam`` is one parameter or an array of them.  Every row is
    solved, and one kernel batch covers every (lambda, mode) pair; a row
    where ``f`` vanishes comes out exactly zero.

    With ``weights`` (the shape of ``lam``) the result is the sum over k of
    ``weights[k] R(lam[k]) f``, shape (M, N).  Every step before the Poisson
    correction is diagonal in the normal frequency and the correction is
    linear in the traces, so the sum is taken on the frequency data (one
    inverse FFT) and on the correction's rows (one evaluation on the
    weighted traces, summed in node order); every check still runs on every
    lambda.  Its bits differ from the weighted sum of the unweighted result
    by rounding, and a row's bits do not depend on the other rows.
    """
    lam = np.asarray(lam, dtype=complex)
    f = np.asarray(f, dtype=complex)
    _check_data(f, xi_modes, ugrid)
    if weights is not None and np.shape(weights) != lam.shape:
        raise ValueError(f"weights have shape {np.shape(weights)}, "
                         f"lambda has shape {lam.shape}")
    lams = lam.reshape(-1)
    xi_n = ugrid.xi_normal
    if weights is None:
        # u is made before the frequency data W, and the traces and the
        # inverse FFT read W in blocks of 256 kB: with no temporary as large
        # as W beside it, glibc keeps what a call frees for the next one
        # instead of unmapping it and faulting it in again
        u = np.empty((lams.size,) + f.shape, dtype=complex)
        traces = np.empty((problem.m,) + u.shape[:-1], dtype=complex)
    F = np.fft.fft(seeley_extend(f, _seeley_order(problem), ugrid), axis=-1)
    W = whole_space_resolvent(problem, lams, F, xi_modes, xi_n)
    if weights is not None:
        # einsums, not matmuls: a row's bits do not depend on its stack, and
        # none makes a temporary the size of W, for the reason above
        weights = np.asarray(weights, dtype=complex).reshape(-1)
        traces = problem.boundary_traces(xi_modes, lambda l: np.einsum(
            "kmx,x->km", W, xi_n ** l / W.shape[-1])) * weights[:, None]
        u = np.fft.ifft(np.einsum("k,kmx->mx", weights, W), axis=-1)[..., : ugrid.N]
    else:
        step = max(1, (1 << 18) // max(W[:1].nbytes, 1))
        for i in range(0, len(W), step):
            # D_n^l w at x = 0 from the normal-frequency data
            traces[:, i:i + step] = problem.boundary_traces(xi_modes, lambda l: (
                W[i:i + step] * xi_n ** l).sum(axis=-1) / W.shape[-1])
            u[i:i + step] = np.fft.ifft(W[i:i + step], axis=-1)[..., : ugrid.N]
    del W
    correction = kernel_batch(problem, lams, xi_modes).eval(ugrid.x, traces, 0)
    # with weights, the nodes' corrections are summed in node order
    u -= correction if weights is None else correction.sum(axis=0)
    return u.reshape(lam.shape + f.shape if weights is None else f.shape)


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
                         xi_modes: np.ndarray, ugrid: UniformHalfGrid) -> float:
    """Relative residual ||(lambda - A(D))u - f|| by finite differences.

    Tangential derivatives are spectral (exact per mode); normal derivatives
    use repeated central differences, so the residual measures the honest
    discretization error at order 2.  Nodes within twice the problem order
    of either end are excluded (one-sided stencils there).
    """
    margin = 2 * problem.order
    sym = problem.interior_symbol
    # D_n = -i d/dx: D^l = (-i)^l (d/dx)^l
    Au = sym.contract(sym.table(xi_modes)[:, None, :],
                      lambda l: (-1j) ** l * _fd_derivative(u, ugrid.h, l))
    res = lam * np.asarray(u) - Au - np.asarray(f)
    sl = slice(margin, ugrid.N - margin)
    denom = float(np.linalg.norm(f[:, sl]))
    if denom == 0:
        denom = max(abs(lam) * float(np.linalg.norm(u[:, sl])), 1e-300)
    return float(np.linalg.norm(res[:, sl])) / denom


def boundary_trace_fd(problem: mdl.ModelProblem, u: np.ndarray,
                      xi_modes: np.ndarray, ugrid: UniformHalfGrid) -> np.ndarray:
    """tr B_j(D) u at x_n = 0 for every j, shape (m,) + u.shape[:-1] (any
    leading axes, then modes x nodes); one-sided FD on the first six nodes,
    by einsum: unlike a matmul, a row's bits do not depend on its stack."""
    offsets = np.arange(6) * ugrid.h
    head = np.asarray(u)[..., :len(offsets)]
    return problem.boundary_traces(xi_modes, lambda l: np.einsum(
        "...i,i->...", head, _fd_weights(offsets, l)) * (-1j) ** l)


# Contour quadrature (Weideman & Trefethen, Math. Comp. 76, 2007): N_C nodes
# on the hyperbola of asymptotic half-angle pi/2 + _ALPHA, truncated where
# e^{Re z t} has fallen to e^{-_TAIL}, shifted right by _SIGMA.  N_C is even,
# so the first N_C / 2 nodes are those with theta > 0.
_N_C = 48
_ALPHA = math.pi / 5.0
_TAIL = 30.0
_SIGMA = 1.0


def _contour(t: float):
    """The contour of :func:`semigroup_apply` at time t: its ``_N_C`` nodes
    z_k + _SIGMA (the resolvent parameters) and weights e^{z_k t} dz_k, in
    node order, and the scalar c = e^{_SIGMA t} h / (2 pi i), so that
    e^{t A_B} u0 = c sum_k weights[k] R(nodes[k]) u0.

    z(theta) = mu (1 - sin(alpha + i theta)) on theta = theta_max ... -theta_max:
    increasing theta moves the point downward in the imaginary direction, so
    reversing the order keeps the Bromwich orientation (upward through the
    right half-plane).  z(-theta) = conj z(theta) and dz(-theta) =
    -conj dz(theta).
    """
    mu = 0.25 * _N_C / t
    # truncate where e^{Re z t} has decayed below the tail tolerance
    ch = (1.0 + _TAIL / (mu * t)) / math.sin(_ALPHA)
    theta_max = math.acosh(max(ch, 1.0 + 1e-9))
    thetas = np.linspace(theta_max, -theta_max, _N_C)
    h = thetas[1] - thetas[0]
    z = [mu * (1.0 - cmath.sin(_ALPHA + 1j * th)) for th in thetas]
    dz = [-1j * mu * cmath.cos(_ALPHA + 1j * th) for th in thetas]
    weights = np.array([cmath.exp(zk * t) * dzk for zk, dzk in zip(z, dz)])
    return (np.array([zk + _SIGMA for zk in z]), weights,
            math.exp(_SIGMA * t) * (h / (2.0j * math.pi)))


# (-i)^l exactly, l = 0..3: D_n^l = (-i d/dx)^l
_MINUS_I_POWERS = np.array([1.0, -1.0j, -1.0, 1.0j])


def _conjugate_rows(problem: mdl.ModelProblem, xi_modes: np.ndarray,
                    f: np.ndarray) -> np.ndarray:
    """Rows q with R(conj lambda) f[q] = conj(R(lambda) f[q]), (M,) bool.

    A row qualifies when its interior table is tau-even with real entries,
    each of its boundary rows times (-i)^l is one complex scalar times a
    real vector, and its data have an exactly zero imaginary part.  Then
    A(xi', D_n) and conj commute, and each B_j, up to its scalar, maps real
    normal profiles to real traces, so the correction of a conjugate datum
    is the conjugate correction.  Every test compares with zero exactly: an
    odd-order or imaginary entry of any size, or a nan, fails it.  The
    boundary test asks every cross product Re v_k Im v_l - Im v_k Re v_l of
    two entries, computed in floating point, to be zero, so entries that
    pass are parallel to the rounding of one product.
    """
    a = problem.interior_symbol.table(xi_modes)
    b = problem.boundary_table(xi_modes) * _MINUS_I_POWERS[
        np.arange(problem.order) % 4]
    cross = (b.real[..., :, None] * b.imag[..., None, :]
             - b.imag[..., :, None] * b.real[..., None, :])
    return ~(a[:, 1::2].any(axis=1) | a.imag.any(axis=1)
             | cross.any(axis=(1, 2, 3)) | np.imag(f).any(axis=1))


def semigroup_apply(problem: mdl.ModelProblem, u0: np.ndarray, t: float,
                    xi_modes: np.ndarray, ugrid: UniformHalfGrid) -> np.ndarray:
    """e^{t A_B} u0 by contour quadrature of the half-space resolvent.

    The contour (:func:`_contour`) is a left-opening hyperbola around the
    spectrum of A_B - _SIGMA; resolvents are evaluated at z + _SIGMA, and
    the factor e^{_SIGMA t} restores the unshifted semigroup.  Requires the
    working angle phi > pi/2, so that the asymptotic contour directions
    (pi/2 + alpha) stay inside the sector, and a finite t > 0.  The
    quadrature sum is a weighted :func:`halfspace_resolvent` call, taken
    before the inverse FFT and the Poisson correction.

    The contour is symmetric about the real axis: the node at -theta is the
    conjugate of the node at theta, with weight -conj w.  A row that passes
    :func:`_conjugate_rows` (a real, tau-even interior row, boundary rows
    times (-i)^l real up to one scalar each, real data) takes c (Y - conj
    Y), Y the weighted call on the N_C / 2 nodes with theta > 0 only, and
    comes out exactly real.  Every other row takes all N_C nodes, with the
    bits of one call on all rows: at most two calls, and no row's bits
    depend on the other rows.  A row without data is zero on either route;
    it joins the call on all nodes if there is one, where its checks run on
    every node.  The routes differ by rounding and by the torus's unpaired
    Nyquist frequency in odd-order traces, which the pair route leaves out:
    it sums the conjugate-symmetric part of the discrete operator.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    if problem.phi <= math.pi / 2:
        raise ValueError("semigroup needs working angle phi > pi/2")
    if math.pi / 2 + _ALPHA >= problem.phi:
        raise ValueError("contour asymptote leaves the verified sector")
    lam, weights, c = _contour(t)
    u0, xi_modes = np.asarray(u0), np.asarray(xi_modes)
    _check_data(u0, xi_modes, ugrid)
    pair = _conjugate_rows(problem, xi_modes, u0)
    if not pair.all():
        pair &= u0.any(axis=1)

    def solve(rows, nodes):
        f, xi = (u0, xi_modes) if rows.all() else (u0[rows], xi_modes[rows])
        return halfspace_resolvent(problem, lam[nodes], f, xi, ugrid,
                                   weights=weights[nodes])

    if not pair.any():
        return c * solve(~pair, slice(None))
    out = np.empty(u0.shape, dtype=complex)
    Y = solve(pair, slice(_N_C // 2))
    out[pair] = (c * (Y - Y.conj())).real
    if not pair.all():
        out[~pair] = c * solve(~pair, slice(None))
    return out
