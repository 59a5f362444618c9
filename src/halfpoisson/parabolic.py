"""Time-dependent solvers built on the frequency-side machinery.

Whole-line problem (boundary data on t in R, periodized):

    d/dt u + sigma u - A(D) u = 0,   B_j(D) u|_{x_n=0} = g_j,

solved per temporal frequency tau by the elliptic solver at
lambda = sigma + i tau (the shift sigma > 0 keeps lambda inside the sector
even at tau = 0; the working angle phi > pi/2 covers the whole imaginary
axis).  The time torus is a one-axis :class:`~halfpoisson.grids.TangentialGrid`
(N = N_t nodes, L = the period); its ``xi_axis`` are the tau.

Initial-boundary problem on (0, T], without forcing: substitute
v = e^{-sigma t} u (sigma = _SHIFT), then split v = r_[0,T] v1 + v2 where v1
solves the whole-line boundary problem for a smooth temporal extension of the
shifted boundary data, and

    v2(t) = S(t)[u0 - v1(0)]

with S the semigroup of A_B - sigma (contour quadrature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import model as mdl
from .grids import TangentialGrid, UniformHalfGrid
from .poisson import kernel_batch
from .resolvent import _taper, boundary_trace_fd, semigroup_apply

__all__ = [
    "parabolic_boundary_solve",
    "ParabolicSolution",
    "ibvp_solve",
    "IbvpSolution",
    "extend_time_data",
]


@dataclass(frozen=True)
class ParabolicSolution:
    """The temporal-frequency data of the solution, for exact evaluation."""

    freq_data: np.ndarray     # (N_t temporal modes, modes, n_x)
    tgrid_t: TangentialGrid   # the time torus, one axis of N_t nodes

    @cached_property
    def values(self) -> np.ndarray:
        """Solution samples at the grid times, (N_t, modes, n_x)."""
        return np.fft.ifft(self.freq_data, axis=0) * self.tgrid_t.N

    def at_time(self, t: float) -> np.ndarray:
        """Evaluate the trigonometric interpolant at an arbitrary time."""
        phases = np.exp(1j * self.tgrid_t.xi_axis * t)
        return np.tensordot(phases, self.freq_data, axes=(0, 0))


def parabolic_boundary_solve(problem: mdl.ModelProblem, g, sigma: float,
                             tgrid_t: TangentialGrid, tgrid: TangentialGrid,
                             x_nodes) -> ParabolicSolution:
    """Whole-line boundary solver: per temporal frequency one elliptic solve.

    ``g`` (m, N_t, modes) samples the boundary data time series in
    tangential frequency at the N_t nodes of the time torus ``tgrid_t`` (one
    axis); each temporal frequency tau is solved at lambda = sigma + i tau,
    sigma > 0.  Returns u on (N_t, modes, len(x_nodes)).  One
    kernel batch covers every (temporal frequency, mode) pair, and
    :meth:`~halfpoisson.poisson.KernelBatch.eval` applies ``sum_j Poi_j`` to
    the temporal Fourier coefficients of the g_j: a pair where every
    coefficient vanishes is exactly zero and not evaluated.
    """
    if not sigma > 0:
        raise ValueError(f"'sigma' must be positive, got {sigma}")
    x_nodes = np.asarray(x_nodes, dtype=float)
    N_t, M = tgrid_t.N, tgrid.n_modes
    g = np.asarray(g, dtype=complex)
    if g.shape != (problem.m, N_t, M):
        raise ValueError(f"g has shape {g.shape}, need (m, N_t, modes) = "
                         f"{(problem.m, N_t, M)}")
    # temporal Fourier coefficients: g(t) = sum_k ghat_k e^{i tau_k t}
    ghat = np.fft.fft(g, axis=1) / N_t
    batch = kernel_batch(problem, sigma + 1j * tgrid_t.xi_axis, tgrid.xi_modes)
    return ParabolicSolution(freq_data=batch.eval(x_nodes, ghat), tgrid_t=tgrid_t)


def extend_time_data(g_vals: np.ndarray) -> np.ndarray:
    """Reflect-and-taper extension of data on [0, T] to the torus [0, 4T).

    ``g_vals`` samples g at the N_t+1 uniform nodes 0, dt, ..., T (inclusive
    right endpoint) along its first axis.  The extension keeps g on [0, T],
    mirrors a tapered copy on (T, 2T], stays zero on (2T, 3T], and ramps back
    up on (3T, 4T) so the wrap at 4T = 0 is C^2-matched to g(0).  Returns
    samples at the 4 N_t torus nodes; it works on node indices, so T itself
    is never needed.
    """
    g_vals = np.asarray(g_vals, dtype=complex)
    N_t = len(g_vals) - 1
    out = np.zeros((4 * N_t,) + g_vals.shape[1:], dtype=complex)
    trailing = (1,) * (g_vals.ndim - 1)
    out[: N_t + 1] = g_vals
    idx = np.arange(N_t + 1, 2 * N_t)              # t in (T, 2T)
    ramp = _taper((idx - N_t) / N_t).reshape((-1,) + trailing)
    out[idx] = g_vals[2 * N_t - idx] * ramp
    idx = np.arange(3 * N_t + 1, 4 * N_t)          # t in (3T, 4T)
    ramp = _taper((4 * N_t - idx) / N_t).reshape((-1,) + trailing)
    out[idx] = g_vals[4 * N_t - idx] * ramp
    return out


# sigma of ibvp_solve's splitting v = e^{-sigma t} u: any sigma > 0 gives the same u
_SHIFT = 1.0


@dataclass(frozen=True)
class IbvpSolution:
    values: np.ndarray        # (len(out_times), modes, n_x)
    compatibility_defect: float


def ibvp_solve(problem: mdl.ModelProblem, u0: np.ndarray, g, T: float,
               tgrid: TangentialGrid, ugrid: UniformHalfGrid,
               out_times) -> IbvpSolution:
    """Initial-boundary solver on (0, T] by the splitting construction.

    ``u0``: (modes, N) initial state; ``g``: (m, N_t + 1, modes) boundary
    data sampled at the times T k / N_t, k = 0..N_t, with N_t a power of
    two (zero data are a zeros array).  Returns u at the requested output
    times.
    """
    u0 = np.asarray(u0, dtype=complex).reshape(-1, ugrid.N)
    g = np.asarray(g, dtype=complex)
    if g.ndim != 3 or (g.shape[0], g.shape[2]) != (problem.m, tgrid.n_modes):
        raise ValueError(f"g has shape {g.shape}, need (m, N_t + 1, modes) = "
                         f"({problem.m}, N_t + 1, {tgrid.n_modes})")
    out_times = np.asarray(out_times, dtype=float)
    if np.any(out_times <= 0) or np.any(out_times > T):
        raise ValueError("output times must lie in (0, T]")

    # ---- v1: whole-line solve on the extended, shifted boundary data ----
    N_t = g.shape[1] - 1
    # built first: it rejects an N_t that is not a power of two
    tgrid_t = TangentialGrid(n_axes=1, N=4 * N_t, L=4.0 * T)
    t_closed = T * np.arange(N_t + 1) / N_t
    shifted = np.moveaxis(g * np.exp(-_SHIFT * t_closed)[:, None], 1, 0)
    v1 = parabolic_boundary_solve(problem, np.moveaxis(extend_time_data(shifted), 0, 1),
                                  _SHIFT, tgrid_t, tgrid, ugrid.x)

    # compatibility report: tr B_j u0 vs g_j(0)
    g_0 = g[:, 0]
    defect = float(np.max(
        np.linalg.norm(boundary_trace_fd(problem, u0, tgrid, ugrid) - g_0, axis=-1)
        / np.maximum(np.linalg.norm(g_0, axis=-1), 1.0)))

    # ---- v2: semigroup of (A_B - sigma) ----
    w0 = u0 - v1.at_time(0.0)
    values = np.zeros((len(out_times),) + u0.shape, dtype=complex)
    for i, t in enumerate(out_times):
        v = np.zeros_like(w0)
        if np.any(w0):
            v = math.exp(-_SHIFT * t) * semigroup_apply(problem, w0, t, tgrid, ugrid)
        values[i] = math.exp(_SHIFT * t) * (v + v1.at_time(t))
    return IbvpSolution(values=values, compatibility_defect=defect)
