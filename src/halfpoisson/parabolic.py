"""Time-dependent solvers built on the frequency-side machinery.

Whole-line problem (boundary data on t in R, periodized):

    d/dt u + sigma u - A(D) u = 0,   B_j(D) u|_{x_n=0} = g_j,

solved per temporal frequency tau by the elliptic solver at
lambda = sigma + i tau (the shift sigma > 0 keeps lambda inside the sector
even at tau = 0; the working angle phi > pi/2 covers the whole imaginary
axis).

Initial-boundary problem on (0, T], without forcing: substitute
v = e^{-sigma t} u, then split v = r_[0,T] v1 + v2 where v1 solves the
whole-line boundary problem for a smooth temporal extension of the shifted
boundary data, and

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
    "TimeGrid",
    "parabolic_boundary_solve",
    "ParabolicSolution",
    "ibvp_solve",
    "IbvpSolution",
    "extend_time_data",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform temporal grid on a torus of period T_per."""

    N_t: int
    T_per: float
    sigma: float

    def __post_init__(self):
        if self.N_t < 2 or self.N_t & (self.N_t - 1):
            raise ValueError("N_t must be a power of two")
        if self.T_per <= 0 or self.sigma <= 0:
            raise ValueError("T_per and sigma must be positive")

    @property
    def dt(self) -> float:
        return self.T_per / self.N_t

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.N_t)

    @property
    def taus(self) -> np.ndarray:
        """Temporal frequencies, FFT ordering."""
        return 2.0 * math.pi * np.fft.fftfreq(self.N_t, d=self.dt)


@dataclass(frozen=True)
class ParabolicSolution:
    """The temporal-frequency data of the solution, for exact evaluation."""

    freq_data: np.ndarray     # (N_t temporal modes, modes, n_x)
    tgrid_t: TimeGrid

    @cached_property
    def values(self) -> np.ndarray:
        """Solution samples at the grid times, (N_t, modes, n_x)."""
        return np.fft.ifft(self.freq_data, axis=0) * self.tgrid_t.N_t

    def at_time(self, t: float) -> np.ndarray:
        """Evaluate the trigonometric interpolant at an arbitrary time."""
        phases = np.exp(1j * self.tgrid_t.taus * t)
        return np.tensordot(phases, self.freq_data, axes=(0, 0))


def parabolic_boundary_solve(problem: mdl.ModelProblem, g, tgrid_t: TimeGrid,
                             tgrid: TangentialGrid, x_nodes) -> ParabolicSolution:
    """Whole-line boundary solver: per temporal frequency one elliptic solve.

    ``g`` is a list (length m) of arrays (N_t, modes) sampling the boundary
    data time series in tangential frequency; returns u on
    (N_t, modes, len(x_nodes)).  One kernel batch covers every (temporal
    frequency, mode) pair, and :meth:`~halfpoisson.poisson.KernelBatch.eval`
    applies ``sum_j Poi_j`` to the temporal Fourier coefficients of the g_j:
    a pair where every coefficient vanishes is exactly zero and not evaluated.
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    m, M = problem.m, tgrid.n_modes
    g = [np.asarray(gj, dtype=complex).reshape(tgrid_t.N_t, -1) for gj in g]
    if len(g) != m:
        raise ValueError(f"need {m} boundary series, got {len(g)}")
    # temporal Fourier coefficients: g(t) = sum_k ghat_k e^{i tau_k t}, one
    # row per (k, mode)
    ghat = np.stack([np.fft.fft(gj, axis=0) / tgrid_t.N_t for gj in g]).reshape(m, -1)
    lam = tgrid_t.sigma + 1j * tgrid_t.taus
    batch = kernel_batch(problem, np.repeat(lam, M),
                         np.tile(tgrid.xi_modes, (tgrid_t.N_t, 1)))
    out_hat = batch.eval(x_nodes, ghat)
    return ParabolicSolution(freq_data=out_hat.reshape(tgrid_t.N_t, M, -1),
                             tgrid_t=tgrid_t)


def extend_time_data(g_vals: np.ndarray, T: float, N_t: int) -> np.ndarray:
    """Reflect-and-taper extension of data on [0, T] to the torus [0, 4T).

    ``g_vals`` samples g at the N_t+1 uniform nodes 0, dt, ..., T (inclusive
    right endpoint).  The extension keeps g on [0, T], mirrors a tapered copy
    on (T, 2T], stays zero on (2T, 3T], and ramps back up on (3T, 4T) so the
    wrap at 4T = 0 is C^2-matched to g(0).  Returns samples at the 4 N_t
    torus nodes.
    """
    g_vals = np.asarray(g_vals, dtype=complex)
    if g_vals.shape[0] != N_t + 1:
        raise ValueError("g_vals must sample the N_t+1 closed-interval nodes")
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


@dataclass(frozen=True)
class IbvpSolution:
    times: np.ndarray
    values: np.ndarray        # (len(times), modes, n_x)
    compatibility_defect: float


def ibvp_solve(problem: mdl.ModelProblem, u0: np.ndarray, g, T: float,
               sigma: float, tgrid: TangentialGrid, ugrid: UniformHalfGrid,
               out_times, N_t: int = 32) -> IbvpSolution:
    """Initial-boundary solver on (0, T] by the splitting construction.

    ``u0``: (modes, N) initial state; ``g``: list (length m) of callables
    t -> (modes,) boundary data or None.  ``sigma`` shifts the splitting only
    (v = e^{-sigma t} u); the semigroup contour keeps its own fixed shift.
    Returns u at the requested output times.
    """
    m = problem.m
    u0 = np.asarray(u0, dtype=complex).reshape(-1, ugrid.N)
    out_times = np.asarray(out_times, dtype=float)
    if np.any(out_times <= 0) or np.any(out_times > T):
        raise ValueError("output times must lie in (0, T]")

    # ---- v1: whole-line solve on the extended, shifted boundary data ----
    if g is not None:
        t_closed = T * np.arange(N_t + 1) / N_t
        shift = np.exp(-sigma * t_closed)
        series = []
        for gj in g:
            samples = np.stack([np.asarray(gj(t), dtype=complex).reshape(-1)
                                for t in t_closed])
            ext_vals = extend_time_data(samples * shift[:, None], T, N_t)
            series.append(ext_vals)
        tgrid_t = TimeGrid(N_t=4 * N_t, T_per=4.0 * T, sigma=sigma)
        v1 = parabolic_boundary_solve(problem, series, tgrid_t, tgrid, ugrid.x)
        v1_initial = v1.at_time(0.0)
    else:
        v1 = None
        v1_initial = np.zeros_like(u0)

    # compatibility report: tr B_j u0 vs g_j(0)
    defect = 0.0
    for j in range(m):
        tr = boundary_trace_fd(problem, u0, tgrid, ugrid, j)
        target = (np.asarray(g[j](0.0), dtype=complex).reshape(-1)
                  if g is not None else np.zeros_like(tr))
        scale = max(float(np.linalg.norm(target)), 1.0)
        defect = max(defect, float(np.linalg.norm(tr - target)) / scale)

    # ---- v2: semigroup of (A_B - sigma) ----
    w0 = u0 - v1_initial
    values = np.zeros((len(out_times),) + u0.shape, dtype=complex)
    for i, t in enumerate(out_times):
        v = np.zeros_like(w0)
        if np.any(w0):
            v = math.exp(-sigma * t) * semigroup_apply(problem, w0, t, tgrid, ugrid)
        if v1 is not None:
            v = v + v1.at_time(t)
        values[i] = math.exp(sigma * t) * v
    return IbvpSolution(times=out_times, values=values,
                        compatibility_defect=defect)
