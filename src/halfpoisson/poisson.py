"""Evaluation of the boundary-data solution operators and exponent sweeps.

For boundary data ``g_j`` the operator ``Poi_j(lambda)`` produces the decaying
solution of ``(lambda - A(D))u = 0`` with ``B_k(D)u|_{x_n=0} = delta_{kj} g_j``.
Tangentially everything is diagonal in frequency: per mode ``xi'`` the kernel
is a combination of the Newton basis functions ``[tau_1 ... tau_k] e^{i tau x_n}``
of the stable roots ``tau`` of ``lambda - A(xi', tau)``, with the coefficients
that invert the boundary map on that basis.  Every solution the package builds
is ``u = sum_j Poi_j(lambda) g_j``, and :meth:`KernelBatch.eval` is the one
place that applies that sum, skipping the rows whose data all vanish.

Every stage runs batched over the rows, through the three stages of
:mod:`halfpoisson.companion`.  The Newton basis stays accurate where stable
roots merge, as they do for |xi'| large against |lambda|^{1/(2m)}, so there is
one route for every row.  Rows with byte-identical inputs, as the rows at xi'
and -xi' of a symmetric problem have, are solved and evaluated once.

The predicted exponents are

* decay:       theta = (-1 - r + p(k - m_j) + p[t - s]_+) / (2 m p),
  valid under the admissibility condition r - p[t + k - m_j - s]_+ > -1;
* boundary singularity:   -[t - s]_+, the power of x_n in the blow-up
  profile, the norm of g -> u(., x_n) from H^{s - m_j}_2 to H^t_2: exactly
  sup_{xi'} <xi'>^{t - s + m_j} |k_j(lambda, xi', x_n)| for the kernel k_j.
"""

from __future__ import annotations

import cmath
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import companion as comp
from .grids import HalfLineGrid, TangentialGrid
from .model import _LS_DIRECTIONS, ModelProblem, SectorSample, unit_directions
from .spaces import sobolev_mixed_norm

__all__ = [
    "ExponentQuery",
    "KernelBatch",
    "kernel_batch",
    "predicted_decay_exponent",
    "predicted_singularity_exponent",
    "decay_sweep",
    "sweep_workers",
    "singularity_sweep",
    "SweepResult",
    "decay_rate",
]


@dataclass(frozen=True)
class ExponentQuery:
    """Indices (k, p, r, t, s, j) of one mapping-norm query.

    ``j`` is the 0-based boundary-operator index and ``m_j`` its order.
    Construction enforces the admissibility condition
    r - p [t + k - m_j - s]_+ > -1.
    """

    k: int
    p: float
    r: float
    t: float
    s: float
    j: int
    m_j: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"'k' must be >= 0, got {self.k}")
        if not (1 <= self.p < math.inf):
            raise ValueError(f"'p' must be >= 1 and finite, got {self.p}")
        gap = self.r - self.p * max(self.t + self.k - self.m_j - self.s, 0.0)
        if not gap > -1.0:
            raise ValueError(
                f"inadmissible query: r - p[t+k-m_j-s]_+ = {gap:.4g} <= -1"
            )

    @staticmethod
    def for_problem(problem: ModelProblem, k: int, p: float, r: float,
                    t: float, s: float, j: int) -> "ExponentQuery":
        return ExponentQuery(k=k, p=p, r=r, t=t, s=s, j=j,
                             m_j=problem.boundary_ops[j].order)


def predicted_decay_exponent(q: ExponentQuery, m: int) -> float:
    """theta in ||Poi_j(lambda)|| <= C |lambda|^theta."""
    bracket = max(q.t - q.s, 0.0)
    return (-1.0 - q.r + q.p * (q.k - q.m_j) + q.p * bracket) / (2.0 * m * q.p)


def predicted_singularity_exponent(t: float, s: float) -> float:
    """Power of x_n in the near-boundary blow-up of the H^t_2 profile norm."""
    return -max(t - s, 0.0)


# ---------------------------------------------------------------------------
# Batched kernel engine
# ---------------------------------------------------------------------------

@dataclass
class KernelBatch:
    """Stable roots and Newton-basis coefficients on the grid ``lam`` x
    ``xi_modes`` of :func:`kernel_batch` (``shape = lam.shape + (M,)``).

    Row ``q = i * M + k`` holds the pair (``lam.flat[i]``, mode k).  For
    each boundary index j the kernel of ``pr_1 Poi_j`` on row q and its
    normal derivatives are
    ``D^d u(j, q, x) = sum_k c[j, q, k] D^d [tau_1 ... tau_{k+1}] e^{i tau x}``
    over the stable roots ``tau[q]``, sorted by increasing ``Im tau``.  The
    roots do not depend on j, so one batch serves every boundary index, and
    :meth:`eval` applies all of them to the data at once.

    ``taus`` and ``coeff`` hold every row.  ``first[q]`` is the first row
    whose inputs are bitwise those of row q (see :func:`kernel_batch`), so
    rows with equal ``first`` carry the same bits.
    """

    taus: np.ndarray       # (N, m) stable roots, increasing Im
    coeff: np.ndarray      # (m, N, m) Newton coefficients for unit datum j
    first: np.ndarray      # (N,) first row with the same inputs
    shape: tuple           # lam.shape + (M,); N = prod(shape)

    @property
    def fallback(self) -> np.ndarray:
        """All False: every row takes the one route.  Only the benchmark's
        ``rootbasis_ratio`` counter (``perfbench/spans.py``) reads it."""
        return np.zeros(len(self.first), dtype=bool)

    def eval(self, x: np.ndarray, data: np.ndarray, deriv_order: int = 0,
             modes: np.ndarray | None = None) -> np.ndarray:
        """``sum_j D^d Poi_j data[j]`` at every lambda on ``modes`` (default:
        all, in order; repeats allowed), shape ``lam.shape + (len(modes), len(x))``.

        ``data`` broadcasts to ``(m,) + lam.shape + (len(modes),)``.  A pair
        whose m data all vanish is exactly zero and is not evaluated.  The
        others run once per distinct (kernel row, data column) pair; the data
        are contracted into the coefficients first, so each pair then takes
        one contraction over the basis.
        """
        x = np.asarray(x, dtype=float)
        lead, M = self.shape[:-1], self.shape[-1]
        if modes is None:
            rows, shape = np.arange(len(self.first)), self.shape
        else:   # a mode outside 0..M-1 would read a neighbouring lambda's row
            if not all(0 <= k < M for k in modes):
                raise IndexError(f"modes must lie in 0..{M - 1}, got {list(modes)}")
            rows = (M * np.arange(math.prod(lead))[:, None] + modes).reshape(-1)
            shape = lead + (len(modes),)
        data = np.broadcast_to(data, (len(self.coeff),) + shape).reshape(len(self.coeff), -1)
        live = np.flatnonzero(np.any(data != 0, axis=0))
        if 0 < live.size == len(rows):
            out = self._apply(x, data, deriv_order, rows)
        else:
            out = np.zeros((len(rows),) + x.shape, dtype=complex)
            if live.size:
                out[live] = self._apply(x, data[:, live], deriv_order, rows[live])
        return out.reshape(shape + x.shape)

    def _apply(self, x, data, deriv_order, rows):
        """:meth:`eval` on one or more rows that all carry data, (len(rows),
        len(x)): each distinct pair of ``first`` row and data column is
        evaluated once and gathered."""
        pair, back = _distinct_rows(self.first[rows], data.T)
        repeated = len(pair) < len(rows)
        if repeated:
            rows, data = rows[pair], data[:, pair]
        A, F = comp.propagate(self.taus[rows], x, deriv_order)
        w = np.einsum("jq,jqk,qki->qi", data, self.coeff[:, rows], A)
        out = np.einsum("qi,qiz->qz", w, F)
        del A, F             # freed before the gather widens the result
        return out[back] if repeated else out


def _distinct_rows(*tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows whose bytes differ across ``tables`` (each with N rows leading).

    Returns ``(first, inverse)``: the first row of each distinct byte
    pattern, in order of first occurrence, and for every row the index of
    its pattern in ``first``.  Bytes, not values, make the key, so -0.0 and
    0.0 stay apart, as do values one ulp apart.
    """
    N = len(tables[0])
    raw = np.concatenate([np.ascontiguousarray(t).reshape(N, math.prod(t.shape[1:]))
                          .view(np.uint8) for t in tables], axis=1)
    keys = raw.view(np.dtype((np.void, raw.shape[1]))).reshape(N)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def kernel_batch(problem: ModelProblem, lam, xi_modes: np.ndarray) -> KernelBatch:
    """Newton-basis kernel data on the grid ``lam`` (any shape) x
    ``xi_modes`` (M, n-1), for every boundary index.

    A row's result depends only on its row of lambda - A(xi', .), its
    boundary rows at ``b = xi'/rho`` and rho, so the roots, their checks,
    the LS measure and the solve run once per distinct row: rows whose three
    inputs agree byte for byte share one, taken in order of first
    occurrence.  Every distinct row is checked, so every pair is;
    :meth:`KernelBatch.eval` can then evaluate only the pairs with data.
    One solve against the identity gives the coefficients of all m unit
    data from one factorization of the boundary map.  Raises, naming the
    (xi', lambda) of the first offending row,
    :class:`~halfpoisson.companion.EllipticityMarginError` where a root lies
    within ``_AXIS_TOL * rho`` of the real axis or a row has other than m
    stable roots, and :class:`~halfpoisson.companion.LopatinskiiError` where
    the LS measure is at most ``_LS_TOL``."""
    xi_modes = np.atleast_2d(np.asarray(xi_modes, dtype=float))
    lam = np.asarray(lam, dtype=complex)
    m, M = problem.m, len(xi_modes)
    char, rows, rho = comp._frequency_rows(problem, lam, xi_modes)
    first, inverse = _distinct_rows(char, rows, rho)
    char, rows, rho = char[first], rows[first], rho[first]

    def check(bad, error, what):
        if np.any(bad):
            q = int(np.argmax(bad))
            i, k = divmod(int(first[q]), M)
            raise error(f"{what(q)} at (xi'={xi_modes[k]}, lambda={lam.flat[i]})")

    taus, margin, counts = comp.build_companion(char, rho)
    check(margin <= comp._AXIS_TOL, comp.EllipticityMarginError, lambda q:
          f"characteristic root within {comp._AXIS_TOL * rho[q]:.3e} of the real axis")
    check(counts != m, comp.EllipticityMarginError,
          lambda q: f"{counts[q]} stable roots, expected {m},")
    svals, bmap = comp.boundary_map_conditioning(taus / rho[:, None], rows)
    check(svals[:, -1] <= comp._LS_TOL, comp.LopatinskiiError, lambda q:
          f"Lopatinskii-Shapiro failure (row-normalised boundary map singular "
          f"values {svals[q]})")
    # bmap = diag(rho^-m_j) B diag(rho^k) for the boundary map B on the
    # unscaled Newton basis, so B^-1 = diag(rho^k) bmap^-1 diag(rho^-m_j)
    orders = np.array([bop.order for bop in problem.boundary_ops])
    scale = rho[:, None, None] ** (np.arange(m)[:, None] - orders[None, :])
    coeff = np.linalg.solve(bmap, np.eye(m, dtype=complex)) * scale   # (row, k, datum)
    return KernelBatch(taus=taus[inverse],
                       coeff=np.ascontiguousarray(coeff.transpose(2, 0, 1)[:, inverse]),
                       first=first[inverse], shape=lam.shape + (M,))


def decay_rate(problem: ModelProblem, lam: complex) -> float:
    """Smallest Im tau among stable roots at xi' = 0: the slowest decay."""
    taus = kernel_batch(problem, lam, np.zeros((1, problem.n - 1))).taus
    return float(taus.imag.min())


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """Norms of one sweep, one curve per row over the shared abscissae ``x``,
    and each curve's fitted log-log slope (nan where it has no fit)."""

    x: np.ndarray               # (points,)
    norms: np.ndarray           # (curves, points)
    slopes: np.ndarray          # (curves,)
    predicted: float

    @property
    def max_deviation(self) -> float:
        """Largest |slope - predicted| over the fitted curves; inf if none."""
        dev = np.abs(self.slopes[~np.isnan(self.slopes)] - self.predicted)
        return float(dev.max()) if dev.size else math.inf


def _fit_slopes(x: np.ndarray, norms: np.ndarray, predicted: float) -> SweepResult:
    """Per-curve slopes of log norm against log x.

    ``norms`` holds one curve per row over ``x``.  Each slope is the
    ordinary least-squares fit on the curve's finite, positive norms in the
    middle 80% of the log range of x; a curve with fewer than two such
    points gets nan.
    """
    lo, hi = np.log10(x.min()), np.log10(x.max())
    pad = (1.0 - 0.8) / 2.0 * (hi - lo)
    lx = np.log10(x)
    window = (lx >= lo + pad) & (lx <= hi - pad)
    slopes = np.full(len(norms), math.nan)
    for i, curve in enumerate(norms):
        keep = window & np.isfinite(curve) & (curve > 0)
        if keep.sum() >= 2:
            A = np.stack([np.log(x[keep]), np.ones(keep.sum())], axis=1)
            slopes[i] = np.linalg.lstsq(A, np.log(curve[keep]), rcond=None)[0][0]
    return SweepResult(x=x, norms=norms, slopes=slopes, predicted=predicted)


# decay_sweep runs on one thread below this many tangential modes: a lambda's
# work is then mostly interpreter time, and threads only contend for the GIL
# (on two CPUs, 16 modes: 1.15-1.64x the time of one thread; 256: 0.54-0.80x)
_THREADED_MODES = 256


def sweep_workers() -> int:
    """Threads that evaluate :func:`decay_sweep`'s lambda on a large grid,
    the calling one included: one per CPU this process may run on."""
    return len(os.sched_getaffinity(0))


def decay_sweep(problem: ModelProblem, q: ExponentQuery,
                sample: SectorSample, g_hat: np.ndarray,
                tgrid: TangentialGrid) -> SweepResult:
    """Sweep ||Poi_j(lambda) g|| (j = ``q.j``) over the sector and fit
    per-ray slopes.

    The norm is the weighted mixed Sobolev norm W^k_p(x^r; H^t_2) with
    t = ``q.t`` on a normal grid that resolves the slowest decay of the
    sample; the fit is ordinary least squares on the middle 80% of the
    modulus decades, excluding non-finite or underflowed norms.
    One kernel batch per lambda; only the modes where g is nonzero are
    evaluated.  On grids of at least ``_THREADED_MODES`` modes the lambda
    run on :func:`sweep_workers` threads, the calling one included (NumPy
    releases the GIL in the eigenvalue, exponential and contraction
    stages); each norm goes into its own slot, so the norms do not depend
    on the threads.  The first lambda to fail, in sample order, raises.
    """
    data = np.eye(problem.m)[:, [q.j]] * np.ravel(g_hat)     # g on index j only
    rate = decay_rate(problem, min(sample.moduli) *
                      cmath.exp(1j * sample.rays[len(sample.rays) // 2]))
    xgrid = HalfLineGrid.for_decay(rate)
    mods = np.asarray(sample.moduli, dtype=float)
    # the grids' cached arrays are formed here, not raced for by the threads
    x, xi_modes, _ = xgrid.x, tgrid.xi_modes, tgrid.xi_sq
    lams = [mod * cmath.exp(1j * ray) for ray in sample.rays for mod in mods]
    norms = np.empty(len(lams))
    todo, failed = iter(enumerate(lams)), {}

    def drain():
        # lambda are taken in sample order, and a lambda once taken is
        # finished, so every lambda before the first failure is evaluated
        for i, lam in todo:
            try:
                batch = kernel_batch(problem, lam, xi_modes)
                norms[i] = sobolev_mixed_norm(
                    [batch.eval(x, data, l) for l in range(q.k + 1)],
                    q.p, q.r, q.t, tgrid, xgrid)
            except BaseException as err:   # stops every thread, re-raised below
                failed[i] = err
            if failed:
                return

    # the calling thread is one of the workers: each further thread brings
    # its own malloc arena, whose freed pages stay resident
    threads = sweep_workers() if tgrid.n_modes >= _THREADED_MODES else 1
    helpers = [threading.Thread(target=drain) for _ in range(threads - 1)]
    for thread in helpers:
        thread.start()
    drain()
    for thread in helpers:
        thread.join()
    if failed:
        raise failed[min(failed)]
    return _fit_slopes(mods, norms.reshape(len(sample.rays), len(mods)),
                       predicted_decay_exponent(q, problem.m))


# singularity_sweep's radii: _SUP_PER_DECADE a decade from _SUP_FLOOR
# |lambda|^{1/(2m)} to _SUP_REACH / min x_n; an order-a profile peaks near a / x_n
_SUP_FLOOR, _SUP_REACH, _SUP_PER_DECADE = 1e-3, 100.0, 10


def singularity_sweep(problem: ModelProblem, j: int, lam: complex, t: float,
                      s: float, x_range: np.ndarray) -> SweepResult:
    """Fit the slope of the blow-up profile of ``Poi_j(lam)`` on ``x_range``,
    the predicted -[t - s]_+, from one kernel batch at xi' = 0 and on the
    radii along the LS sample's directions (+-1 at n = 2).  A maximiser at
    the largest radius cuts the sup short: the slope is then nan."""
    lo, hi = _SUP_FLOOR * abs(lam) ** (1.0 / problem.order), _SUP_REACH / x_range.min()
    radii = np.geomspace(lo, hi, math.ceil(_SUP_PER_DECADE * math.log10(hi / lo)) + 1)
    dirs = unit_directions(problem.n - 1, _LS_DIRECTIONS)
    modes = np.vstack([np.zeros_like(dirs[:1]), np.kron(radii[:, None], dirs)])
    kern = kernel_batch(problem, lam, modes).eval(x_range, np.eye(problem.m)[:, [j]])
    order = t - s + problem.boundary_ops[j].order
    weighted = (1.0 + (modes ** 2).sum(axis=1))[:, None] ** (order / 2.0) * np.abs(kern)
    result = _fit_slopes(x_range, weighted.max(axis=0)[None],
                         predicted_singularity_exponent(t, s))
    cut = np.any(weighted.argmax(axis=0) >= len(modes) - len(dirs))
    return replace(result, slopes=np.full(1, math.nan)) if cut else result
