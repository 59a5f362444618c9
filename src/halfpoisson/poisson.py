"""Evaluation of the boundary-data solution operators and exponent sweeps.

For boundary data ``g_j`` the operator ``Poi_j(lambda)`` produces the decaying
solution of ``(lambda - A(D))u = 0`` with ``B_k(D)u|_{x_n=0} = delta_{kj} g_j``.
Tangentially everything is diagonal in frequency: per mode ``xi'`` the kernel
is a combination of the Newton basis functions ``[tau_1 ... tau_k] e^{i tau x_n}``
of the stable roots ``tau`` of ``lambda - A(xi', tau)``, with the coefficients
that invert the boundary map on that basis, and the full evaluation is one
multiplication per mode.  Every solution the package builds is
``u = sum_j Poi_j(lambda) g_j``, and :meth:`KernelBatch.eval` is the one place
that applies that sum: it contracts the data into the coefficients, then the
coefficients with the basis, and skips the rows whose data all vanish.

Sweeps need thousands of frequency nodes per parameter value, so every
stage runs batched over the rows, through the three stages of
:mod:`halfpoisson.companion`: one eigendecomposition of the companion
matrices, one LS measure and boundary map, and one evaluation of the basis.
The Newton basis stays accurate where stable roots merge, as they do for
|xi'| large against |lambda|^{1/(2m)}, so there is one route for every row.
Rows with byte-identical inputs, as the rows at xi' and -xi' of a symmetric
problem have, are solved and evaluated once.

The predicted exponents are

* decay:       theta = (-1 - r + p(k - m_j) + p[t - s]_+) / (2 m p),
  valid under the admissibility condition r - p[t + k - m_j - s]_+ > -1;
* boundary singularity of x_n -> ||u(., x_n)||_{H^t_2}:   -[t - s]_+.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import companion as comp
from .grids import HalfLineGrid, TangentialGrid
from .model import ModelProblem, SectorSample
from .spaces import plancherel_norms, sobolev_mixed_norm

__all__ = [
    "ExponentQuery",
    "KernelBatch",
    "kernel_batch",
    "predicted_decay_exponent",
    "predicted_singularity_exponent",
    "decay_sweep",
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
        ``rootbasis_ratio`` counter (``perfbench/spans.py``) reads it, until
        the benchmark replaces that counter with one that does not depend on
        the route."""
        return np.zeros(len(self.first), dtype=bool)

    def eval(self, x: np.ndarray, data: np.ndarray, deriv_order: int = 0,
             modes: np.ndarray | None = None) -> np.ndarray:
        """``sum_j D^d Poi_j data[j]`` at every lambda on ``modes`` (default:
        all, in order; repeats allowed), shape ``lam.shape + (len(modes), len(x))``.

        ``data`` broadcasts to ``(m,) + lam.shape + (len(modes),)``.  A pair
        whose m data all vanish is exactly zero and is not evaluated.  The
        basis functions run once per distinct row among the others; the data
        are contracted into the coefficients first, so each row then takes
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
        if live.size == len(rows):
            out = self._apply(x, data, deriv_order, rows)
        else:
            out = np.zeros((len(rows),) + x.shape, dtype=complex)
            if live.size:
                out[live] = self._apply(x, data[:, live], deriv_order, rows[live])
        return out.reshape(shape + x.shape)

    def _apply(self, x, data, deriv_order, rows):
        """:meth:`eval` on rows that all carry data, (len(rows), len(x))."""
        distinct, back = np.unique(self.first[rows], return_inverse=True)
        A, F = comp.propagate(self.taus[distinct], x, deriv_order)
        w = np.einsum("jq,jqk,qki->qi", data, self.coeff[:, rows], A[back])
        if not np.array_equal(back, np.arange(len(rows))):
            F = F[back]    # rows repeated or out of order; else no copy
        return np.einsum("qi,qiz->qz", w, F)


def _distinct_rows(*tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows whose bytes differ across ``tables`` (each with N rows leading).

    Returns ``(first, inverse)``: the first row of each distinct byte
    pattern, in order of first occurrence, and for every row the index of
    its pattern in ``first``.  Bytes, not values, make the key, so -0.0 and
    0.0 stay apart, as do values one ulp apart.
    """
    N = len(tables[0])
    raw = np.concatenate([np.ascontiguousarray(t).reshape(N, -1).view(np.uint8)
                          for t in tables], axis=1)
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
    evaluated.
    """
    data = np.eye(problem.m)[:, [q.j]] * np.ravel(g_hat)     # g on index j only
    rate = decay_rate(problem, min(sample.moduli) *
                      cmath.exp(1j * sample.rays[len(sample.rays) // 2]))
    xgrid = HalfLineGrid.for_decay(rate)
    mods = np.asarray(sample.moduli, dtype=float)
    norms = np.empty((len(sample.rays), len(mods)))
    for i, ray in enumerate(sample.rays):
        for col, mod in enumerate(mods):
            batch = kernel_batch(problem, mod * cmath.exp(1j * ray), tgrid.xi_modes)
            profiles = np.stack([batch.eval(xgrid.x, data, l) for l in range(q.k + 1)])
            norms[i, col] = sobolev_mixed_norm(profiles, q.p, q.r, q.t, tgrid, xgrid)
    return _fit_slopes(mods, norms, predicted_decay_exponent(q, problem.m))


def singularity_sweep(problem: ModelProblem, j: int, lam: complex,
                      g_hat: np.ndarray, t: float, s: float,
                      x_range: np.ndarray, tgrid: TangentialGrid) -> SweepResult:
    """Fit the near-boundary slope of x_n -> ||u(., x_n)||_{H^t_2}, the
    predicted -[t - s]_+."""
    x_range = np.asarray(x_range, dtype=float)
    batch = kernel_batch(problem, lam, tgrid.xi_modes)
    vals = batch.eval(x_range, np.eye(problem.m)[:, [j]] * np.ravel(g_hat))
    norms = plancherel_norms(vals, t, tgrid)
    return _fit_slopes(x_range, norms[None], predicted_singularity_exponent(t, s))
