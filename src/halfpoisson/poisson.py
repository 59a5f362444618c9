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
and -xi' of a symmetric problem have, are solved once.
:meth:`KernelBatch.sq_norms` integrates ``|sum_j D_n^d Poi_j g_j|^2 x^r``
over the half-line in closed form instead (m <= 2): each profile is a short
sum of exponentials, whose Gram matrix :func:`halfpoisson.companion.gram`
gives exactly.

:func:`decay_sweep` takes the W^k_p(x^r; H^t_2) norm by that closed form at
p = 2 and m <= 2, where Plancherel splits it into one such integral per
mode, so it builds no normal grid; at p != 2 or m >= 3 it evaluates the
profiles on a geometric normal grid and integrates them by quadrature.  It
solves its lambda in chunks, one after another, and bounds each chunk's
rows (lambda x datum mode), so that the memory it holds does not grow with
the sample.

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
from dataclasses import dataclass, replace

import numpy as np

from . import companion as comp
from .grids import HalfLineGrid, TangentialGrid
from .model import _LS_DIRECTIONS, ModelProblem, SectorSample, unit_directions
from .spaces import sobolev_mixed_norm, space_norm

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
    rows with equal ``first`` carry the same bits.  The batch alone decides
    which rows are evaluated: both methods skip the rows whose data all
    vanish, :meth:`eval` takes each distinct (row, data) pair once, and
    :meth:`sq_norms` every row with data.
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

    def eval(self, x: np.ndarray, data: np.ndarray, deriv_order: int = 0) -> np.ndarray:
        """``sum_j D^d Poi_j data[j]`` on every (lambda, mode) pair, shape
        ``lam.shape + (M, len(x))``.

        ``data`` has the axes ``(m,) + lam.shape + (M,)``, each of that
        length or 1.  A pair whose m data all vanish is exactly zero and is
        not evaluated.  The others run once per distinct (kernel row, data
        column) pair; the data are contracted into the coefficients first, so
        each pair then takes one contraction over the basis.
        """
        x = np.asarray(x, dtype=float)
        data, live = self._live(data)

        def profiles(taus, data, coeff):
            A, F = comp.propagate(taus, x, deriv_order)
            w = np.einsum("jq,jqk,qki->qi", data, coeff, A)
            return np.einsum("qi,qiz->qz", w, F)

        if 0 < live.size == len(self.first):
            out = self._per_pair(data, live, profiles)
        else:
            out = np.zeros((len(self.first),) + x.shape, dtype=complex)
            if live.size:
                out[live] = self._per_pair(data[:, live], live, profiles)
        return out.reshape(self.shape + x.shape)

    def sq_norms(self, r: float, data: np.ndarray, deriv_order: int = 0) -> np.ndarray:
        """``int_0^inf |D^d sum_j Poi_j data[j]|^2 x^r dx`` on every
        (lambda, mode) pair, shape ``lam.shape + (M,)``, for m <= 2 and
        r > -1, with the data of :meth:`eval`.

        The profile :meth:`eval` returns is ``sum_i w_i F_i`` over the basis
        F of :func:`~halfpoisson.companion.propagate`, so its square integral
        is ``w^T G conj(w)`` with the Gram matrix G of
        :func:`~halfpoisson.companion.gram`: exact, on no grid.  A pair
        whose data all vanish is exactly zero; every other pair is
        evaluated, as its result is one float.
        """
        data, live = self._live(data)
        out = np.zeros(len(self.first))
        if live.size:
            taus, m = self.taus[live], len(self.coeff)
            w = np.einsum("jq,jqk,qki->qi", data[:, live], self.coeff[:, live],
                          comp._basis_coeffs(taus, deriv_order))
            # summed term by term: an einsum over (a, b) may order its sum by
            # the batch's shape, so a row's bits would depend on its batch
            terms = (w[:, :, None] * comp.gram(taus, r) * w.conj()[:, None, :]).real
            out[live] = sum(terms[:, a, b] for a in range(m) for b in range(m))
        return out.reshape(self.shape)

    def _live(self, data):
        """``data`` broadcast to (m, pairs), and the pairs with any nonzero datum."""
        shape = (len(self.coeff),) + self.shape
        if np.ndim(data) != len(shape):   # an axis left out would shift the others
            raise ValueError(f"data of shape {np.shape(data)} must give every axis "
                             f"of (m,) + lam.shape + (modes,) = {shape}")
        data = np.broadcast_to(data, shape).reshape(shape[0], -1)
        return data, np.flatnonzero(np.any(data != 0, axis=0))

    def _per_pair(self, data, rows, evaluate):
        """``evaluate(taus, data, coeff)`` on ``rows``, which all carry data,
        once per distinct pair of ``first`` row and data column, gathered
        back to one result per row."""
        pair, back = _distinct_rows(self.first[rows], data.T)
        repeated = len(pair) < len(rows)
        if repeated:
            rows, data = rows[pair], data[:, pair]
        # evaluate's temporaries are freed before the gather widens its result
        out = evaluate(self.taus[rows], data, self.coeff[:, rows])
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
    The inverse of the boundary map gives the coefficients of all m unit
    data at once; for m <= 2 every stage is a closed form, so no LAPACK call
    is made (see :mod:`halfpoisson.companion`).  Raises, naming the
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
    # written as "not above" so that a nan fails the check
    check(~(margin > comp._AXIS_TOL), comp.EllipticityMarginError, lambda q:
          f"characteristic root within {comp._AXIS_TOL * rho[q]:.3e} of the real axis")
    check(counts != m, comp.EllipticityMarginError,
          lambda q: f"{counts[q]} stable roots, expected {m},")
    svals, bmap = comp.boundary_map_conditioning(taus / rho[:, None], rows)
    check(~(svals[:, -1] > comp._LS_TOL), comp.LopatinskiiError, lambda q:
          f"Lopatinskii-Shapiro failure (row-normalised boundary map singular "
          f"values {svals[q]})")
    # bmap = diag(rho^-m_j) B diag(rho^k) for the boundary map B on the
    # unscaled Newton basis, so B^-1 = diag(rho^k) bmap^-1 diag(rho^-m_j)
    orders = np.array([bop.order for bop in problem.boundary_ops])
    scale = rho[:, None, None] ** (np.arange(m)[:, None] - orders[None, :])
    coeff = comp._boundary_inverse(bmap) * scale   # (row, k, datum)
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


# rows (lambda x datum mode) per chunk of decay_sweep's closed-form route: 4
# lambda at 512 modes.  A chunk's batch and square integrals are the memory
# the sweep holds: one chunk of all 65 lambda raised the peak resident set of
# the sweep deck from 43.6 to 74.1 MB (tools/job_times.py, seed 1)
_SWEEP_ROWS = 2048
# rows per chunk of the grid route, whose profiles on every normal node are
# the memory a chunk holds: one lambda from 256 datum modes on.  One chunk of
# all 65 lambda peaked at 63 MB on 128 modes, 34 MB as 65 chunks on 256
# (Neumann decay-sweep, p = 1.5, t = 1, r = 1.5)
_GRID_ROWS = 256


def decay_sweep(problem: ModelProblem, q: ExponentQuery,
                sample: SectorSample, g_hat: np.ndarray,
                tgrid: TangentialGrid) -> SweepResult:
    """Sweep ||Poi_j(lambda) g|| (j = ``q.j``) over the sector and fit
    per-ray slopes.

    The norm is the weighted mixed Sobolev norm W^k_p(x^r; H^t_2) with
    t = ``q.t``; the fit is ordinary least squares on the middle 80% of the
    modulus decades, excluding non-finite or underflowed norms.  It takes
    one of two routes:

    * p = 2 and m <= 2: by Plancherel the norm squared is
      ``sum_l ||(I_l(xi'))^{1/2}||^2_{H^t_2}`` with
      ``I_l(xi') = int_0^inf |D_n^l u(xi', x)|^2 x^r dx``, which
      :meth:`KernelBatch.sq_norms` gives in closed form, so no normal grid
      is built.  A chunk holds up to ``_SWEEP_ROWS`` rows (lambda x datum
      mode);
    * p != 2 or m >= 3, where no closed form applies: the norm is taken on
      a normal grid that resolves the slowest decay of the sample, from
      one :meth:`KernelBatch.eval` per derivative order (the profiles are
      exactly zero off the datum's modes and enter the norm so).  A chunk
      holds up to ``_GRID_ROWS`` rows, whose profiles on every normal node
      are the memory a chunk holds.

    Either way a chunk holds at least one lambda, and the chunks run one
    after another in sample order, each one kernel batch on the modes where
    g is nonzero, so only those modes are built and checked.  Each norm has
    its own slot, so no bit depends on the chunks.  The first chunk to fail
    raises.
    """
    live = np.flatnonzero(np.ravel(g_hat))
    data = np.eye(problem.m)[:, q.j, None, None] * np.ravel(g_hat)[live]   # g on index j only
    mods = np.asarray(sample.moduli, dtype=float)
    xi_modes = tgrid.xi_modes
    support = xi_modes[live]
    lams = sample.points()
    norms = np.empty(len(lams))

    def spread(values):   # on every mode, exactly 0 off the datum's
        if len(live) == len(xi_modes):
            return values
        full = np.zeros((len(xi_modes),) + values.shape[1:], dtype=values.dtype)
        full[live] = values
        return full

    if q.p == 2 and problem.m <= 2:
        rows = _SWEEP_ROWS

        def chunk_norms(batch):
            sq = [batch.sq_norms(q.r, data, l) for l in range(q.k + 1)]
            return [math.sqrt(sum(space_norm(spread(np.sqrt(I[c])), q.t, tgrid) ** 2
                                  for I in sq)) for c in range(batch.shape[0])]
    else:
        rate = decay_rate(problem, min(sample.moduli) *
                          cmath.exp(1j * sample.rays[len(sample.rays) // 2]))
        xgrid = HalfLineGrid.for_decay(rate)
        x = xgrid.x
        rows = _GRID_ROWS

        def chunk_norms(batch):
            chunk = [batch.eval(x, data, l) for l in range(q.k + 1)]
            return [sobolev_mixed_norm([spread(prof[c]) for prof in chunk],
                                       q.p, q.r, q.t, tgrid, xgrid)
                    for c in range(batch.shape[0])]

    size = max(1, rows // max(len(live), 1))
    for i in range(0, len(lams), size):
        # the batch is freed before the next chunk's
        norms[i:i + size] = chunk_norms(kernel_batch(problem, lams[i:i + size], support))
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
