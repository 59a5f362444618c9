"""Evaluation of the boundary-data solution operators and exponent sweeps.

For boundary data ``g_j`` the operator ``Poi_j(lambda)`` produces the decaying
solution of ``(lambda - A(D))u = 0`` with ``B_k(D)u|_{x_n=0} = delta_{kj} g_j``.
Tangentially everything is diagonal in frequency: per mode ``xi'`` the kernel
is a sum of exponentials ``e^{i tau x_n}`` over the stable roots ``tau`` of
``lambda - A(xi', tau)``, with the coefficients that invert the boundary map
on that root basis, and the full evaluation is one multiplication per mode.

Sweeps need thousands of frequency nodes per parameter value, so the roots
come from one batched eigendecomposition of the companion matrices (valid
for simple stable roots, which is the generic case), with a per-row fallback
to the ordered-Schur route of :mod:`halfpoisson.companion` whenever roots
nearly collide or the boundary map is ill conditioned.  The two routes are
cross-checked in the test-suite.  Rows with byte-identical inputs, as the
rows at xi' and -xi' of a symmetric problem have, are solved and evaluated
once, on either route.

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
    "SweepRecord",
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
            raise ValueError("k must be >= 0")
        if not (1 <= self.p < math.inf):
            raise ValueError("p must lie in [1, inf)")
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
    """Stable roots and root-basis coefficients for a batch of rows.

    Row q pairs a tangential frequency ``xi_modes[q]`` with a parameter
    ``lam[q]``, so one batch can cover many modes at one lambda, one mode at
    many lambda, or both (a contour's nodes x the grid's modes).  For each
    boundary index j the kernel of ``pr_1 Poi_j(lam[q])`` at ``xi_modes[q]``
    and its normal derivatives are
    ``D^k u(j, q, x) = sum_l c[j, q, l] tau[q, l]^k e^{i tau[q,l] x}``.
    The roots do not depend on j, so one batch serves every boundary index.
    ``fallback`` marks rows where the root basis is unreliable (nearly
    coinciding roots, or a boundary map that is singular on the root basis);
    :meth:`eval` takes those from the Schur route, which raises
    :class:`~halfpoisson.companion.LopatinskiiError` where LS fails.

    ``taus``, ``coeff`` and ``fallback`` hold every row.  ``first[q]`` is the
    first row whose inputs are bitwise those of row q (see
    :func:`kernel_batch`), so rows with equal ``first`` carry the same bits.
    """

    problem: ModelProblem
    lam: np.ndarray        # (N,) parameter of each row
    xi_modes: np.ndarray   # (N, n-1) tangential frequencies
    taus: np.ndarray       # (N, m) stable roots
    coeff: np.ndarray      # (m, N, m) root-basis coefficients for unit datum j
    fallback: np.ndarray   # (N,) bool
    first: np.ndarray      # (N,) first row with the same inputs

    def eval(self, x: np.ndarray, deriv_order: int = 0,
             rows: np.ndarray | None = None) -> np.ndarray:
        """Kernel values for every boundary index on ``rows`` (default: all),
        in that order, shape (m, len(rows), len(x)).

        The exponential table and the contraction run once per distinct row
        among ``rows``; the values are then gathered in the order asked.  A
        caller whose data vanish on some rows asks only for the others.
        The Schur route also runs once per distinct fallback row, and every
        distinct fallback row builds its companion system, evaluated or not,
        so an LS failure raises whichever rows carry data.
        """
        x = np.asarray(x, dtype=float)
        rows = np.arange(len(self.lam)) if rows is None else np.asarray(rows)
        distinct, back = np.unique(self.first[rows], return_inverse=True)
        taus = self.taus[distinct]
        E = 1j * taus[:, :, None] * x[None, None, :]
        np.exp(E, out=E)
        powers = taus ** deriv_order
        vals = np.empty((self.coeff.shape[0], len(distinct)) + x.shape, dtype=complex)
        for c, o in zip(self.coeff[:, distinct], vals):
            np.einsum("ql,qlz->qz", c * powers, E, out=o)
        del E
        for q in np.unique(self.first[self.fallback]):
            fp = comp.make_frequency_point(self.xi_modes[q], self.lam[q], self.problem.m)
            cs = comp.build_companion(self.problem, fp)
            for d in np.flatnonzero(distinct == q):
                for i, xv in enumerate(x):
                    vals[:, d, i] = comp.propagate(cs, xv, deriv_order)[0, :]
        return vals[:, back]


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


def kernel_batch(problem: ModelProblem, lam, xi_modes: np.ndarray,
                 degeneracy_tol: float = 1e-8) -> KernelBatch:
    """Root-basis kernel data for every row and boundary index, with Schur
    fallback marking.

    ``lam`` is one parameter for every row or one per row of ``xi_modes``,
    so a caller with several lambda stacks its (lambda, mode) pairs as rows
    and makes one call.  A row's result depends only on its row of
    lambda - A(xi', .), its boundary-table row and rho, so the roots, their
    checks, the LS test and the solve run once per distinct row: rows whose
    three inputs agree byte for byte share one, taken in order of first
    occurrence.  Every distinct row is checked, so every row is;
    :meth:`KernelBatch.eval` can then evaluate only the rows with data.
    One solve against the identity gives the coefficients of all m unit
    data from one factorization of the boundary map.  Raises
    :class:`~halfpoisson.companion.EllipticityMarginError`, naming the first
    offending row, where a root lies within ``_AXIS_TOL * rho`` of the real
    axis or a row has other than m stable roots."""
    xi_modes = np.atleast_2d(np.asarray(xi_modes, dtype=float))
    N = xi_modes.shape[0]
    lam = np.broadcast_to(np.asarray(lam, dtype=complex), (N,)).copy()
    m, order = problem.m, problem.order
    # lambda - A(xi', tau) per row, in increasing powers of tau
    c = -problem.interior_symbol.table(xi_modes)
    c[:, 0] += lam
    tab = problem.boundary_table(xi_modes)      # (N, m, 2m)
    rho = np.sqrt(1.0 + (xi_modes ** 2).sum(axis=1) + np.abs(lam) ** (1.0 / m))
    first, inverse = _distinct_rows(c, tab, rho)
    c, tab, rho = c[first], tab[first], rho[first]
    U = len(first)
    # batched companion matrices of the characteristic polynomial
    C = np.zeros((U, order, order), dtype=complex)
    C[:, np.arange(order - 1), np.arange(1, order)] = 1.0
    C[:, -1, :] = -c[:, :order] / c[:, order, None]
    eigs = np.linalg.eigvals(C)
    near_axis = np.abs(eigs.imag) <= comp._AXIS_TOL * rho[:, None]
    if np.any(near_axis):
        bad = int(np.argmax(near_axis.any(axis=1)))
        q = first[bad]
        raise comp.EllipticityMarginError(
            f"characteristic root within {comp._AXIS_TOL * rho[bad]:.3e} of the "
            f"real axis at (xi'={xi_modes[q]}, lambda={lam[q]})"
        )
    pos = eigs.imag > 0
    counts = pos.sum(axis=1)
    if np.any(counts != m):
        bad = int(np.argmax(counts != m))
        q = first[bad]
        raise comp.EllipticityMarginError(
            f"mode xi'={xi_modes[q]} has {counts[bad]} stable roots, expected {m} "
            f"(lambda={lam[q]})"
        )
    key = np.where(pos, eigs.imag, np.inf)
    idx = np.argsort(key, axis=1)[:, :m]
    taus = np.take_along_axis(eigs, idx, axis=1)

    scale = np.abs(taus).max(axis=1) + 1.0
    if m > 1:
        diffs = np.abs(taus[:, :, None] - taus[:, None, :])
        diffs[:, np.arange(m), np.arange(m)] = np.inf
        near_degenerate = diffs.min(axis=(1, 2)) < degeneracy_tol * scale
    else:
        near_degenerate = np.zeros(U, dtype=bool)

    L = np.empty((U, m, m), dtype=complex)     # L[q, j, l] = B_j(xi'(q), tau_l(q))
    for j, sym in enumerate(problem.boundary_symbols):
        L[:, j] = sym.contract(tab[:, j, None, :], lambda l: taus ** l)
    # LS test with row j divided by the size of B_j at the mode, as in
    # companion._schur_ls: sum_l |b_jl(xi')| rho^l, which bounds |B_j(xi', tau)|
    # on |tau| = rho, rho^2 = 1 + |xi'|^2 + |lambda|^{1/m}.  A row divided by
    # its own largest entry would score every 1 x 1 map 1.
    size = np.abs(tab) @ (rho[:, None] ** np.arange(order))[:, :, None]   # (U, m, 1)
    svals = np.linalg.svd(L / (size + 1e-300), compute_uv=False)
    ill = svals[:, -1] <= 1e-10
    fallback = near_degenerate | ill
    coeff = np.zeros((U, m, m), dtype=complex)   # (mode, root, datum)
    good = ~fallback
    if np.any(good):
        coeff[good] = np.linalg.solve(L[good], np.eye(m, dtype=complex))
    return KernelBatch(problem=problem, lam=lam, xi_modes=xi_modes, taus=taus[inverse],
                       coeff=np.ascontiguousarray(coeff.transpose(2, 0, 1)[:, inverse]),
                       fallback=fallback[inverse], first=first[inverse])


def decay_rate(problem: ModelProblem, lam: complex) -> float:
    """Smallest Im tau among stable roots at xi' = 0: the slowest decay."""
    taus = kernel_batch(problem, lam, np.zeros((1, problem.n - 1))).taus
    return float(taus.imag.min())


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRecord:
    ray_arg: float
    lambda_mod: float
    norm: float
    flagged: bool


@dataclass(frozen=True)
class SweepResult:
    records: tuple
    fitted_slopes: dict          # ray_arg -> slope
    predicted: float
    max_deviation: float

    def worst_slope(self) -> float:
        dev = {ray: abs(sl - self.predicted) for ray, sl in self.fitted_slopes.items()}
        worst_ray = max(dev, key=dev.get)
        return self.fitted_slopes[worst_ray]


def _ols_slope(logx: np.ndarray, logy: np.ndarray) -> float:
    A = np.stack([logx, np.ones_like(logx)], axis=1)
    sol, *_ = np.linalg.lstsq(A, logy, rcond=None)
    return float(sol[0])


def _middle_fraction(x: np.ndarray, frac: float = 0.8) -> np.ndarray:
    """Boolean mask selecting the middle fraction of the log range of x."""
    lo, hi = np.log10(x.min()), np.log10(x.max())
    pad = (1.0 - frac) / 2.0 * (hi - lo)
    lx = np.log10(x)
    return (lx >= lo + pad) & (lx <= hi - pad)


def decay_sweep(problem: ModelProblem, q: ExponentQuery,
                sample: SectorSample, g_hat: np.ndarray,
                tgrid: TangentialGrid) -> SweepResult:
    """Sweep ||Poi_j(lambda) g|| (j = ``q.j``) over the sector and fit
    per-ray slopes.

    The norm is the weighted mixed Sobolev norm W^k_p(x^r; H^t_2) with
    t = ``q.t`` on a normal grid that resolves the slowest decay of the
    sample; the fit is ordinary least squares on the middle 80% of the
    modulus decades, excluding flagged (non-finite or underflowed) points.
    """
    g = np.asarray(g_hat).reshape(-1)
    rate = decay_rate(problem, min(sample.moduli) *
                      cmath.exp(1j * sample.rays[len(sample.rays) // 2]))
    xgrid = HalfLineGrid.for_decay(rate)
    records = []
    slopes = {}
    for ray in sample.rays:
        mods = np.asarray(sample.moduli, dtype=float)
        norms = np.empty_like(mods)
        flags = np.zeros(len(mods), dtype=bool)
        for i, mod in enumerate(mods):
            lam = mod * cmath.exp(1j * ray)
            batch = kernel_batch(problem, lam, tgrid.xi_modes)
            profiles = np.stack([
                batch.eval(xgrid.x, l)[q.j] * g[:, None] for l in range(q.k + 1)
            ])
            val = sobolev_mixed_norm(profiles, q.p, q.r, q.t, tgrid, xgrid)
            norms[i] = val
            flags[i] = not (np.isfinite(val) and val > 0)
            records.append(SweepRecord(ray_arg=float(ray), lambda_mod=float(mod),
                                       norm=float(val), flagged=bool(flags[i])))
        keep = ~flags & _middle_fraction(mods)
        if keep.sum() >= 2:
            slopes[float(ray)] = _ols_slope(np.log(mods[keep]), np.log(norms[keep]))
    predicted = predicted_decay_exponent(q, problem.m)
    max_dev = max((abs(s - predicted) for s in slopes.values()), default=math.inf)
    return SweepResult(records=tuple(records), fitted_slopes=slopes,
                       predicted=predicted, max_deviation=max_dev)


def singularity_sweep(problem: ModelProblem, j: int, lam: complex,
                      g_hat: np.ndarray, t: float, s: float,
                      x_range: np.ndarray, tgrid: TangentialGrid) -> SweepResult:
    """Fit the near-boundary slope of x_n -> ||u(., x_n)||_{H^t_2}, the
    predicted -[t - s]_+."""
    g = np.asarray(g_hat).reshape(-1)
    x_range = np.asarray(x_range, dtype=float)
    batch = kernel_batch(problem, lam, tgrid.xi_modes)
    vals = batch.eval(x_range, 0)[j] * g[:, None]
    norms = plancherel_norms(vals, t, tgrid)
    flags = ~(np.isfinite(norms) & (norms > 0))
    records = tuple(
        SweepRecord(ray_arg=float(cmath.phase(lam)), lambda_mod=float(x),
                    norm=float(nv), flagged=bool(fl))
        for x, nv, fl in zip(x_range, norms, flags)
    )
    keep = ~flags & _middle_fraction(x_range)
    predicted = predicted_singularity_exponent(t, s)
    slopes = {}
    if keep.sum() >= 2:
        slopes[float(cmath.phase(lam))] = _ols_slope(np.log(x_range[keep]),
                                                     np.log(norms[keep]))
    max_dev = max((abs(sv - predicted) for sv in slopes.values()), default=math.inf)
    return SweepResult(records=records, fitted_slopes=slopes,
                       predicted=predicted, max_deviation=max_dev)
