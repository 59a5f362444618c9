"""Evaluation of the boundary-data solution operators and exponent sweeps.

For boundary data ``g_j`` the operator ``Poi_j(lambda)`` produces the decaying
solution of ``(lambda - A(D))u = 0`` with ``B_k(D)u|_{x_n=0} = delta_{kj} g_j``.
Tangentially everything is diagonal in frequency: per mode ``xi'`` the kernel
is the first component of the propagated companion state (module
:mod:`halfpoisson.companion`), and the full evaluation is one multiplication
per mode followed by an optional inverse FFT.

Sweeps need thousands of frequency nodes per parameter value, so this module
carries a vectorized kernel engine: a batched eigendecomposition of the
companion matrices (valid for simple stable roots, which is the generic case)
with a per-node fallback to the ordered-Schur route whenever roots nearly
collide or the boundary map is ill conditioned.  The two routes are
cross-checked in the test-suite.

The predicted exponents are

* decay:       theta = (-1 - r + p(k - m_j) + p[t - s]_+) / (2 m p),
  valid under the admissibility condition r - p[t + k - m_j - s]_+ > -1;
* boundary singularity of x_n -> ||u(., x_n)||_{A^t}:   -[t - s]_+.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import companion as comp
from .grids import HalfLineGrid, TangentialGrid
from .model import ModelProblem, SectorSample
from .spaces import SpaceSpec, sobolev_mixed_norm

__all__ = [
    "GridSpec",
    "GridFunction",
    "ExponentQuery",
    "KernelBatch",
    "kernel_batch",
    "poisson_apply",
    "predicted_decay_exponent",
    "predicted_singularity_exponent",
    "decay_sweep",
    "singularity_sweep",
    "volevich_apply",
    "SweepResult",
    "decay_rate",
]


@dataclass(frozen=True)
class GridSpec:
    """Tangential torus x graded normal grid."""

    tangential: TangentialGrid
    normal: HalfLineGrid


@dataclass(frozen=True)
class GridFunction:
    """Complex samples over (tangential modes or points) x normal nodes."""

    values: np.ndarray
    layout: str = "freq"   # tangential side: "freq" or "space"

    def __post_init__(self):
        if self.layout not in ("freq", "space"):
            raise ValueError("layout must be 'freq' or 'space'")
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("GridFunction contains non-finite entries")


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
    """Power of x_n in the near-boundary blow-up of the A^t profile norm."""
    return -max(t - s, 0.0)


# ---------------------------------------------------------------------------
# Batched kernel engine
# ---------------------------------------------------------------------------

@dataclass
class KernelBatch:
    """Stable roots and root-basis coefficients for a batch of modes.

    For each boundary index j and mode q the kernel of ``pr_1 Poi_j(lambda)``
    and its normal derivatives are
    ``D^k u(j, q, x) = sum_l c[j, q, l] tau[q, l]^k e^{i tau[q,l] x}``.
    The roots do not depend on j, so one batch serves every boundary index.
    ``fallback`` marks modes where the root basis is unreliable and the
    per-node Schur route must be used instead.
    """

    problem: ModelProblem
    lam: complex
    taus: np.ndarray       # (N, m) stable roots
    coeff: np.ndarray      # (m, N, m) root-basis coefficients for unit datum j
    fallback: np.ndarray   # (N,) bool

    def eval(self, x: np.ndarray, deriv_order: int = 0) -> np.ndarray:
        """Kernel values for every boundary index, shape (m, N, len(x))."""
        x = np.asarray(x, dtype=float)
        E = np.exp(1j * self.taus[:, :, None] * x[None, None, :])
        powers = self.taus ** deriv_order
        out = np.empty(self.coeff.shape[:2] + x.shape, dtype=complex)
        for c, o in zip(self.coeff, out):
            np.einsum("ql,qlz->qz", c * powers, E, out=o)
        if np.any(self.fallback):
            xi_modes = self._xi_modes
            for q in np.nonzero(self.fallback)[0]:
                fp = comp.make_frequency_point(xi_modes[q], self.lam, self.problem.m)
                cs = comp.build_companion(self.problem, fp)
                for i, xv in enumerate(x):
                    out[:, q, i] = comp.propagate(cs, xv, deriv_order)[0, :]
        return out

    _xi_modes: np.ndarray = field(default=None, repr=False)


def _char_coeffs_batch(problem: ModelProblem, lam: complex,
                       xi_modes: np.ndarray) -> np.ndarray:
    """Coefficients of lambda - A(xi', tau) per mode, shape (N, 2m+1)."""
    N = xi_modes.shape[0]
    order = problem.order
    c = np.zeros((N, order + 1), dtype=complex)
    c[:, 0] = lam
    for alpha, a in problem.interior_coeffs.items():
        tang = np.ones(N)
        for ax, e in enumerate(alpha[:-1]):
            if e:
                tang = tang * xi_modes[:, ax] ** e
        c[:, alpha[-1]] -= a * tang
    return c


def _boundary_map_batch(problem: ModelProblem, xi_modes: np.ndarray,
                        taus: np.ndarray) -> np.ndarray:
    """L[q, j, l] = B_j(xi'(q), tau_l(q)), shape (N, m, m)."""
    N, m = taus.shape
    L = np.zeros((N, m, m), dtype=complex)
    for jj, bop in enumerate(problem.boundary_ops):
        for beta, bcoef in bop.coeffs.items():
            tang = np.full(N, bcoef, dtype=complex)
            for ax, e in enumerate(beta[:-1]):
                if e:
                    tang = tang * xi_modes[:, ax] ** e
            L[:, jj, :] += tang[:, None] * taus ** beta[-1]
    return L


def kernel_batch(problem: ModelProblem, lam: complex, xi_modes: np.ndarray,
                 degeneracy_tol: float = 1e-8) -> KernelBatch:
    """Root-basis kernel data for every mode and boundary index, with Schur
    fallback marking.  One solve against the identity gives the coefficients
    of all m unit data from one factorization of the boundary map."""
    lam = complex(lam)
    xi_modes = np.atleast_2d(np.asarray(xi_modes, dtype=float))
    N = xi_modes.shape[0]
    m, order = problem.m, problem.order
    c = _char_coeffs_batch(problem, lam, xi_modes)
    # batched companion matrices of the characteristic polynomial
    C = np.zeros((N, order, order), dtype=complex)
    C[:, np.arange(order - 1), np.arange(1, order)] = 1.0
    C[:, -1, :] = -c[:, :order] / c[:, order, None]
    eigs = np.linalg.eigvals(C)
    pos = eigs.imag > 0
    counts = pos.sum(axis=1)
    if np.any(counts != m):
        bad = int(np.argmax(counts != m))
        raise comp.EllipticityMarginError(
            f"mode xi'={xi_modes[bad]} has {counts[bad]} stable roots, expected {m} "
            f"(lambda={lam})"
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
        near_degenerate = np.zeros(N, dtype=bool)

    L = _boundary_map_batch(problem, xi_modes, taus)
    # conditioning test on the row-equilibrated map (boundary orders differ)
    row_scale = np.abs(L).max(axis=2) + 1e-300
    svals = np.linalg.svd(L / row_scale[:, :, None], compute_uv=False)
    ill = svals[:, -1] <= 1e-10 * svals[:, 0]
    fallback = near_degenerate | ill
    coeff = np.zeros((N, m, m), dtype=complex)   # (mode, root, datum)
    good = ~fallback
    if np.any(good):
        coeff[good] = np.linalg.solve(L[good], np.eye(m, dtype=complex))
    batch = KernelBatch(problem=problem, lam=lam, taus=taus,
                        coeff=np.ascontiguousarray(coeff.transpose(2, 0, 1)),
                        fallback=fallback)
    batch._xi_modes = xi_modes
    return batch


def poisson_apply(problem: ModelProblem, lam: complex, j: int,
                  g_hat: GridFunction | np.ndarray, grid: GridSpec,
                  deriv_order: int = 0, output_layout: str = "freq") -> GridFunction:
    """``D_{x_n}^k pr_1 Poi_j(lambda) g`` sampled on the grid.

    ``g_hat`` holds tangential Fourier coefficients (flattened mode order of
    ``grid.tangential.xi_modes``); the result lives on modes x normal nodes.
    """
    g = g_hat.values if isinstance(g_hat, GridFunction) else np.asarray(g_hat)
    g = g.reshape(-1)
    tg = grid.tangential
    if g.shape[0] != tg.n_modes:
        raise ValueError(f"g_hat has {g.shape[0]} modes, grid has {tg.n_modes}")
    batch = kernel_batch(problem, lam, tg.xi_modes)
    vals = batch.eval(grid.normal.x, deriv_order)[j] * g[:, None]
    if output_layout == "space":
        shaped = vals.reshape(*((tg.N,) * tg.n_axes), -1)
        space = np.fft.ifftn(shaped, axes=tuple(range(tg.n_axes))) * tg.n_modes
        return GridFunction(values=space.reshape(tg.n_modes, -1), layout="space")
    return GridFunction(values=vals, layout="freq")


def decay_rate(problem: ModelProblem, lam: complex) -> float:
    """Smallest Im tau among stable roots at xi' = 0: the slowest decay."""
    fp = comp.make_frequency_point(np.zeros(problem.n - 1), lam, problem.m)
    return float(comp.stable_roots(problem, fp).imag.min())


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


def decay_sweep(problem: ModelProblem, j: int, q: ExponentQuery,
                sample: SectorSample, g_hat: np.ndarray,
                tangential_spec: SpaceSpec, tgrid: TangentialGrid,
                xgrid: HalfLineGrid | None = None) -> SweepResult:
    """Sweep ||Poi_j(lambda) g|| over the sector and fit per-ray slopes.

    The norm is the weighted mixed Sobolev norm W^k_p(x^r; A^t); the fit is
    ordinary least squares on the middle 80% of the modulus decades,
    excluding flagged (non-finite or underflowed) points.
    """
    g = np.asarray(g_hat).reshape(-1)
    if xgrid is None:
        rate = decay_rate(problem, min(sample.moduli) *
                          cmath.exp(1j * sample.rays[len(sample.rays) // 2]))
        xgrid = HalfLineGrid.for_decay(rate, x_min=1e-6, ratio=1.1)
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
                batch.eval(xgrid.x, l)[j] * g[:, None] for l in range(q.k + 1)
            ])
            val = sobolev_mixed_norm(profiles, q.p, q.r, tangential_spec,
                                     tgrid, xgrid)
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
    """Fit the near-boundary slope of x_n -> ||u(., x_n)||_{A^t}.

    A^t is the L2-based Bessel scale (Plancherel per normal node); the
    predicted slope is -[t - s]_+.
    """
    g = np.asarray(g_hat).reshape(-1)
    x_range = np.asarray(x_range, dtype=float)
    batch = kernel_batch(problem, lam, tgrid.xi_modes)
    vals = batch.eval(x_range, 0)[j] * g[:, None]
    mult = np.asarray((1.0 + tgrid.xi_sq) ** (t / 2.0)).reshape(-1)
    norms = np.sqrt(np.sum((mult[:, None] * np.abs(vals)) ** 2, axis=0)
                    * tgrid.L ** tgrid.n_axes)
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


# ---------------------------------------------------------------------------
# Volevich path
# ---------------------------------------------------------------------------

def volevich_apply(problem: ModelProblem, lam: complex, j: int,
                   u_derivs: np.ndarray, tgrid: TangentialGrid,
                   ygrid: HalfLineGrid, x_nodes: np.ndarray,
                   theta: int = 0) -> np.ndarray:
    """``lambda^theta Poi_j(lambda) tr B_j(D) u`` without taking the trace.

    Uses the fundamental-theorem representation

        Poi_j tr B_j u (x) = - int_0^inf d/dy [ P(x + y) (B_j u)(y) ] dy,

    split across the two factors: with ``P' = i P_1`` (one extra normal
    derivative of the kernel) and ``d/dy (B_j u) = i D_n(B_j u)``.

    ``u_derivs`` has shape (d_max+1, modes, n_y) holding D_n^l u with
    d_max >= m_j + 1; returns samples on modes x x_nodes.
    """
    m_j = problem.boundary_ops[j].order
    u_derivs = np.asarray(u_derivs)
    if u_derivs.shape[0] < m_j + 2:
        raise ValueError(f"need normal derivatives up to order {m_j + 1}")
    xi_modes = tgrid.xi_modes
    N = xi_modes.shape[0]
    # B_j u and D_n(B_j u) on the y-grid
    Bu = np.zeros((N, ygrid.n_points), dtype=complex)
    DBu = np.zeros_like(Bu)
    for beta, bcoef in problem.boundary_ops[j].coeffs.items():
        tang = np.full(N, bcoef, dtype=complex)
        for ax, e in enumerate(beta[:-1]):
            if e:
                tang = tang * xi_modes[:, ax] ** e
        Bu += tang[:, None] * u_derivs[beta[-1]]
        DBu += tang[:, None] * u_derivs[beta[-1] + 1]

    batch = kernel_batch(problem, lam, xi_modes)
    x_nodes = np.asarray(x_nodes, dtype=float)
    w = ygrid.quad_weights(0.0)
    out = np.zeros((N, len(x_nodes)), dtype=complex)
    taus, coeff = batch.taus, batch.coeff[j]
    y = ygrid.x
    # tail check: the integrand must have decayed by y_max
    rho_scale = np.abs(taus.imag).min()
    if math.exp(-rho_scale * ygrid.x_max) > 1e-12:
        import warnings
        warnings.warn("quadrature tail truncated: exp(-c rho y_max) > 1e-12",
                      RuntimeWarning, stacklevel=2)
    for q in range(N):
        Z = x_nodes[:, None] + y[None, :]
        E = np.exp(1j * taus[q][:, None, None] * Z[None, :, :])
        P0 = np.einsum("l,lxy->xy", coeff[q], E)
        P1 = np.einsum("l,lxy->xy", coeff[q] * taus[q], E)
        integrand = 1j * P1 * Bu[q][None, :] + P0 * (1j * DBu[q][None, :])
        out[q] = -(integrand @ w)
    return (lam ** theta) * out
