"""Weighted function-space norms, Muckenhoupt characteristics, and the
Hilbert-kernel integral operator.

Tangential norms are computed from Fourier coefficients on the torus
(:class:`halfpoisson.grids.TangentialGrid`): Bessel-potential norms apply the
multiplier ``<xi>^s`` and take an L_p norm; Besov and Triebel-Lizorkin norms
run over a smooth dyadic resolution of unity ``(phi_k)`` with
``l^q``-of-``L_p`` respectively ``L_p``-of-``l^q`` aggregation of the
``2^{sk}``-scaled bands.  The parameter-dependent norm applies the multiplier
``(1 + |xi|^2 + |mu|^2)^{(s - s0)/2}`` before a base norm of smoothness s0.

Half-line norms with power weight ``x^r`` use the graded-grid quadrature from
:mod:`halfpoisson.grids`.  The Hilbert-kernel operator

    T f(x) = int_0^inf f(y) / (x + y) dy

is discretized densely with those quadrature weights; its operator norm on
L_p(x^r dx) is the top eigenvalue of the weight-symmetrised matrix for p = 2
(Lanczos from a fixed start vector) and comes from an L_p power iteration
(Boyd's method) otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import HalfLineGrid, TangentialGrid

__all__ = [
    "SpaceSpec",
    "DyadicPartition",
    "besov_norm",
    "triebel_norm",
    "bessel_norm",
    "space_norm",
    "param_norm",
    "sobolev_mixed_norm",
    "ap_characteristic",
    "hardy_norm",
    "mixed_lifting_check",
]


@dataclass(frozen=True)
class SpaceSpec:
    """Scale tag and indices of a tangential (or plain L_p) norm."""

    scale: str = "H"       # one of Lp, W, H, B, F
    s: float = 0.0
    p: float = 2.0
    q: float = 2.0

    def __post_init__(self):
        if self.scale not in {"Lp", "W", "H", "B", "F"}:
            raise ValueError(f"unknown scale {self.scale!r}")
        if not (1 <= self.p < math.inf):
            raise ValueError("p must lie in [1, inf)")
        if not (1 <= self.q):
            raise ValueError("q must be >= 1")


class DyadicPartition:
    """Smooth dyadic resolution of unity sampled on a frequency grid.

    phi_0 = 1 on |xi| <= 1, 0 on |xi| >= 3/2; phi_k(xi) = phi_0(2^-k xi) -
    phi_0(2^-k+1 xi) for k >= 1.  The bands sum to 1 on the covered range by
    telescoping, and supp phi_k lies in the dyadic annulus
    [2^(k-1), 3*2^(k-1)].
    """

    def __init__(self, xi_abs: np.ndarray):
        xi_abs = np.abs(np.asarray(xi_abs, dtype=float))
        xi_max = float(xi_abs.max()) if xi_abs.size else 1.0
        # coverage: phi_0(2^-K xi) must be 1 on the grid, i.e. 2^K >= xi_max
        self.K = max(1, int(math.ceil(math.log2(max(xi_max, 1.0)))) + 1)
        self.xi_abs = xi_abs
        bands = [self._phi0(xi_abs)]
        for k in range(1, self.K + 1):
            bands.append(self._phi0(xi_abs / 2.0 ** k) - self._phi0(xi_abs / 2.0 ** (k - 1)))
        self.bands = bands

    @staticmethod
    def _phi0(t: np.ndarray) -> np.ndarray:
        """C-infinity cutoff: 1 on t <= 1, 0 on t >= 3/2, bump profile between."""
        t = np.asarray(t, dtype=float)
        # smoothstep built from h(s) = exp(-1/s)
        s = np.clip((t - 1.0) * 2.0, 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            h1 = np.where(s > 0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
            h2 = np.where(s < 1, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
        return h2 / (h1 + h2)

    def __len__(self) -> int:
        return len(self.bands)

    def partition_defect(self) -> float:
        """max |sum_k phi_k - 1| over the grid."""
        total = sum(self.bands)
        return float(np.max(np.abs(total - 1.0)))


def bessel_norm(fhat: np.ndarray, spec: SpaceSpec, grid: TangentialGrid) -> float:
    """H^s_p norm: multiplier <xi>^s then L_p on the torus."""
    mult = (1.0 + grid.xi_sq) ** (spec.s / 2.0)
    return grid.lp_norm(mult * fhat, spec.p)


def besov_norm(fhat: np.ndarray, spec: SpaceSpec, grid: TangentialGrid) -> float:
    """B^s_{p,q} norm: l^q over k of 2^{sk} ||band_k||_{L_p}."""
    part = DyadicPartition(np.sqrt(grid.xi_sq))
    band_norms = np.array([
        grid.lp_norm(phi * fhat, spec.p) * 2.0 ** (spec.s * k)
        for k, phi in enumerate(part.bands)
    ])
    if math.isinf(spec.q):
        return float(band_norms.max(initial=0.0))
    return float(np.sum(band_norms ** spec.q) ** (1.0 / spec.q))


def triebel_norm(fhat: np.ndarray, spec: SpaceSpec, grid: TangentialGrid) -> float:
    """F^s_{p,q} norm: L_p of the pointwise l^q over scaled bands."""
    part = DyadicPartition(np.sqrt(grid.xi_sq))
    vals = np.stack([
        np.abs(grid.to_space(phi * fhat)) * 2.0 ** (spec.s * k)
        for k, phi in enumerate(part.bands)
    ])
    if math.isinf(spec.q):
        pointwise = vals.max(axis=0)
    else:
        pointwise = np.sum(vals ** spec.q, axis=0) ** (1.0 / spec.q)
    return float((np.sum(pointwise ** spec.p) * grid.cell_volume) ** (1.0 / spec.p))


def space_norm(fhat: np.ndarray, spec: SpaceSpec, grid: TangentialGrid) -> float:
    """Dispatch on the scale tag (W is Bessel here: integer-order agreement)."""
    if spec.scale == "Lp":
        return grid.lp_norm(fhat, spec.p)
    if spec.scale in ("H", "W"):
        return bessel_norm(fhat, spec, grid)
    if spec.scale == "B":
        return besov_norm(fhat, spec, grid)
    if spec.scale == "F":
        return triebel_norm(fhat, spec, grid)
    raise ValueError(spec.scale)


def param_norm(fhat: np.ndarray, s: float, s0: float, mu: complex,
               base_spec: SpaceSpec, grid: TangentialGrid) -> float:
    """Parameter-dependent norm: multiplier <xi, mu>^{s-s0} then the s0 norm."""
    mult = (1.0 + grid.xi_sq + abs(mu) ** 2) ** ((s - s0) / 2.0)
    spec0 = SpaceSpec(scale=base_spec.scale, s=s0, p=base_spec.p, q=base_spec.q)
    return space_norm(mult * fhat, spec0, grid)


def sobolev_mixed_norm(profiles, p: float, r: float,
                       tangential_spec: SpaceSpec, tgrid: TangentialGrid,
                       xgrid: HalfLineGrid) -> float:
    """W^k_p(R_+, x^r; A^t) norm from normal-derivative profiles.

    ``profiles`` has shape (k+1, modes..., n_z): entry l holds the
    tangential-frequency data of D_n^l u at every normal node.  Computes
    ( sum_{l<=k} int ||D_n^l u(., x)||_{A^t}^p x^r dx )^{1/p}.
    """
    profiles = np.asarray(profiles)
    n_z = profiles.shape[-1]
    total = 0.0
    w = xgrid.quad_weights(r)
    fast_l2 = (tangential_spec.p == 2 and tangential_spec.scale in ("H", "W", "Lp"))
    for l in range(profiles.shape[0]):
        if fast_l2:
            if tangential_spec.scale in ("H", "W"):
                mult = np.asarray((1.0 + tgrid.xi_sq) ** (tangential_spec.s / 2.0))
                weighted = mult[..., None] ** 2 * np.abs(profiles[l]) ** 2
            else:
                weighted = np.abs(profiles[l]) ** 2
            sq = weighted.reshape(-1, n_z).sum(axis=0) * tgrid.L ** tgrid.n_axes
            norms = np.sqrt(sq)
        else:
            norms = np.array([
                space_norm(profiles[l][..., i], tangential_spec, tgrid)
                for i in range(n_z)
            ])
        total += float((norms ** p) @ w)
    return total ** (1.0 / p)


def ap_characteristic(weight, p: float, intervals, samples_per_interval: int = 512) -> float:
    """Muckenhoupt A_p characteristic over a family of intervals.

    sup over intervals of (avg w) * (avg w^{-1/(p-1)})^{p-1}, by midpoint
    quadrature; ``weight`` is a callable on the real line.
    """
    if p <= 1:
        raise ValueError("A_p characteristic needs p > 1")
    worst = 0.0
    for (a, b) in intervals:
        if not b > a:
            raise ValueError(f"bad interval ({a}, {b})")
        x = a + (b - a) * (np.arange(samples_per_interval) + 0.5) / samples_per_interval
        w = np.asarray(weight(x), dtype=float)
        if np.any(w <= 0):
            raise ValueError("weight must be positive on the sampled family")
        avg_w = w.mean()
        avg_dual = (w ** (-1.0 / (p - 1.0))).mean()
        worst = max(worst, avg_w * avg_dual ** (p - 1.0))
    return worst


def _hardy_matrix(grid: HalfLineGrid) -> np.ndarray:
    """Dense discretization of T f(x) = int f(y)/(x+y) dy on the grid."""
    x = grid.x
    w = grid.quad_weights(0.0)
    return w[None, :] / (x[:, None] + x[None, :])


def hardy_norm(p: float, r: float, grid: HalfLineGrid, max_iter: int = 400,
               tol: float = 1e-10, seed: int = 11) -> float:
    """Operator norm of T on L_p(x^r dx), discretized on the grid.

    p = 2: the weighted norm equals the spectral norm of D K D^{-1} with
    D = diag((w_i x_i^r)^{1/2}), symmetrised; its largest-magnitude
    eigenvalue comes from implicitly restarted Lanczos (ARPACK) started from
    the all-ones vector, so repeated calls return identical floats.
    General p: Boyd's L_p power method on the weighted functional; raises
    ValueError when it has not met ``tol`` after ``max_iter`` steps.
    """
    if not (1 < p < math.inf):
        raise ValueError("operator-norm estimate needs p in (1, inf)")
    K = _hardy_matrix(grid)
    wr = grid.quad_weights(r)
    if p == 2:
        from scipy.sparse.linalg import eigsh

        d = np.sqrt(wr)
        # A = D K D^{-1}, built in place on the fresh K
        A = K
        A *= d[:, None]
        A /= d[None, :]
        # kernel is symmetric under the weight conjugation up to quadrature
        A += A.T
        A *= 0.5
        top = eigsh(A, k=1, which="LM", v0=np.ones(grid.n_points),
                    return_eigenvectors=False)
        return float(abs(top[0]))
    rng = np.random.default_rng(seed)
    f = rng.random(grid.n_points) + 0.1
    pp = p / (p - 1.0)

    def norm_p(v):
        return float((wr @ np.abs(v) ** p) ** (1.0 / p))

    est = 0.0
    for _ in range(max_iter):
        f = f / max(norm_p(f), 1e-300)
        g = K @ f
        new_est = norm_p(g)
        # dual step: T^t in the weighted pairing <Tf, J(g)>_w
        jg = np.sign(g) * np.abs(g) ** (p - 1.0)
        h = K.T @ (wr * jg) / wr
        f = np.sign(h) * np.abs(h) ** (pp - 1.0)
        if abs(new_est - est) <= tol * max(new_est, 1.0):
            return new_est
        est = new_est
    raise ValueError(f"hardy_norm power iteration at p={p}, r={r} did not "
                     f"converge to tol={tol} in max_iter={max_iter} steps")


def mixed_lifting_check(fhat2d: np.ndarray, t: float, tgrid: TangentialGrid,
                        xi_normal: np.ndarray) -> float:
    """Full Bessel lift <D>^t versus the max of the two one-axis lifts.

    ``fhat2d`` holds 2-D frequency data (tangential axis x normal axis on a
    doubled torus with frequencies ``xi_normal``).  Both sides are L_2 norms
    on the product torus (Plancherel: coefficient sums); returns the ratio
    full / max(normal-lift, tangential-lift).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    xi_t_sq = np.atleast_1d(tgrid.xi_sq) if tgrid.n_axes else np.zeros(1)
    xt = xi_t_sq.reshape(-1, 1)
    xn = (np.asarray(xi_normal) ** 2).reshape(1, -1)
    full = (1.0 + xt + xn) ** (t / 2.0)
    lift_t = (1.0 + xt + 0 * xn) ** (t / 2.0)
    lift_n = (1.0 + 0 * xt + xn) ** (t / 2.0)

    def l2norm(mult):
        data = mult * fhat2d.reshape(xt.shape[0], xn.shape[1])
        return math.sqrt(float(np.sum(np.abs(data) ** 2)))

    lhs = l2norm(full)
    rhs = max(l2norm(lift_t), l2norm(lift_n))
    return lhs / max(rhs, 1e-300)
