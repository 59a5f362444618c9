"""Tangential H^t_2 norms, weighted mixed norms and the Hilbert-kernel
integral operator.

Every tangential norm is the Bessel-potential norm H^t_2 on the torus
(:class:`halfpoisson.grids.TangentialGrid`), taken from the Fourier
coefficients by Plancherel (:func:`plancherel_norms`), which is exact: no
sampling in space and no dyadic resolution is needed.  Every command
measures the tangential part in this one scale.  The other scales of the
paper (L_p with p != 2, Besov, Triebel-Lizorkin) differ from it only at
p != 2, where the norm equivalences rest on multiplier theorems and no
command checks a claim.  The parameter-dependent norm applies the multiplier
``(1 + |xi|^2 + |mu|^2)^{(s - s0)/2}`` before the H^{s0}_2 norm.

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

import numpy as np

from .grids import HalfLineGrid, TangentialGrid

__all__ = [
    "plancherel_norms",
    "space_norm",
    "param_norm",
    "sobolev_mixed_norm",
    "hardy_norm",
    "mixed_lifting_check",
]


def plancherel_norms(fhat: np.ndarray, t: float, grid: TangentialGrid) -> np.ndarray:
    """H^t_2 norm on the torus of each column of ``fhat``.

    ``fhat`` holds Fourier coefficients with the modes flattened along the
    first axis, in the order of ``grid.xi_modes``: shape (modes,) for one
    function or (modes, n_z) for one per normal node.  By Plancherel,
    ||f||^2 = L^(n-1) sum_k <xi_k>^(2t) |fhat_k|^2.
    """
    fhat = np.asarray(fhat)
    mult = np.reshape((1.0 + grid.xi_sq) ** (t / 2.0), (-1,) + (1,) * (fhat.ndim - 1))
    return np.sqrt((mult ** 2 * np.abs(fhat) ** 2).sum(axis=0) * grid.L ** grid.n_axes)


def space_norm(fhat: np.ndarray, s: float, grid: TangentialGrid) -> float:
    """H^s_2 norm of one function on the torus."""
    return float(plancherel_norms(np.reshape(fhat, -1), s, grid))


def param_norm(fhat: np.ndarray, s: float, s0: float, mu: complex,
               grid: TangentialGrid) -> float:
    """Parameter-dependent norm: multiplier <xi, mu>^{s-s0} then the H^{s0}_2
    norm."""
    mult = (1.0 + grid.xi_sq + abs(mu) ** 2) ** ((s - s0) / 2.0)
    return space_norm(mult * fhat, s0, grid)


def sobolev_mixed_norm(profiles, p: float, r: float, t: float,
                       tgrid: TangentialGrid, xgrid: HalfLineGrid) -> float:
    """W^k_p(R_+, x^r; H^t_2) norm from normal-derivative profiles.

    ``profiles`` has shape (k+1, modes..., n_z), the modes flat or in the
    grid's mode shape: entry l holds the tangential-frequency data of
    D_n^l u at every normal node.  Computes
    ( sum_{l<=k} int ||D_n^l u(., x)||_{H^t_2}^p x^r dx )^{1/p}.
    """
    profiles = np.asarray(profiles)
    n_z = profiles.shape[-1]
    w = xgrid.quad_weights(r)
    total = 0.0
    for prof in profiles:
        norms = plancherel_norms(prof.reshape(-1, n_z), t, tgrid)
        total += float((norms ** p) @ w)
    return total ** (1.0 / p)


def _hardy_matrix(grid: HalfLineGrid) -> np.ndarray:
    """Dense discretization of T f(x) = int f(y)/(x+y) dy on the grid."""
    x = grid.x
    w = grid.quad_weights(0.0)
    return w[None, :] / (x[:, None] + x[None, :])


# hardy_norm's power iteration: step limit, relative tolerance, start seed
_POWER_MAX_ITER = 400
_POWER_TOL = 1e-10
_POWER_SEED = 11


def hardy_norm(p: float, r: float, grid: HalfLineGrid) -> float:
    """Operator norm of T on L_p(x^r dx), discretized on the grid.

    p = 2: the weighted norm equals the spectral norm of D K D^{-1} with
    D = diag((w_i x_i^r)^{1/2}), symmetrised; its largest-magnitude
    eigenvalue comes from implicitly restarted Lanczos (ARPACK) started from
    the all-ones vector, so repeated calls return identical floats.
    General p: Boyd's L_p power method on the weighted functional; raises
    ValueError when it has not met ``_POWER_TOL`` after ``_POWER_MAX_ITER``
    steps.
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
    rng = np.random.default_rng(_POWER_SEED)
    f = rng.random(grid.n_points) + 0.1
    pp = p / (p - 1.0)

    def norm_p(v):
        return float((wr @ np.abs(v) ** p) ** (1.0 / p))

    est = 0.0
    for _ in range(_POWER_MAX_ITER):
        f = f / max(norm_p(f), 1e-300)
        g = K @ f
        new_est = norm_p(g)
        # dual step: T^t in the weighted pairing <Tf, J(g)>_w
        jg = np.sign(g) * np.abs(g) ** (p - 1.0)
        h = K.T @ (wr * jg) / wr
        f = np.sign(h) * np.abs(h) ** (pp - 1.0)
        if abs(new_est - est) <= _POWER_TOL * max(new_est, 1.0):
            return new_est
        est = new_est
    raise ValueError(f"hardy_norm power iteration at p={p}, r={r} did not "
                     f"converge to tol={_POWER_TOL} in max_iter={_POWER_MAX_ITER} steps")


def mixed_lifting_check(fhat2d: np.ndarray, t: float, tgrid: TangentialGrid,
                        xi_normal: np.ndarray) -> np.ndarray | float:
    """Full Bessel lift <D>^t versus the max of the two one-axis lifts.

    ``fhat2d`` holds 2-D frequency data, shape (..., modes, n_z): tangential
    modes x normal axis on a doubled torus with frequencies ``xi_normal``,
    behind any leading stack axes.  Both sides are L_2 norms on the product
    torus (Plancherel: coefficient sums); returns the ratio
    full / max(normal-lift, tangential-lift) of each entry of the stack,
    shape ``fhat2d.shape[:-2]`` (a scalar for one entry).  Every entry sums
    its coefficients in the order of a call on that entry alone.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    xt = tgrid.xi_sq[:, None]
    xn = (np.asarray(xi_normal) ** 2).reshape(1, -1)

    def l2norm(mult):
        sq = np.abs(mult * fhat2d) ** 2
        return np.sqrt(sq.reshape(sq.shape[:-2] + (-1,)).sum(axis=-1))

    lhs = l2norm((1.0 + xt + xn) ** (t / 2.0))
    rhs = np.maximum(l2norm((1.0 + xt) ** (t / 2.0)), l2norm((1.0 + xn) ** (t / 2.0)))
    return (lhs / np.maximum(rhs, 1e-300))[()]
