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

is discretized with those quadrature weights.  Its kernel is homogeneous of
degree -1, so T is a Mellin convolution, and on the geometric grid the
discretization is a Toeplitz matrix times a diagonal; it is applied by FFT
and never formed.  In u = x^{(1+r)/p} f the L_p(x^r dx) norm becomes an
l_p norm whose weights do not grow with x, which keeps the iterates near
unit size across the grid's decades.  The operator norm is the top singular
value of the weight-scaled operator for p = 2 (Lanczos on its Gram operator
from the all-ones start vector) and comes from an L_p power iteration
(Boyd's method, from the same start) otherwise; see :func:`hardy_norm`.
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
    power = np.abs(fhat)     # one temporary the size of fhat's real part
    np.square(power, out=power)
    power *= mult ** 2
    return np.sqrt(power.sum(axis=0) * grid.L ** grid.n_axes)


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

    ``profiles`` is a sequence of k+1 arrays (or one array stacking them),
    each of shape (modes..., n_z), the modes flat or in the grid's mode
    shape: entry l holds the tangential-frequency data of D_n^l u at every
    normal node.  Computes
    ( sum_{l<=k} int ||D_n^l u(., x)||_{H^t_2}^p x^r dx )^{1/p}.
    """
    w = xgrid.quad_weights(r)
    total = 0.0
    for prof in profiles:
        prof = np.asarray(prof)
        norms = plancherel_norms(prof.reshape(-1, prof.shape[-1]), t, tgrid)
        total += float((norms ** p) @ w)
    return total ** (1.0 / p)


# hardy_norm's power iteration: step limit, relative tolerance
_POWER_MAX_ITER = 400
_POWER_TOL = 1e-10
# _lanczos_top accepts the top Ritz pair at this residual, relative to its value
_LANCZOS_TOL = 1e-13


def _mellin_toeplitz(a: float, grid: HalfLineGrid):
    """FFT products with the Toeplitz matrix Psi_ij = psi_a(i - j),
    psi_a(k) = ratio^{ak} / (1 + ratio^k), and with its transpose.

    Returns ``(apply, apply_t)``: z -> Psi z and z -> Psi^T z on vectors of
    ``grid.n_points`` entries.  Psi is embedded in a circulant of length
    2^ceil(log2(2n - 1)): the first n outputs of the cyclic product read only
    the offsets |k| < n, so nothing wraps.  The transposed kernel is the
    reversed one, whose transform is the conjugate.
    """
    n = grid.n_points
    size = 1 << (2 * n - 2).bit_length()
    k = np.arange(size)
    t = np.where(k < n, k, k - size) * math.log(grid.ratio)
    # ratio^{ak} / (1 + ratio^k), without forming ratio^k
    psi_hat = np.fft.rfft(np.exp(a * t - np.logaddexp(0.0, t)))
    psi_hat_t = psi_hat.conj()

    def apply(z):
        return np.fft.irfft(psi_hat * np.fft.rfft(z, size), size)[:n]

    def apply_t(z):
        return np.fft.irfft(psi_hat_t * np.fft.rfft(z, size), size)[:n]

    return apply, apply_t


def _lanczos_top(matvec, n: int) -> float:
    """Eigenvalue of largest magnitude of the symmetric n x n operator
    ``matvec`` (v -> A v).

    Lanczos with full reorthogonalisation (two Gram-Schmidt passes against
    the whole basis), started from the normalised all-ones vector, so
    repeated calls return identical floats.  Stops at the first step k whose
    top Ritz pair (theta, s) has residual beta_k |s_k| <= ``_LANCZOS_TOL`` *
    |theta|, which includes breakdown (beta_k = 0), and after n steps at the
    latest, when the Krylov space is all of R^n.  The basis rows live in one
    buffer that doubles when full.
    """
    # 32 rows hold hardy_norm's 22 steps without a copy
    Q = np.empty((min(n, 32), n))
    Q[0] = q = np.full(n, 1.0 / math.sqrt(n))
    alphas, betas = [], []
    for k in range(n):
        w = matvec(q)
        alphas.append(float(q @ w))
        basis = Q[:k + 1]
        for _ in range(2):
            w -= (basis @ w) @ basis
        beta = float(np.linalg.norm(w))
        T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        theta, S = np.linalg.eigh(T)
        top = int(np.argmax(np.abs(theta)))
        if beta * abs(S[-1, top]) <= _LANCZOS_TOL * abs(theta[top]) or k == n - 1:
            return float(theta[top])
        if k + 1 == len(Q):
            Q = np.concatenate([Q, np.empty((min(len(Q), n - len(Q)), n))])
        Q[k + 1] = q = w / beta
        betas.append(beta)


def hardy_norm(p: float, r: float, grid: HalfLineGrid) -> float:
    """Operator norm of T on L_p(x^r dx), discretized on the grid.

    The quadrature of T is K_ij = w_j / (x_i + x_j), w = ``quad_weights(0)``.
    On the geometric grid w = x gamma^(0) and ``quad_weights(r)`` = x^{1+r}
    gamma^(r) (``HalfLineGrid.log_weights``), so

        K_ij = gamma^(0)_j / (1 + ratio^{i-j}),

    a Toeplitz matrix times a diagonal: the discrete Mellin convolution
    behind the exact norm pi / sin(pi (1+r)/p) (Hardy, Littlewood & Polya,
    *Inequalities*, Thm 319).  In u = x^a f with a = (1+r)/p, the
    L_p(x^r) norm of f is the l_p(gamma^(r)) norm of u, and K becomes
    u -> Psi_a (gamma^(0) u), Psi_a the Toeplitz matrix of
    psi_a(k) = ratio^{ak} / (1 + ratio^k), applied by FFT
    (:func:`_mellin_toeplitz`).  The rescaling keeps the iterates near unit
    size on a grid that spans tens of decades; in f they span as many.

    p = 2: the weighted norm is the spectral norm of B = D K D^{-1} with
    D = diag(quad_weights(r)^{1/2}) = diag(x^a (gamma^(r))^{1/2}), the
    square root of the top eigenvalue of B^T B, which comes from Lanczos
    (:func:`_lanczos_top`) started from the all-ones vector.  B itself is
    not symmetric: psi_a(k) != psi_a(-k) unless a = 1/2, and the head
    weights at x_min differ.  The start is safe: B^T B has positive
    entries, so by Perron-Frobenius its top eigenvector is positive and not
    orthogonal to the all-ones vector.
    General p: Boyd's L_p power method on the weighted functional, in u,
    started from the flat vector u = 1; raises ValueError when it has not
    met ``_POWER_TOL`` after ``_POWER_MAX_ITER`` steps.  The start is safe
    for the same reason: K has positive entries, so its L_p maximiser is
    positive and the iteration converges to it from any positive start
    (Boyd, *Linear Algebra Appl.* 9, 1974); every iterate stays positive.
    """
    if not (1 < p < math.inf):
        raise ValueError(f"'p' must lie in (1, inf), got {p}")
    a = (1.0 + r) / p
    apply, apply_t = _mellin_toeplitz(a, grid)
    g0, gr = grid.log_weights(0.0), grid.log_weights(r)
    if p == 2:
        # B = diag(d) Psi_a diag(e), d = (gamma^(r))^{1/2}, e = gamma^(0) / d
        e = g0 / np.sqrt(gr)

        def gram(v):
            return e * apply_t(gr * apply(e * v))

        return math.sqrt(_lanczos_top(gram, grid.n_points))
    u = np.ones(grid.n_points)
    pp = p / (p - 1.0)

    def norm_p(v):
        return float((gr @ np.abs(v) ** p) ** (1.0 / p))

    est = 0.0
    for _ in range(_POWER_MAX_ITER):
        u = u / max(norm_p(u), 1e-300)
        v = apply(g0 * u)
        new_est = norm_p(v)
        # dual step: K^t in the weighted pairing <Kf, J(Kf)>, in u
        jv = np.sign(v) * np.abs(v) ** (p - 1.0)
        h = g0 / gr * apply_t(gr * jv)
        u = np.sign(h) * np.abs(h) ** (pp - 1.0)
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
    if not t >= 0:
        raise ValueError(f"'t' must be >= 0, got {t}")
    xt = tgrid.xi_sq[:, None]
    xn = (np.asarray(xi_normal) ** 2).reshape(1, -1)

    def l2norm(mult):
        sq = np.abs(mult * fhat2d) ** 2
        return np.sqrt(sq.reshape(sq.shape[:-2] + (-1,)).sum(axis=-1))

    lhs = l2norm((1.0 + xt + xn) ** (t / 2.0))
    rhs = np.maximum(l2norm((1.0 + xt) ** (t / 2.0)), l2norm((1.0 + xn) ** (t / 2.0)))
    return (lhs / np.maximum(rhs, 1e-300))[()]
