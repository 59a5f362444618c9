"""The normal ODE in the Newton basis of its stable roots, for a batch of rows.

At a tangential frequency ``xi'`` and parameter ``lambda`` the interior
equation ``(lambda - A(D))u = 0`` becomes an ODE in the normal variable,

    lambda u - A(xi', D_n) u = 0,       D_n = -i d/dx_n,

whose decaying solutions are spanned by the stable roots ``tau`` of
``lambda - A(xi', tau)`` (``Im tau > 0``).  The solution space is written in
the Newton basis of those roots (Opitz 1964; McCurdy, Ng & Parlett, Math.
Comp. 1984),

    u = sum_k d_k [tau_1 ... tau_k] e^{i tau x_n},

with ``[tau_1 ... tau_k] f`` the divided difference of ``f`` on the first k
roots.  Every quantity in that basis stays finite and accurate as roots
merge: applied to a polynomial, a divided difference gives complete
homogeneous symmetric polynomials ``h_d`` of the roots, which take no
differences at all.  Each row runs through three stages, each batched:

* :func:`build_companion` finds the stable roots, sorted by increasing
  ``Im tau``, with the data of the root-margin and root-count checks.  A
  row even in tau, as every row of an operator with no odd normal
  derivative is, takes its roots as ``+-sqrt(sigma)`` from the m x m
  companion in sigma = tau^2, the others from the 2m x 2m companion; the
  route is chosen per row, so that no row's bits depend on its batch;
* :func:`boundary_map_conditioning` measures the Lopatinskii-Shapiro (LS)
  condition and returns the boundary map in the Newton basis;
* :func:`propagate` evaluates ``D_n^d`` of the Newton basis functions.  On
  a uniform grid from 0 (``x == x[1] * np.arange(n)`` exactly) it forms
  ``e^{i tau x[aB + b]}`` as ``e^{i tau x[aB]} e^{i tau x[b]}`` with
  ``B = isqrt(n)``: about ``2 sqrt(n)`` exponentials per root in place of
  n, with the error of rounding ``tau x``, a few ``eps (1 + |tau x|)``
  relative.  Every other grid takes one exponential per point.

For m <= 2, :func:`gram` integrates ``F_a conj(F_b) x^r`` of the basis that
:func:`propagate` evaluates over the whole half-line in closed form, so an
``L_2(x^r)`` norm of a kernel row needs no normal grid.

The LS measure uses the rescaled variables

    rho = (1 + |xi'|^2 + |lambda|^{1/m})^{1/2},   b = xi'/rho,   s = tau/rho,

in which the state ``(u, D_n u/rho, ..., D_n^{2m-1} u/rho^{2m-1})`` of
``e^{i tau x_n}`` at ``x_n = 0`` is ``(1, s, ..., s^{2m-1})``.  The Newton
vectors ``[s_1 ... s_k](1, s, ..., s^{2m-1})`` span the stable invariant
subspace of the rescaled companion matrix.  The boundary rows
``Lambda_j(b)`` applied to an orthonormal basis of it, each row divided by
``||Lambda_j(b)||``, make a map whose smallest singular value is the LS
measure: zero exactly where the condition fails, for every m, and
independent of the orthonormal basis chosen.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "build_companion",
    "propagate",
    "gram",
    "boundary_map_conditioning",
    "LopatinskiiError",
    "EllipticityMarginError",
]


class LopatinskiiError(ValueError):
    """Boundary map on the stable subspace is (numerically) singular."""


class EllipticityMarginError(ValueError):
    """A characteristic root sits too close to the real axis."""


# a root with |Im| at most this (relative to rho) counts as on the real axis
_AXIS_TOL = 1e-10
# the row-normalised LS map is singular below this smallest singular value
_LS_TOL = 1e-8
# m = 2 rows whose stable roots differ by less than this fraction of
# |tau_2| take e^{i tau_1 x} (e^{i (tau_2 - tau_1) x} - 1) from expm1; the
# others from e^{i tau_2 x} - e^{i tau_1 x}, which costs one exp instead of
# one expm1 (half the time); the division by tau_2 - tau_1 then amplifies
# its rounding by at most 1 / _CLOSE_ROOTS
_CLOSE_ROOTS = 1 / 8
# Taylor degree of the scaled exponential; its norm is at most 1, so the
# remainder is below 1/19! < 1e-17
_TAYLOR_DEGREE = 18


def _frequency_rows(problem, lam, xi_modes: np.ndarray):
    """Per-row inputs of the three stages, one row per pair of ``lam`` (any
    shape) and ``xi_modes`` (M, n-1): row ``i * M + k`` pairs ``lam.flat[i]``
    with ``xi_modes[k]``.  The one place that forms the (lambda, mode) rows.

    Returns ``(char, rows, rho)``: ``char[q]`` the coefficients of
    ``lambda - A(xi', tau)`` in increasing powers of tau, ``rows[q]`` the
    boundary table at ``b = xi'/rho`` (m x 2m) and ``rho[q]``.  Rejects the
    degenerate point ``xi' = 0``, ``lambda = 0``.
    """
    m = problem.m
    lam = np.asarray(lam, dtype=complex).reshape(-1, 1)
    if np.any((lam == 0) & ~xi_modes.any(axis=1)):
        raise ValueError("degenerate frequency point: xi' = 0 and lambda = 0")
    char = np.broadcast_to(-problem.interior_symbol.table(xi_modes),
                           (len(lam), len(xi_modes), 2 * m + 1)).copy()
    char[..., 0] += lam
    rho = np.sqrt(1.0 + (xi_modes ** 2).sum(axis=1) + np.abs(lam) ** (1.0 / m))
    rows = problem.boundary_table(xi_modes / rho[..., None])
    return char.reshape(-1, 2 * m + 1), rows.reshape(-1, m, 2 * m), rho.reshape(-1)


def _companion(poly: np.ndarray) -> np.ndarray:
    """Companion matrices (U, d, d) of the polynomials ``poly`` (U, d + 1),
    coefficients in increasing powers: their eigenvalues are the roots."""
    d = poly.shape[1] - 1
    C = np.zeros((len(poly), d, d), dtype=complex)
    C[:, np.arange(d - 1), np.arange(1, d)] = 1.0
    C[:, -1, :] = -poly[:, :d] / poly[:, d, None]
    return C


def build_companion(char: np.ndarray, rho: np.ndarray):
    """Stable roots of the characteristic polynomials ``char`` (U, 2m + 1).

    The roots are the eigenvalues of companion matrices, taken in batched
    calls.  A row whose odd-power coefficients are all exactly zero is a
    polynomial in sigma = tau^2: its 2m roots are ``+-sqrt(sigma)`` over the
    eigenvalues sigma of the m x m companion of ``char[q, ::2]``.  Every
    other row takes the 2m x 2m companion of ``char[q]``.  The route is
    chosen row by row, so a row's bits do not depend on the rows batched
    with it.  Returns ``(taus, margin, counts)``: the m roots with the
    smallest positive imaginary parts, sorted by increasing ``Im tau``
    (U, m); the smallest ``|Im tau| / rho`` over all 2m roots (U,); and the
    number of roots with ``Im tau > 0`` (U,).  A row is elliptic when
    ``margin > _AXIS_TOL`` and ``counts == m``; where ``counts < m`` the
    last roots of ``taus`` are not stable.
    """
    order = char.shape[1] - 1
    even = ~char[:, 1::2].any(axis=1)
    eigs = np.empty((len(char), order), dtype=complex)
    if even.any():
        root = np.sqrt(np.linalg.eigvals(_companion(char[even, ::2])))
        eigs[even] = np.concatenate([root, -root], axis=1)
    if not even.all():
        eigs[~even] = np.linalg.eigvals(_companion(char[~even]))
    pos = eigs.imag > 0
    key = np.where(pos, eigs.imag, np.inf)
    idx = np.argsort(key, axis=1)[:, :order // 2]
    margin = np.abs(eigs.imag).min(axis=1) / rho
    return np.take_along_axis(eigs, idx, axis=1), margin, pos.sum(axis=1)


def _complete_homogeneous(points: np.ndarray, degree: int) -> np.ndarray:
    """``H[..., k, d] = h_d(points[..., 0], ..., points[..., k])`` for
    d = 0..degree, from ``h_d(x_0..x_k) = h_d(x_0..x_{k-1}) + x_k h_{d-1}(x_0..x_k)``."""
    m = points.shape[-1]
    H = np.empty(points.shape + (degree + 1,), dtype=complex)
    H[..., 0] = 1.0
    for k in range(m):
        for d in range(1, degree + 1):
            H[..., k, d] = points[..., k] * H[..., k, d - 1]
            if k:
                H[..., k, d] += H[..., k - 1, d]
    return H


def _newton_vectors(s: np.ndarray, width: int) -> np.ndarray:
    """``[s_1 ... s_k](1, s, ..., s^{width-1})`` as columns: entry (l, k) is
    ``h_{l-k}(s_1..s_{k+1})`` (0-based k, zero for l < k); (U, width, m)."""
    H = _complete_homogeneous(s, width - 1)
    N = np.zeros(s.shape[:1] + (width, s.shape[1]), dtype=complex)
    for k in range(s.shape[1]):
        N[:, k:, k] = H[:, k, :width - k]
    return N


def boundary_map_conditioning(s: np.ndarray, rows: np.ndarray):
    """LS measure and Newton boundary map of U rows.

    ``s`` are the stable roots divided by rho (U, m), ``rows`` the boundary
    tables at ``b`` (U, m, 2m).  The Newton vectors are orthonormalised by a
    batched QR factorisation; row j of ``rows`` applied to that basis,
    divided by ``||rows[:, j]||`` so that each boundary operator counts at
    unit size (a 1 x 1 map is then not scored 1 by construction), makes the
    map whose singular values are returned, in decreasing order (U, m).  The
    last column is the LS measure.  Also returns ``rows`` applied to the
    Newton vectors themselves (U, m, m): entry (j, k) is
    ``sum_l b_jl(b) h_{l-k}(s_1..s_{k+1})``.  Never raises on a singular map.
    """
    N = _newton_vectors(s, rows.shape[-1])
    Q = np.linalg.qr(N, mode="reduced")[0]
    norms = np.maximum(np.linalg.norm(rows, axis=-1), 1e-300)
    svals = np.linalg.svd((rows @ Q) / norms[..., None], compute_uv=False)
    return svals, rows @ N


def _root_gap(t1, t2):
    """``t2 - t1``; an exact tie becomes a gap far below the roots' rounding,
    so a divided difference over it tends to its confluent limit instead of
    0/0."""
    delta = t2 - t1
    if delta.all():
        return delta
    return np.where(delta == 0, np.abs(t1) * 2.0 ** -60 + 1e-300, delta)


def _exact_bands(E: np.ndarray, taus: np.ndarray, x: np.ndarray) -> None:
    """Overwrite the diagonal and superdiagonal of ``E = expm(i x J)``
    (U, X, m, m) with their closed forms ``e^{i tau_k x}`` and
    ``[tau_k, tau_{k+1}] e^{i tau x} = e^{i tau_k x} expm1(i delta_k x) / delta_k``,
    ``delta_k = tau_{k+1} - tau_k`` (x: (U, X))."""
    t = taus[:, None, :]
    diag = np.exp(1j * t * x[..., None])
    delta = _root_gap(t[..., :-1], t[..., 1:])
    m = taus.shape[1]
    E[..., np.arange(m), np.arange(m)] = diag
    E[..., np.arange(m - 1), np.arange(1, m)] = (
        diag[..., :-1] * np.expm1(1j * delta * x[..., None]) / delta)


def _propagate_expm(taus: np.ndarray, x: np.ndarray, deriv_order: int):
    """:func:`propagate` for any m: the first row of ``J^d expm(i x J)``.

    J is the upper bidiagonal matrix with diagonal ``taus[q]`` and unit
    superdiagonal; entry (i, k) of ``expm(i x J)`` is
    ``[tau_{i+1} ... tau_{k+1}] e^{i tau x}`` (Opitz 1964), and the first row
    of ``J^d`` holds ``h_{d-i}(tau_1 .. tau_{i+1})``.  Batched scaling and
    squaring: each ``i x J`` is scaled by 2^-s to norm at most 1, its Taylor
    polynomial taken by Horner's rule, and squared s times.  The diagonal
    and superdiagonal are reset to their closed forms after every squaring
    (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 2009), so the squarings
    add no error to them.
    """
    U, m = taus.shape
    J = np.zeros((U, m, m), dtype=complex)
    J[:, np.arange(m), np.arange(m)] = taus
    J[:, np.arange(m - 1), np.arange(1, m)] = 1.0
    A = 1j * x[None, :, None, None] * J[:, None]
    norm = np.abs(A).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm, 1.0))).astype(int)
    A *= 2.0 ** -s[..., None, None]
    eye = np.eye(m, dtype=complex)
    E = eye + A / _TAYLOR_DEGREE
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):
        E = eye + (A @ E) / k
    xs = x[None, :] * 2.0 ** -s
    _exact_bands(E, taus, xs)
    for i in range(1, int(s.max(initial=0)) + 1):
        E = np.where((s >= i)[..., None, None], E @ E, E)
        xs = x[None, :] * 2.0 ** (np.minimum(i, s) - s)
        _exact_bands(E, taus, xs)
    H = _complete_homogeneous(taus, deriv_order)
    r = np.zeros((U, m), dtype=complex)
    for i in range(min(m, deriv_order + 1)):
        r[:, i] = H[:, i, deriv_order - i]
    F = np.einsum("qi,qxik->qkx", r, E)
    return np.broadcast_to(np.eye(m, dtype=complex), (U, m, m)), F


def _exp_i(taus: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``e^{i tau x}`` for every root of ``taus`` (U, m) at the points x,
    (U, m, len(x)): on a uniform grid from 0 as block factor times offset
    (see :func:`propagate`), elsewhere one exponential per point.
    ``x[aB + b]`` is ``x[aB] + x[b]`` up to one rounding, and ``Im tau > 0``
    keeps both factors at most 1 in modulus, so nothing overflows.  The
    route depends on x alone, so a row's bits do not depend on the rows
    batched with it.
    """
    n = x.size
    F = np.empty(taus.shape + (n,), dtype=complex)
    itau = 1j * taus[..., None]
    if n < 2 or not np.array_equal(x[1] * np.arange(n), x):
        np.multiply(itau, x, out=F)
        return np.exp(F, out=F)
    B = math.isqrt(n)
    full = n // B
    offsets = np.exp(itau * x[:B])
    blocks = np.exp(itau * x[::B])
    np.multiply(blocks[..., :full, None], offsets[..., None, :],
                out=F[..., :full * B].reshape(taus.shape + (full, B)))
    np.multiply(blocks[..., full:], offsets[..., :n - full * B], out=F[..., full * B:])
    return F


def _basis_coeffs(taus: np.ndarray, deriv_order: int) -> np.ndarray:
    """The factor A (U, m, m) of :func:`propagate` for m <= 2: the k-th
    basis function's ``D_n^d`` is ``sum_i A[q, k, i] F[q, i, x]``."""
    U, m = taus.shape
    A = np.zeros((U, m, m), dtype=complex)
    A[:, 0, 0] = taus[:, 0] ** deriv_order
    if m == 2:
        if deriv_order:
            A[:, 1, 0] = _complete_homogeneous(taus, deriv_order - 1)[:, 1, -1]
        A[:, 1, 1] = taus[:, 1] ** deriv_order / _root_gap(taus[:, 0], taus[:, 1])
    return A


def propagate(taus: np.ndarray, x: np.ndarray, deriv_order: int = 0):
    """``D_n^d [tau_1 ... tau_k] e^{i tau x}`` for the rows' stable roots
    ``taus`` (U, m), sorted by increasing ``Im tau``, at the points x >= 0.

    Returned in factored form ``(A, F)``, A (U, m, m) constant in x and
    F (U, m, len(x)), with the k-th basis function
    ``sum_i A[q, k, i] F[q, i, x]``, so a caller contracts its coefficients
    with A once per row and with F once per point:

    * m = 1: ``F = e^{i tau x}``, ``A = tau^d``;
    * m = 2: ``F = (e^{i tau_1 x}, e^{i tau_1 x} expm1(i (tau_2 - tau_1) x))``
      and ``A = ((tau_1^d, 0), (h_{d-1}(tau_1, tau_2), tau_2^d/(tau_2 - tau_1)))``.
      ``Im tau_1 <= Im tau_2``, so the argument of expm1 has real part
      <= 0 and nothing overflows.  Rows with roots further apart than
      ``_CLOSE_ROOTS |tau_2|`` take the second entry as
      ``e^{i tau_2 x} - e^{i tau_1 x}``;
    * m >= 3: F is the first row of ``J^d expm(i x J)`` (see
      :func:`_propagate_expm`) and A the identity.

    For m <= 2 the exponentials ``e^{i tau x}`` come from :func:`_exp_i`:
    on a uniform grid from 0, ``x == x[1] * np.arange(n)`` exactly (as
    ``UniformHalfGrid.x``), each is a block factor ``e^{i tau x[aB]}``
    times an offset ``e^{i tau x[b]}``, B = isqrt(n), about 2 sqrt(n)
    exponentials per root; its error is that of rounding ``tau x``, within
    ``c eps (1 + |tau x|)`` of the exact value, c <= 8 (measured at most
    2.2 on the kernels at the semigroup contour's nodes, against 2.6 with
    one exponential per point).  Any other x, a grid one ulp off included,
    takes one exponential per point.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x_n must be >= 0")
    if deriv_order < 0:
        raise ValueError("deriv_order must be >= 0")
    m = taus.shape[1]
    if m > 2:
        return _propagate_expm(taus, x, deriv_order)
    F = _exp_i(taus, x)
    if m == 2:
        delta = _root_gap(taus[:, 0], taus[:, 1])
        F[:, 1] -= F[:, 0]
        close = np.flatnonzero(np.abs(delta) < _CLOSE_ROOTS * np.abs(taus[:, 1]))
        tmp = np.multiply(1j * delta[close, None], x)
        np.expm1(tmp, out=tmp)
        F[close, 1] = np.multiply(F[close, 0], tmp, out=tmp)
    return _basis_coeffs(taus, deriv_order), F


def gram(taus: np.ndarray, r: float) -> np.ndarray:
    """Hermitian Gram matrices ``G[q, a, b] = int_0^inf F_a F_b^* x^r dx``
    (U, m, m) of :func:`propagate`'s basis F on the rows' stable roots
    ``taus`` (U, m), m <= 2, sorted by increasing ``Im tau``; r > -1.

    Each entry is a sum of the closed forms
    ``K(z) = int_0^inf e^{i z x} x^r dx = Gamma(1 + r) (-i z)^{-(1 + r)}``,
    ``Im z > 0``, at ``z = tau_a - conj(tau_b)``.  With
    ``s = tau_1 - conj(tau_1) = 2i Im tau_1``, ``delta = tau_2 - tau_1`` and
    ``a = delta / s`` (so ``Re a >= 0``), c = -(1 + r) and
    ``e = (1 + a)^c - 1``:

        G = K(s) ((1, conj e), (e, |1 + a|^{2c} ((1 - y)^c - 1) + |e|^2)),
        y = |a|^2 / |1 + a|^2,

    the first and second differences of K over the root gap, taken as
    ratios to K(s) so that nothing is subtracted: e from ``log1p`` and
    ``expm1``, and ``G[1, 1]`` as the sum of two terms that are >= 0.
    ``1 - y = (1 + 2 Re a) / |1 + a|^2`` is formed apart from y, and
    ``log(1 - y)`` is taken from whichever of the two is at most 1/2, so
    neither merging roots (a -> 0) nor roots far apart against their decay
    (|a| large) loses digits.  A tie takes the gap of :func:`propagate`,
    whose A divides by it.
    """
    U, m = taus.shape
    if m > 2:
        raise ValueError(f"gram takes m <= 2 stable roots, got {m}")
    if not r > -1:
        raise ValueError(f"'r' must exceed -1, got {r}")
    c = -(1.0 + r)
    G = np.empty((U, m, m), dtype=complex)
    ks = math.gamma(1.0 + r) * (2.0 * taus[:, 0].imag) ** c
    G[:, 0, 0] = ks
    if m == 2:
        a = _root_gap(taus[:, 0], taus[:, 1]) / (2j * taus[:, 0].imag)
        sq = np.abs(1.0 + a) ** 2        # no cancellation: Re a >= 0
        # log(1 + a) from log |1 + a|^2 = log1p(2 Re a + |a|^2) and its angle:
        # NumPy's complex log1p reads 6e-9 relative at |a| = 1e-8
        log1p_a = 0.5 * np.log1p(2.0 * a.real + np.abs(a) ** 2) + 1j * np.angle(1.0 + a)
        e = np.expm1(c * log1p_a)
        y, one_minus_y = np.abs(a) ** 2 / sq, (1.0 + 2.0 * a.real) / sq
        log_one_minus_y = np.where(y <= 0.5, np.log1p(-y), np.log(one_minus_y))
        G[:, 1, 0] = ks * e
        G[:, 0, 1] = ks * e.conj()
        G[:, 1, 1] = ks * (np.exp(2.0 * c * log1p_a.real) * np.expm1(c * log_one_minus_y)
                           + np.abs(e) ** 2)
    return G
