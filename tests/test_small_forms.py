"""The closed forms of ``kernel_batch``'s stages for m <= 2 against LAPACK,
on the three bundled problems at n = 2 and n = 3, the oblique row
B = D_n + a D_1, the sheared Laplacian (odd in tau, so a quadratic in tau
at m = 1), rows near the LS failure set of B = D_n - 2i D_1
(lambda = 3 xi_1^2) and the clamped plate where its roots merge:

* the roots of a degree-1 or degree-2 polynomial against the eigenvalues
  of its companion matrix: degree 1 bit for bit; degree 2 within
  ``ROOT_C eps kappa`` of each root, with kappa the root's absolute
  condition number ``sum_k |c_k| |z|^k / |p'(z)|``;
* the LS measure against QR and SVD of the same Newton vectors, within
  ``SV_C eps`` of each singular value: the map is unit rows applied to an
  orthonormal basis, so its entries carry errors of a few eps, and no
  singular value moves by more than the error's norm (Weyl); relative to
  the smallest that is ``SV_C eps cond``;
* the Newton boundary map against the matrix product, within ``MAP_C eps``
  of the sum of the products' magnitudes;
* the coefficients against a LAPACK solve, within
  ``INV_C eps cond(bmap) ||bmap^-1||``.

Degree > 2 and m >= 3 keep the LAPACK calls, and m <= 2 makes none.
Degenerate rows raise the errors they raised on the LAPACK route, and a
nan fails a check instead of passing it.
"""

import cmath

import numpy as np
import pytest

import halfpoisson as hp
from halfpoisson import companion as comp
from halfpoisson import poisson as poi
from test_batching import _ls_violating_laplacian
from test_newton_route import sheared_dirichlet_laplacian
from test_oblique import oblique_laplacian

EPS = np.finfo(float).eps
ROOT_C, SV_C, MAP_C, INV_C = 8, 8, 4, 8

PROBLEMS = {
    "dirichlet": lambda: hp.dirichlet_laplacian(2),
    "dirichlet_n3": lambda: hp.dirichlet_laplacian(3),
    "neumann": lambda: hp.neumann_laplacian(2),
    "neumann_n3": lambda: hp.neumann_laplacian(3),
    "clamped": lambda: hp.clamped_bilaplacian(2),
    "clamped_n3": lambda: hp.clamped_bilaplacian(3),
    "oblique": lambda: oblique_laplacian(2, 0.5),
    "sheared": sheared_dirichlet_laplacian,
}


def _case(name):
    """``(problem, lambda, xi')`` of a case.  A problem of ``PROBLEMS`` takes
    lambda over the sector (moduli 1..1e4) and xi' in [-5, 5]^(n-1), with
    xi' = 0 and one large mode.  ``ls_near_failure`` is B = D_n - 2i D_1 at
    xi' = 1 and lambda = 3 (1 + delta); ``clamped_merging`` the clamped plate
    at lambda = 4 e^{0.5i} and 4, xi' up to 3e4, where the stable roots' gap
    is about 2 / xi'^2 relative."""
    if name == "ls_near_failure":
        return (_ls_violating_laplacian(),
                3.0 * (1.0 + np.array([1e-9, 1e-6, 1e-3, 1e-1])), np.array([[1.0]]))
    if name == "clamped_merging":
        return (hp.clamped_bilaplacian(), np.array([4.0 * cmath.exp(0.5j), 4.0 + 0j]),
                np.array([[1e2], [1e3], [1.09e4], [3e4]]))
    p, rng = PROBLEMS[name](), np.random.default_rng(7)
    lam = 10.0 ** rng.uniform(0, 4, 12) * np.exp(1j * rng.uniform(-p.phi, p.phi, 12))
    xi = np.vstack([np.zeros(p.n - 1), rng.uniform(-5, 5, (10, p.n - 1)),
                    np.full(p.n - 1, 300.0)])
    return p, lam, xi


CASES = sorted(PROBLEMS) + ["ls_near_failure", "clamped_merging"]


def _route_polys(char):
    """The polynomials build_companion takes roots of: in sigma = tau^2 for
    rows with no odd power, in tau for the others."""
    even = ~char[:, 1::2].any(axis=1)
    return [poly for poly in (char[even, ::2], char[~even]) if len(poly)]


def _root_condition(poly, z):
    """Absolute condition numbers of the roots z (U, d) of ``poly``."""
    powers = np.abs(z[..., None]) ** np.arange(poly.shape[1])
    size = (np.abs(poly)[:, None, :] * powers).sum(axis=-1)
    deriv = sum(k * poly[:, k, None] * z ** (k - 1) for k in range(1, poly.shape[1]))
    return size / np.abs(deriv)


@pytest.mark.parametrize("case", CASES)
def test_roots_against_the_companion_eigenvalues(case):
    p, lam, xi = _case(case)
    char = comp._frequency_rows(p, lam, xi)[0]
    for poly in _route_polys(char):
        got = comp._polynomial_roots(poly)
        want = np.linalg.eigvals(comp._companion(poly))
        assert np.all(np.isfinite(got))
        if poly.shape[1] == 2:
            assert np.array_equal(got, want)
            continue
        # pair the roots: each LAPACK root with the nearer closed-form one
        swap = (np.abs(got[:, ::-1] - want).sum(axis=1) < np.abs(got - want).sum(axis=1))
        want[swap] = want[swap, ::-1]
        err = np.abs(got - want)
        assert np.all(err <= ROOT_C * EPS * _root_condition(poly, want)), \
            (err / (EPS * _root_condition(poly, want))).max()


def _lapack_conditioning(s, rows):
    """The LS measure and Newton map by batched QR, SVD and matmul."""
    N = comp._newton_vectors(s, rows.shape[-1])
    Q = np.linalg.qr(N, mode="reduced")[0]
    norms = np.maximum(np.linalg.norm(rows, axis=-1), 1e-300)
    return (np.linalg.svd((rows @ Q) / norms[..., None], compute_uv=False),
            rows @ N, np.abs(rows) @ np.abs(N))


@pytest.mark.parametrize("case", CASES)
def test_ls_measure_and_map_against_qr_and_svd(case):
    p, lam, xi = _case(case)
    char, rows, rho = comp._frequency_rows(p, lam, xi)
    taus, _, counts = comp.build_companion(char, rho)
    assert np.all(counts == p.m)
    s = taus / rho[:, None]
    svals, bmap = comp.boundary_map_conditioning(s, rows)
    want, want_map, size = _lapack_conditioning(s, rows)
    assert svals.shape == want.shape and np.all(svals[:, :-1] >= svals[:, 1:])
    assert np.abs(svals - want).max() <= SV_C * EPS, np.abs(svals - want).max() / EPS
    assert np.all(np.abs(bmap - want_map) <= MAP_C * EPS * size)
    if case == "ls_near_failure":   # the measure reads the failure set's approach
        assert svals[0, -1] < comp._LS_TOL < svals[1, -1]


@pytest.mark.parametrize("case", CASES)
def test_coefficients_against_a_lapack_solve(case):
    p, lam, xi = _case(case)
    char, rows, rho = comp._frequency_rows(p, lam, xi)
    taus = comp.build_companion(char, rho)[0]
    svals, bmap = comp.boundary_map_conditioning(taus / rho[:, None], rows)
    keep = svals[:, -1] > comp._LS_TOL   # the rows kernel_batch inverts
    bmap = bmap[keep]
    got = comp._boundary_inverse(bmap)
    want = np.linalg.solve(bmap, np.eye(p.m, dtype=complex))
    bound = INV_C * EPS * np.linalg.cond(bmap) * np.linalg.norm(want, 2, axis=(1, 2))
    assert np.all(np.abs(got - want).max(axis=(1, 2)) <= bound)


def test_m3_keeps_the_lapack_route(monkeypatch):
    """Degree > 2 and m >= 3 take the companion eigenvalues, QR, SVD and
    solve: the closed forms are not reached."""
    from test_newton_route import polyharmonic_dirichlet

    calls = []
    for name in ("eigvals", "qr", "svd", "solve"):
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=getattr(np.linalg, name),
                            _n=name, **k: calls.append(_n) or _f(*a, **k))
    monkeypatch.setattr(comp, "_quadratic_roots", None)
    poi.kernel_batch(polyharmonic_dirichlet(), 4.0 + 1.0j, np.array([[0.0], [2.0]]))
    assert sorted(calls) == ["eigvals", "qr", "solve", "svd"]


def test_m_at_most_2_makes_no_lapack_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call on an m <= 2 batch")

    for name in ("eigvals", "qr", "svd", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for name in ("dirichlet", "clamped", "sheared"):
        p = PROBLEMS[name]()
        poi.kernel_batch(p, np.array([4.0 + 1.0j, 50.0]), np.array([[0.0], [2.0], [-7.0]]))


def _one_op_problem(m, bops):
    base = hp.dirichlet_laplacian() if m == 1 else hp.clamped_bilaplacian()
    return hp.ModelProblem(n=2, m=m, interior_coeffs=base.interior_coeffs,
                           boundary_ops=bops, phi_prime=base.phi_prime, phi=base.phi)


@pytest.mark.parametrize("p, lam, xi, error, match", [
    # tau^2 = 4 at xi' = 0: both roots on the real axis
    (hp.dirichlet_laplacian(), -4.0, 0.0, comp.EllipticityMarginError, "real axis"),
    # lambda = -xi'^4: sigma = 0 is a root, c = 0 in the quadratic
    (hp.clamped_bilaplacian(), -1.0, 1.0, comp.EllipticityMarginError, "real axis"),
    (hp.clamped_bilaplacian(), -16.0, 2.0, comp.EllipticityMarginError, "real axis"),
    # lambda on the LS failure set of B = D_n - 2i D_1
    (_ls_violating_laplacian(), 3.0, 1.0, comp.LopatinskiiError, "Lopatinskii"),
    # B = D_1, whose boundary row vanishes at xi' = 0
    (_one_op_problem(1, [hp.BoundaryOperator(1, {(1, 0): 1.0})]), 4.0, 0.0,
     comp.LopatinskiiError, "Lopatinskii"),
    (_one_op_problem(2, [hp.BoundaryOperator(0, {(0, 0): 1.0}),
                         hp.BoundaryOperator(1, {(1, 0): 1.0})]), 4.0, 0.0,
     comp.LopatinskiiError, "Lopatinskii"),
])
def test_degenerate_rows_raise_as_on_the_lapack_route(p, lam, xi, error, match):
    with pytest.raises(error, match=match):
        poi.kernel_batch(p, lam, np.array([[xi]]))


@pytest.mark.parametrize("name", ["dirichlet", "clamped", "sheared"])
def test_a_nan_fails_the_checks(name):
    """A nan lambda gives nan roots, which no root-count check passes; a nan
    boundary coefficient gives a nan LS measure, which fails the LS check
    instead of passing a comparison with the threshold."""
    p = PROBLEMS[name]()
    with np.errstate(invalid="ignore"), pytest.raises(comp.EllipticityMarginError):
        poi.kernel_batch(p, complex(np.nan, 1.0), np.array([[1.0]]))
    bops = [hp.BoundaryOperator(b.order, {k: np.nan for k in b.coeffs})
            for b in p.boundary_ops]
    nan_bc = hp.ModelProblem(n=p.n, m=p.m, interior_coeffs=p.interior_coeffs,
                             boundary_ops=bops, phi_prime=p.phi_prime, phi=p.phi)
    with np.errstate(invalid="ignore"), pytest.raises(comp.LopatinskiiError):
        poi.kernel_batch(nan_bc, 4.0 + 1.0j, np.array([[1.0]]))


def test_double_root_at_zero_gives_zeros_not_nan():
    """q = 0 only where b = c = 0: both roots are 0."""
    roots = comp._quadratic_roots(np.array([2.0 + 0j]), np.zeros(1, complex),
                                  np.zeros(1, complex))
    assert np.array_equal(roots, np.zeros((1, 2), dtype=complex))
