"""The one kernel route, in the Newton basis of the stable roots, against
independent references.

* The kernels of the bundled problems, the oblique Laplacian and an m = 3
  polyharmonic problem against mpmath: 50-digit roots of the characteristic
  polynomial taken exactly from the problem data, and the root-basis solve
  in that precision.  For the clamped problem at lambda = 4 and |xi'| up to
  3e4 the stable roots agree to 2e-9 relative; there the exponential root
  basis loses up to 8 digits, and the Newton basis none.
* The general (m >= 3) evaluation path on m = 2 rows against divided
  differences taken in mpmath.
* Stable roots that tie exactly against the confluent divided differences.
* The batched LS measure against an ordered Schur reference on SciPy.
* The boundary reproduction tr B_k Poi_j = delta_kj for |xi'| up to 1e5.
"""

import math
from itertools import product

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import halfpoisson as hp
from halfpoisson import companion as comp
from halfpoisson import model as mdl
from halfpoisson import poisson as poi
from kernel_table import kernel_table
from test_batching import _ls_violating_laplacian
from test_companion import ordered_schur
from test_oblique import oblique_laplacian

PROBLEMS = {
    "dirichlet": hp.dirichlet_laplacian,
    "neumann": hp.neumann_laplacian,
    "clamped": hp.clamped_bilaplacian,
    "oblique": lambda: oblique_laplacian(2, 0.5),
    "oblique_n3": lambda: oblique_laplacian(3, -1.5),
}


def polyharmonic_dirichlet(n: int = 2, m: int = 3) -> hp.ModelProblem:
    """A(xi) = -|xi|^{2m} with B_j = D_n^j, j = 0..m-1."""
    coeffs = {}
    for ks in product(range(m + 1), repeat=n):
        if sum(ks) == m:
            multinomial = math.factorial(m)
            for k in ks:
                multinomial //= math.factorial(k)
            coeffs[tuple(2 * k for k in ks)] = -float(multinomial)
    base = hp.clamped_bilaplacian(n)
    return hp.ModelProblem(
        n=n, m=m, interior_coeffs=coeffs,
        boundary_ops=[hp.BoundaryOperator(j, {(0,) * (n - 1) + (j,): 1.0})
                      for j in range(m)],
        phi_prime=base.phi_prime, phi=base.phi, name="polyharmonic_dirichlet")


def _mp_poly(coeffs, xi, order):
    """tau-coefficients, increasing, of sum_alpha a_alpha xi'^alpha' tau^alpha_n,
    taken exactly from the double inputs."""
    c = [mp.mpc(0)] * (order + 1)
    for alpha, a in coeffs.items():
        term = mp.mpc(complex(a).real, complex(a).imag)
        for xv, e in zip(xi, alpha[:-1]):
            term *= mp.mpf(float(xv)) ** e
        c[alpha[-1]] += term
    return c


def _mp_stable_roots(p, lam, xi):
    char = [-a for a in _mp_poly(p.interior_coeffs, xi, p.order)]
    char[0] += mp.mpc(complex(lam).real, complex(lam).imag)
    roots = mp.polyroots(char[::-1], maxsteps=400, extraprec=400)
    stable = [r for r in roots if r.imag > 0]
    assert len(stable) == p.m
    return stable


def mp_kernels(p, lam, xi, x):
    """D_n^d of every kernel of Poi_j(lambda) at xi' for d = 0..2, shape
    (3, m, len(x)), by the root basis in 50 digits."""
    with mp.workdps(50):
        taus = _mp_stable_roots(p, lam, xi)
        L = mp.matrix(p.m, p.m)
        for j, bop in enumerate(p.boundary_ops):
            b = _mp_poly(bop.coeffs, xi, p.order - 1)
            for k, tau in enumerate(taus):
                L[j, k] = sum(bl * tau ** l for l, bl in enumerate(b))
        C = L ** -1
        waves = [[mp.exp(1j * tau * mp.mpf(float(xv))) for xv in x] for tau in taus]
        return np.array([[[complex(sum(C[k, j] * tau ** d * waves[k][i]
                                       for k, tau in enumerate(taus)))
                           for i in range(len(x))] for j in range(p.m)]
                         for d in range(3)])


def _worst_kernel_error(p, lam, xi, x):
    """Largest error of D^d Poi_j, d = 0..2, relative to its max over x."""
    batch = poi.kernel_batch(p, lam, np.array([xi], dtype=float))
    worst = 0.0
    for d, want in enumerate(mp_kernels(p, lam, xi, x)):
        got = kernel_table(batch, x, d)[:, 0]
        for j in range(p.m):
            worst = max(worst, np.abs(got[j] - want[j]).max() / np.abs(want[j]).max())
    return worst


@pytest.mark.parametrize("xi", [1e2, 1e3, 1.09e4, 3e4])
def test_clamped_kernel_where_the_roots_merge(xi):
    """Stable root gap 2 / xi'^2 relative at lambda = 4; x xi' = 0.01..3."""
    x = np.array([0.01, 0.1, 1.0, 3.0]) / xi
    assert _worst_kernel_error(hp.clamped_bilaplacian(), 4.0, [xi], x) <= 1e-13


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_kernel_against_mpmath(name):
    p = PROBLEMS[name]()
    x = np.array([0.0, 0.01, 0.3, 2.0])
    for lam in (4.0 + 2.0j, 50.0 * np.exp(0.6j), 1e4 * np.exp(-2.0j)):
        for modulus in (0.3, 7.0, 300.0):
            xi = [modulus, -0.5 * modulus][: p.n - 1]
            assert _worst_kernel_error(p, lam, xi, x) <= 1e-13


def test_polyharmonic_m3_kernel_against_mpmath():
    """The m >= 3 path (scaling and squaring of the divided-difference
    matrix) at merging roots too.  Measured worst case 6.1e-15."""
    p = polyharmonic_dirichlet()
    for lam in (4.0 + 0j, 50.0 * np.exp(0.6j), 1e4 * np.exp(-1.5j)):
        for xi in (0.0, 7.0, 300.0, 3e4):
            x = np.array([0.0, 0.01, 0.1, 1.0, 3.0]) / max(xi, 1.0)
            assert _worst_kernel_error(p, lam, [xi], x) <= 1e-10


def _mp_divided_differences(taus, x, d):
    """D^d [tau_1 .. tau_k] e^{i tau x}, k = 1..m, by the recursive formula
    in 50 digits."""
    with mp.workdps(50):
        pts = [mp.mpc(t.real, t.imag) for t in taus]
        f = [p ** d * mp.exp(1j * p * mp.mpf(float(x))) for p in pts]
        out, table = [f[0]], f
        for k in range(1, len(pts)):
            table = [(table[i + 1] - table[i]) / (pts[i + k] - pts[i])
                     for i in range(len(table) - 1)]
            out.append(table[0])
        return np.array([complex(v) for v in out])


@pytest.mark.parametrize("xi", [0.3, 7.0, 1e3, 3e4])
def test_general_path_on_m2_rows_matches_the_closed_form(xi):
    taus = poi.kernel_batch(hp.clamped_bilaplacian(), 4.0 + 1.0j, np.array([[xi]])).taus
    x = np.array([0.0, 0.01, 0.1, 1.0, 3.0, 30.0]) / max(xi, 1.0)
    for d in range(3):
        want = np.array([_mp_divided_differences(taus[0], xv, d) for xv in x]).T
        for A, F in (comp._propagate_expm(taus, x, d), comp.propagate(taus, x, d)):
            got = np.einsum("qki,qix->qkx", A, F)[0]
            for k in range(2):
                assert np.abs(got[k] - want[k]).max() <= 1e-13 * np.abs(want[k]).max()


def test_exact_tie_of_stable_roots_takes_the_confluent_limit():
    """Rows whose stable roots tie exactly, f(t) = t^d e^{i t x}: on
    [tau, tau] the second basis function is [tau, tau] f = f'(tau), and on
    [tau, tau, tau_3] (the scaling-and-squaring path) the third is
    ([tau, tau_3] f - f'(tau)) / (tau_3 - tau)."""
    tau, tau3 = 2.0 + 3.0j, -1.0 + 4.0j
    x = np.array([0.0, 0.1, 1.0, 5.0])
    for d in range(3):
        f_tau, f_tau3 = tau ** d * np.exp(1j * tau * x), tau3 ** d * np.exp(1j * tau3 * x)
        df = (d * tau ** (d - 1) + 1j * x * tau ** d) * np.exp(1j * tau * x)
        want = [f_tau, df, ((f_tau3 - f_tau) / (tau3 - tau) - df) / (tau3 - tau)]
        for taus in (np.array([[tau, tau]]), np.array([[tau, tau, tau3]])):
            A, F = comp.propagate(taus, x, d)
            assert np.all(np.isfinite(A)) and np.all(np.isfinite(F))
            got = np.einsum("qki,qix->qkx", A, F)[0]
            for k in range(1, taus.shape[1]):
                assert np.all(np.abs(got[k] - want[k]) <= 1e-12 * np.abs(want[k])), (d, k)


def _schur_ls_measure(p, xi, lam):
    """Singular values of the row-normalised LS map on the Schur vectors of
    the rescaled companion matrix's stable eigenvalues."""
    S, _, b, _ = ordered_schur(p, xi, lam)
    rows = p.boundary_table(b)
    return np.linalg.svd(rows @ S / np.linalg.norm(rows, axis=1)[:, None],
                         compute_uv=False)


@pytest.mark.parametrize("name", ["dirichlet", "neumann", "clamped", "oblique_n3",
                                  "ls_violating", "polyharmonic"])
def test_ls_measure_against_schur(name, monkeypatch):
    """On the check-ls sample, the batched measure equals the Schur measure;
    both read ~2e-10 at the LS violation."""
    p = {"ls_violating": _ls_violating_laplacian,
         "polyharmonic": polyharmonic_dirichlet}.get(name, PROBLEMS.get(name))()
    calls = []
    conditioning = comp.boundary_map_conditioning

    def recorded(s, rows):
        calls.append(len(s))
        return conditioning(s, rows)

    monkeypatch.setattr(comp, "boundary_map_conditioning", recorded)
    sample = mdl.SectorSample.default(p.phi, n_moduli=8, n_rays=5)
    report = mdl.check_lopatinskii_shapiro(p, sample)
    assert len(calls) == 1                     # one batch over the whole sample
    dirs = mdl.unit_directions(p.n - 1, 8)
    xi = np.array([t * np.asarray(d) for d in dirs for t in mdl._LS_MODULI])
    char, rows, rho = comp._frequency_rows(p, sample.points(), xi)
    taus = comp.build_companion(char, rho)[0]
    got = conditioning(taus / rho[:, None], rows)[0]
    pairs = [(x, v) for v in sample.points() for x in xi]      # lambda-major
    want = np.array([_schur_ls_measure(p, x, v) for x, v in pairs])
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    assert report.min_singular_value == got[:, -1].min()
    x, v = pairs[int(np.argmin(got[:, -1]))]
    assert report.worst_point == (tuple(x), complex(v))
    if name == "ls_violating":
        lam = 3.0 * (1 + 1e-9)
        char, rows, rho = comp._frequency_rows(p, np.array([lam]), np.array([[1.0]]))
        got = conditioning(comp.build_companion(char, rho)[0] / rho[:, None], rows)[0]
        want = _schur_ls_measure(p, np.array([1.0]), lam)
        # near zero the value carries an absolute error of rounding size
        assert got[0, -1] < 1e-9 and abs(got[0, -1] - want[-1]) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(PROBLEMS) + ["polyharmonic"]),
       log_xi=st.floats(-2.0, 5.0), sign=st.sampled_from([-1.0, 1.0]),
       log_mod=st.floats(0.0, 6.0), arg=st.floats(-0.9, 0.9))
def test_boundary_reproduction(name, log_xi, sign, log_mod, arg):
    """tr B_k Poi_j = delta_kj to 1e-12 in units of its homogeneity
    rho^{m_k - m_j}, for |xi'| up to 1e5 across the sector."""
    p = polyharmonic_dirichlet() if name == "polyharmonic" else PROBLEMS[name]()
    xi = np.array([[sign * 10.0 ** log_xi, 0.5 * 10.0 ** log_xi][: p.n - 1]])
    lam = 10.0 ** log_mod * np.exp(1j * arg * p.phi)
    batch = poi.kernel_batch(p, lam, xi)
    traces = np.stack([kernel_table(batch, np.zeros(1), d)[:, 0, 0] for d in range(p.order)])
    tr = p.boundary_table(xi)[0] @ traces                       # (k, j)
    rho = math.sqrt(1 + float((xi ** 2).sum()) + abs(lam) ** (1 / p.m))
    orders = np.array([bop.order for bop in p.boundary_ops])
    units = rho ** (orders[:, None] - orders[None, :])
    assert np.all(np.abs(tr - np.eye(p.m)) <= 1e-12 * units)
