"""The one kernel route, in the Newton basis of the stable roots, against
independent references.

* The kernels of the bundled problems, the oblique Laplacian, the sheared
  Laplacian (odd in tau, so off xi_1 = 0 its rows take the full companion)
  and an m = 3 polyharmonic problem against mpmath: 50-digit roots of the characteristic
  polynomial taken exactly from the problem data, and the root-basis solve
  in that precision.  For the clamped problem at lambda = 4 and |xi'| up to
  3e4 the stable roots agree to 2e-9 relative; there the exponential root
  basis loses up to 8 digits, and the Newton basis none.  The stable
  roots' gap there against mpmath, to the rounding of the characteristic
  row.
* The general (m >= 3) evaluation path on m = 2 rows against divided
  differences taken in mpmath.
* Stable roots that tie exactly against the confluent divided differences.
* A row's roots and coefficients do not depend on the rows batched with it,
  whichever companion each row takes.
* The batched LS measure against an ordered Schur reference on SciPy.
* The boundary reproduction tr B_k Poi_j = delta_kj for |xi'| up to 1e5.
* The factored exponential of uniform grids: the kernels at the
  semigroup contour's nodes against mpmath, lengths that leave a partial
  block, the bits of the per-point route on every other grid, rows that do
  not depend on their batch, and the number of exponentials taken.
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
from halfpoisson import resolvent as rs
from halfpoisson.grids import HalfLineGrid, UniformHalfGrid
from kernel_table import kernel_table
from test_batching import _ls_violating_laplacian
from test_companion import ordered_schur
from test_oblique import oblique_laplacian


def sheared_dirichlet_laplacian() -> hp.ModelProblem:
    """A(xi) = -(xi_1^2 + xi_1 xi_n + xi_n^2) with the trace condition: the
    characteristic polynomial has the odd term xi_1 tau, so its rows are
    even in tau at xi_1 = 0 only."""
    base = hp.dirichlet_laplacian()
    return hp.ModelProblem(
        n=2, m=1, interior_coeffs={(2, 0): -1.0, (1, 1): -1.0, (0, 2): -1.0},
        boundary_ops=base.boundary_ops, phi_prime=base.phi_prime, phi=base.phi,
        name="sheared_dirichlet_laplacian")


PROBLEMS = {
    "dirichlet": hp.dirichlet_laplacian,
    "neumann": hp.neumann_laplacian,
    "clamped": hp.clamped_bilaplacian,
    "oblique": lambda: oblique_laplacian(2, 0.5),
    "oblique_n3": lambda: oblique_laplacian(3, -1.5),
    "sheared": sheared_dirichlet_laplacian,
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


def mp_kernels(p, lam, xi, x, taus=None):
    """D_n^d of every kernel of Poi_j(lambda) at xi' for d = 0..2, shape
    (3, m, len(x)), by the root basis in 50 digits, and in the same shape
    the magnitudes of its terms, sum_k |C_kj tau_k^d e^{i tau_k x}|.
    ``taus`` are the 50-digit stable roots, found here if not given."""
    with mp.workdps(50):
        taus = taus or _mp_stable_roots(p, lam, xi)
        L = mp.matrix(p.m, p.m)
        for j, bop in enumerate(p.boundary_ops):
            b = _mp_poly(bop.coeffs, xi, p.order - 1)
            for k, tau in enumerate(taus):
                L[j, k] = sum(bl * tau ** l for l, bl in enumerate(b))
        C = L ** -1
        waves = [[mp.exp(1j * tau * mp.mpf(float(xv))) for xv in x] for tau in taus]
        value = np.empty((3, p.m, len(x)), dtype=complex)
        size = np.empty((3, p.m, len(x)))
        for d, j, i in product(range(3), range(p.m), range(len(x))):
            terms = [C[k, j] * tau ** d * waves[k][i] for k, tau in enumerate(taus)]
            value[d, j, i] = complex(sum(terms))
            size[d, j, i] = float(sum(abs(term) for term in terms))
        return value, size


def _worst_kernel_error(p, lam, xi, x):
    """Largest error of D^d Poi_j, d = 0..2, relative to its max over x."""
    batch = poi.kernel_batch(p, lam, np.array([xi], dtype=float))
    worst = 0.0
    for d, want in enumerate(mp_kernels(p, lam, xi, x)[0]):
        got = kernel_table(batch, x, d)[:, 0]
        for j in range(p.m):
            worst = max(worst, np.abs(got[j] - want[j]).max() / np.abs(want[j]).max())
    return worst


@pytest.mark.parametrize("xi", [1e2, 1e3, 1.09e4, 3e4])
def test_clamped_kernel_where_the_roots_merge(xi):
    """Stable root gap 2 / xi'^2 relative at lambda = 4; x xi' = 0.01..3."""
    x = np.array([0.01, 0.1, 1.0, 3.0]) / xi
    assert _worst_kernel_error(hp.clamped_bilaplacian(), 4.0, [xi], x) <= 1e-13


@pytest.mark.parametrize("xi", [1.0, 100.0])
def test_clamped_root_gap_against_mpmath(xi):
    """The stable roots' gap at lambda = 4 e^{0.5i}, relative, against
    mpmath.  The characteristic row's ``c_0 = lambda + xi'^4`` is rounded
    before any root is taken, which moves the gap by up to
    ``eps xi'^4 / (4 |lambda|)`` relative (1.4e-9 at xi' = 100; 3.3e-10
    measured); the quadratic formula in sigma = tau^2 adds a few eps.  The
    eigenvalues of the companion in sigma read 1.0e-8 at xi' = 100."""
    p, lam = hp.clamped_bilaplacian(), 4.0 * np.exp(0.5j)
    taus = poi.kernel_batch(p, lam, np.array([[xi]])).taus[0]
    with mp.workdps(50):
        ref = sorted(_mp_stable_roots(p, lam, [xi]), key=lambda z: z.imag)
        gap = taus[1] - taus[0]
        err = float(abs(mp.mpc(gap.real, gap.imag) - (ref[1] - ref[0])) / abs(ref[1] - ref[0]))
    eps = np.finfo(float).eps
    assert err <= 2 * eps * xi ** 4 / (4 * abs(lam)) + 8 * eps


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


def test_companion_route_is_chosen_per_row():
    """On the sheared Laplacian the rows at xi_1 = 0 (either sign) are even
    in tau and the others are not; in a batch that mixes them every row's
    roots and coefficients are bitwise those of its own one-row batch."""
    p = sheared_dirichlet_laplacian()
    xi = np.array([[0.0], [1.5], [-0.0], [-7.0], [300.0], [0.0]])
    lam = np.array([4.0 + 2.0j, 1e4 * np.exp(-2.0j)])
    char = comp._frequency_rows(p, lam, xi)[0]
    even = ~char[:, 1::2].any(axis=1)
    assert even.any() and not even.all()
    batch = poi.kernel_batch(p, lam, xi)
    for q, (l, x) in enumerate(product(lam, xi)):
        one = poi.kernel_batch(p, l, x[None])
        assert np.array_equal(batch.taus[q], one.taus[0])
        assert np.array_equal(batch.coeff[:, q], one.coeff[:, 0])


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
                                  "sheared", "ls_violating", "polyharmonic"])
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


# ---------------------------------------------------------------------------
# The factored exponential on uniform grids
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps
# |got - exact| <= _UNIFORM_C eps (1 + |tau x|) |exact|; the kernel tests
# measured at most 2.2 (clamped), and 2.6 with one exponential per point
_UNIFORM_C = 8.0
# below this a kernel's root-basis terms are past double's normal range
_UNDERFLOW = 1e-290


def _probe_points(n):
    """Indices of the first offsets, of both sides of some block edges and
    of the last block (possibly partial), for B = isqrt(n) offsets a block."""
    B = math.isqrt(n)
    idx = {0, 1, 2, B - 1, n - 2, n - 1}
    for a in (1, 2, n // B // 2, n // B - 1, n // B):
        idx |= {a * B - 1, a * B, a * B + 1}
    return np.array(sorted(i for i in idx if 0 <= i < n))


@pytest.mark.parametrize("t", [1e-6, 0.15])
@pytest.mark.parametrize("name", ["dirichlet", "neumann", "clamped"])
def test_uniform_grid_kernels_against_mpmath(name, t):
    """D^d Poi_j, d = 0..2, at all 48 contour nodes of semigroup_apply (a
    real row solves only half of them) on the uniform grids of the contour
    commands, which take the factored exponential: within _UNIFORM_C eps
    (1 + |tau x|) of the exact value, in units of its root-basis terms (for
    m = 1 the value itself)."""
    p = PROBLEMS[name]()
    lams = rs._contour(t)[0]
    batch = poi.kernel_batch(p, lams, np.array([[1.0]]))
    tau_max = np.abs(batch.taus).max(axis=1)
    grids = [UniformHalfGrid(X, N).x for X, N in ((30.0, 2048), (12.0, 512))]
    idx = [_probe_points(len(x)) for x in grids]
    got = [np.stack([kernel_table(batch, x, d)[:, :, 0, i] for d in range(3)])
           for x, i in zip(grids, idx)]
    for q, lam in enumerate(lams):
        with mp.workdps(50):
            taus = _mp_stable_roots(p, lam, [1.0])
        for x, i, kern in zip(grids, idx, got):
            # past e^{-700} every term is below 1e-300, and mpmath is not needed
            live = i[batch.taus[q, 0].imag * x[i] < 700.0]
            want, terms = mp_kernels(p, lam, [1.0], x[live], taus)
            bound = _UNIFORM_C * EPS * (1.0 + tau_max[q] * x[live]) * terms
            err = np.abs(kern[:, :, q, :len(live)] - want)
            normal = terms > _UNDERFLOW
            assert np.all(err[normal] <= bound[normal]), (len(x), q)
            assert np.all(np.abs(kern[:, :, q, len(live):]) <= 1e-280)


def _roots(U, m, rng=np.random.default_rng(2024)):
    """U rows of m roots in the upper half-plane, sorted by Im."""
    taus = rng.uniform(-40.0, 40.0, (U, m)) + 1j * rng.uniform(0.01, 2.0, (U, m))
    return taus[np.arange(U)[:, None], np.argsort(taus.imag, axis=1)]


@pytest.mark.parametrize("n", [33, 1000, 1025])
def test_factored_exponential_on_lengths_with_a_partial_block(n):
    """e^{i tau x} on uniform grids whose last block is short: every point
    within _UNIFORM_C eps (1 + |tau x|) of mpmath."""
    x = (30.0 / 2048) * np.arange(n)
    taus = _roots(3, 1)
    for d in range(3):
        A, F = comp.propagate(taus, x, d)
        assert np.array_equal(A[:, 0, 0], taus[:, 0] ** d)
    with mp.workdps(30):
        want = np.array([[complex(mp.exp(1j * mp.mpc(t.real, t.imag) * mp.mpf(float(xv))))
                          for xv in x] for t in taus[:, 0]])
    bound = _UNIFORM_C * EPS * (1.0 + np.abs(taus) * x) * np.abs(want)
    assert np.all(np.abs(F[:, 0] - want) <= bound)


def _off_grids():
    """Grids that take one exponential per point."""
    x = (12.0 / 512) * np.arange(512)
    one_ulp = x.copy()
    one_ulp[300] = np.nextafter(one_ulp[300], np.inf)
    return {"one point": np.zeros(1), "from h": x + x[1], "geometric": HalfLineGrid.for_decay(1.0).x,
            "one ulp off": one_ulp}


@pytest.mark.parametrize("grid", sorted(_off_grids()))
def test_other_grids_keep_one_exponential_per_point(grid):
    """Off the uniform grids from 0, e^{i tau x} is the per-point
    exponential of (i tau) x, bit for bit, for m = 1 and 2."""
    x = _off_grids()[grid]
    for m in (1, 2):
        taus = _roots(4, m)
        F = comp.propagate(taus, x)[1]
        assert np.array_equal(F[:, 0], np.exp(1j * taus[:, :1] * x))


def test_a_row_on_a_uniform_grid_does_not_depend_on_its_batch():
    """Each row of a batch has the bits of that row alone, on the grid
    of the clamped contour and on one with a partial block."""
    p = hp.clamped_bilaplacian()
    taus = poi.kernel_batch(p, rs._contour(0.15)[0], np.array([[1.0]])).taus
    for x in (UniformHalfGrid(30.0, 2048).x, (12.0 / 512) * np.arange(1025)):
        for d in range(3):
            A, F = comp.propagate(taus, x, d)
            for q in (0, 17, len(taus) - 1):
                A1, F1 = comp.propagate(taus[q:q + 1], x, d)
                assert np.array_equal(A1[0], A[q]) and np.array_equal(F1[0], F[q])


def test_uniform_grid_takes_about_two_sqrt_n_exponentials_per_root(monkeypatch):
    """On the clamped contour (48 rows, 2 roots, 2048 points) propagate
    hands the complex exponential isqrt(n) offsets and ceil(n / isqrt(n))
    block factors per root, 8736 entries in all, where one per point would
    be 196608."""
    entries = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def exp(a, *args, **kwargs):
            entries.append(np.size(a))
            return np.exp(a, *args, **kwargs)

    p = hp.clamped_bilaplacian()
    taus = poi.kernel_batch(p, rs._contour(0.15)[0], np.array([[1.0]])).taus
    monkeypatch.setattr(comp, "np", CountingNumpy())
    comp.propagate(taus, UniformHalfGrid(30.0, 2048).x)
    B = math.isqrt(2048)
    assert sum(entries) == taus.size * (B + -(-2048 // B)) == 8736
