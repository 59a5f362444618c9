import cmath
import math

import numpy as np
import pytest

from halfpoisson import companion as comp
from halfpoisson import model as mdl
from halfpoisson import poisson as poi
from kernel_table import kernel_table

RNG = np.random.default_rng(12345)


def _random_sector_lambda(phi, rng=RNG):
    ray = rng.uniform(-phi, phi)
    mod = 10.0 ** rng.uniform(0, 4)
    return mod * cmath.exp(1j * ray)


def _oblique_laplacian_n3(a=0.5):
    """-Delta at n = 3 with B = D_n + a D_1."""
    base = mdl.dirichlet_laplacian(3)
    return mdl.ModelProblem(
        n=3, m=1, interior_coeffs=base.interior_coeffs,
        boundary_ops=[mdl.BoundaryOperator(1, {(0, 0, 1): 1.0, (1, 0, 0): a})],
        phi_prime=base.phi_prime, phi=base.phi, name="oblique_laplacian")


def _duplicate_trace_bilaplacian():
    """Bi-Laplacian with the trace condition imposed twice: LS fails everywhere."""
    base = mdl.clamped_bilaplacian()
    trace = base.boundary_ops[0]
    return mdl.ModelProblem(
        n=2, m=2, interior_coeffs=base.interior_coeffs, boundary_ops=[trace, trace],
        phi_prime=base.phi_prime, phi=base.phi)


def _stages(p, xi, lam):
    """The three per-row inputs, the stable roots and the LS data at points."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    char, rows, rho = comp._frequency_rows(p, lam, xi)
    taus = comp.build_companion(char, rho)[0]
    svals = comp.boundary_map_conditioning(taus / rho[:, None], rows)[0]
    return rho, rows, taus, svals


def rescaled_companion(p, xi, lam):
    """``(A0, b, rho)``: the companion matrix of ``lambda - A(xi', rho s)``
    in s, written from the definition, and the rescaled frequency."""
    order = p.order
    rho = math.sqrt(1 + xi @ xi + abs(lam) ** (1 / p.m))
    b = xi / rho
    c = p.interior_symbol.table(b)
    A0 = np.zeros((order, order), dtype=complex)
    A0[np.arange(order - 1), np.arange(1, order)] = 1.0
    A0[-1, :] = -c[:order] / c[order]
    A0[-1, 0] += lam / rho ** order / c[order]
    return A0, b, rho


def ordered_schur(p, xi, lam):
    """``(S, T11, b, rho)``: the Schur vectors of the stable eigenvalues of
    the rescaled companion matrix and their triangular block."""
    import scipy.linalg

    A0, b, rho = rescaled_companion(p, xi, lam)
    T, Q, sdim = scipy.linalg.schur(A0, output="complex", sort=lambda z: z.imag > 0)
    assert sdim == p.m
    return Q[:, :p.m], T[:p.m, :p.m], b, rho


def _schur_kernel(p, xi, lam, xs):
    """Reference kernels of every boundary index by the ordered Schur form of
    the rescaled companion matrix: ``pr_1 S expm(i rho T11 x) (Lambda S)^-1``
    with the per-datum scaling rho^-m_j, shape (m, len(xs))."""
    import scipy.linalg

    S, T11, b, rho = ordered_schur(p, xi, lam)
    C = np.linalg.inv(p.boundary_table(b) @ S)
    scal = np.array([rho ** -bop.order for bop in p.boundary_ops])
    return np.array([(S @ scipy.linalg.expm(1j * rho * x * T11) @ C)[0] * scal
                     for x in xs]).T


class TestFrequencyPoint:
    def test_rejects_origin(self):
        with pytest.raises(ValueError, match="degenerate"):
            comp._frequency_rows(mdl.dirichlet_laplacian(), np.zeros(1, dtype=complex),
                                 np.zeros((1, 1)))
        with pytest.raises(ValueError, match="degenerate"):
            poi.kernel_batch(mdl.clamped_bilaplacian(), 0.0, np.zeros((1, 1)))

    def test_rescaling_normalization(self):
        p = _oblique_laplacian_n3(0.5)
        xi = np.array([[3.0, 1.0]])
        char, rows, rho = comp._frequency_rows(p, np.array([16.0 + 0j]), xi)
        # rho^2 = 1 + |xi'|^2 + |lambda|^{1/m}; the rows are B at b = xi'/rho
        assert rho[0] == pytest.approx(math.sqrt(1 + 10 + 16))
        assert np.allclose(rows[0, 0], [0.5 * 3.0 / rho[0], 1.0])
        # lambda - A(xi', tau) = lambda + |xi'|^2 + tau^2
        assert np.allclose(char[0], [16.0 + 10.0, 0.0, 1.0])

    def test_bilaplacian_scaling(self):
        p = mdl.clamped_bilaplacian()
        _, _, rho = comp._frequency_rows(p, np.array([16.0 + 0j]), np.zeros((1, 1)))
        assert rho[0] == pytest.approx(math.sqrt(1 + 4))


class TestStableRoots:
    """The stable roots come from ``companion.build_companion``, which
    ``kernel_batch`` calls once per batch."""

    def test_dirichlet_laplacian_root(self):
        p = mdl.dirichlet_laplacian()
        taus = poi.kernel_batch(p, 4.0 + 0j, np.zeros((1, 1))).taus[0]
        # lambda + tau^2 = 0 with Im tau > 0: tau = 2i
        assert np.allclose(taus, [2.0j])

    def test_bilaplacian_roots_frozen(self):
        # [DERIVED] tau^4 = -16, stable quartet members at 2 e^{i pi/4}, 2 e^{3 i pi/4}
        p = mdl.clamped_bilaplacian()
        taus = sorted(poi.kernel_batch(p, 16.0 + 0j, np.zeros((1, 1))).taus[0],
                      key=lambda z: z.real)
        assert np.allclose(taus[0], -1.414213562373095 + 1.4142135623730951j)
        assert np.allclose(taus[1], 1.4142135623730951 + 1.414213562373095j)

    def test_root_count_matches_m(self):
        for factory in mdl.BUNDLED.values():
            p = factory()
            for _ in range(10):
                lam = _random_sector_lambda(p.phi)
                xi = RNG.uniform(-5, 5, size=(1, p.n - 1))
                taus = poi.kernel_batch(p, lam, xi).taus
                assert taus.shape == (1, p.m) and np.all(taus.imag > 0)
                assert np.all(np.diff(taus.imag, axis=1) >= 0)

    def test_root_on_the_real_axis_is_a_margin_error(self):
        # lambda = -4 at xi' = 0: tau^2 = 4 puts both roots on the real axis
        p = mdl.dirichlet_laplacian()
        with pytest.raises(comp.EllipticityMarginError, match="real axis"):
            poi.kernel_batch(p, -4.0 + 0j, np.zeros((1, 1)))


class TestCompanionSystem:
    @pytest.mark.parametrize("name", sorted(mdl.BUNDLED))
    def test_delta_identity(self, name):
        """Boundary rows applied to the kernels give the identity:
        tr B_k Poi_j = delta_kj."""
        p = mdl.BUNDLED[name]()
        for _ in range(20):
            lam = _random_sector_lambda(p.phi)
            xi = RNG.uniform(-5, 5, size=(1, p.n - 1))
            batch = poi.kernel_batch(p, lam, xi)
            traces = np.stack([kernel_table(batch, np.zeros(1), d)[:, 0, 0]
                               for d in range(p.order)])       # (d, j)
            tr = p.boundary_table(xi)[0] @ traces
            assert np.allclose(tr, np.eye(p.m), atol=1e-10)

    @pytest.mark.parametrize("name", sorted(mdl.BUNDLED))
    def test_stable_pair_is_invariant(self, name):
        """A0 N = N J with N the Newton vectors of the rescaled stable roots s
        and J upper bidiagonal (diagonal s, superdiagonal 1): N spans the
        stable invariant subspace of the rescaled companion matrix A0."""
        p = mdl.BUNDLED[name]()
        xi, lam = np.array([0.7]), 9.0 + 3.0j
        rho, _, taus, _ = _stages(p, xi, lam)
        s = taus[0] / rho[0]
        A0 = rescaled_companion(p, xi, lam)[0]
        N = comp._newton_vectors(s[None], p.order)[0]
        J = np.diag(s) + np.diag(np.ones(p.m - 1), 1)
        assert N.shape == (p.order, p.m)
        assert np.allclose(A0 @ N, N @ J, atol=1e-12)
        assert np.all(s.imag > 0)

    def test_lopatinskii_error_on_duplicate_rows(self):
        p = _duplicate_trace_bilaplacian()
        with pytest.raises(comp.LopatinskiiError, match="xi'=\\[1.\\]"):
            poi.kernel_batch(p, 4.0 + 0j, np.array([[1.0]]))


class TestPropagate:
    def test_dirichlet_closed_form_frozen(self):
        # [DERIVED] kernel e^{-kappa x} at xi'=1.5, lambda=100 e^{i pi/3}, x=0.7
        p = mdl.dirichlet_laplacian()
        lam = 100 * cmath.exp(1j * math.pi / 3)
        batch = poi.kernel_batch(p, lam, np.array([[1.5]]))
        got = kernel_table(batch, np.array([0.7]))[0, 0, 0]
        assert got == pytest.approx(-0.0020656776311573245 + 0.0006833352477115405j,
                                    rel=1e-10)

    def test_neumann_closed_form_frozen(self):
        # [DERIVED] kernel -(i/kappa) e^{-kappa x} at the same point
        p = mdl.neumann_laplacian()
        lam = 100 * cmath.exp(1j * math.pi / 3)
        batch = poi.kernel_batch(p, lam, np.array([[1.5]]))
        got = kernel_table(batch, np.array([0.7]))[0, 0, 0]
        assert got == pytest.approx(0.00016014749961047742 + 0.00014545499183182616j,
                                    rel=1e-10)

    def test_derivative_consistency(self):
        """The first-order kernel is D_n of the zeroth-order one."""
        p = mdl.clamped_bilaplacian()
        batch = poi.kernel_batch(p, 5.0 + 1.0j, np.array([[0.4]]))
        x, h = 0.3, 1e-6
        first_deriv = kernel_table(batch, np.array([x]), 1)[:, 0, 0]
        fd = (-1j) * (kernel_table(batch, np.array([x + h]))[:, 0, 0]
                      - kernel_table(batch, np.array([x - h]))[:, 0, 0]) / (2 * h)
        assert np.allclose(first_deriv, fd, rtol=1e-6, atol=1e-9)

    def test_negative_x_rejected(self):
        batch = poi.kernel_batch(mdl.dirichlet_laplacian(), 4.0 + 0j, np.zeros((1, 1)))
        with pytest.raises(ValueError):
            batch.eval(np.array([-0.1]), np.ones((1, 1)))
        with pytest.raises(ValueError):
            comp.propagate(batch.taus, np.array([0.2, -0.1]))

    @pytest.mark.parametrize("name", sorted(mdl.BUNDLED) + ["oblique_laplacian_n3"])
    def test_schur_vs_root_basis(self, name):
        """Dual-route cross-check: an ordered-Schur reference, built here on
        SciPy, against the Newton basis of the roots of ``kernel_batch``.
        The oblique case adds a tangential boundary factor and two
        tangential axes."""
        p = mdl.BUNDLED[name]() if name in mdl.BUNDLED else _oblique_laplacian_n3()
        xs = np.array([0.0, 0.2, 1.1])
        for _ in range(15):
            lam = _random_sector_lambda(p.phi)
            xi = RNG.uniform(-4, 4, size=p.n - 1)
            batch = poi.kernel_batch(p, lam, xi[None, :])
            got = kernel_table(batch, xs, 0)[:, 0, :]   # (j, x)
            ref = _schur_kernel(p, xi, lam, xs)
            for j in range(p.m):
                scale = max(np.abs(ref[j]).max(), 1e-30)
                assert np.abs(got[j] - ref[j]).max() / scale < 1e-12

    def test_decay_along_normal(self):
        p = mdl.dirichlet_laplacian()
        batch = poi.kernel_batch(p, 50.0 + 10.0j, np.array([[2.0]]))
        v0, v1 = np.abs(kernel_table(batch, np.array([0.0, 1.0]))[0, 0])
        assert v1 < v0 * 1e-2


class TestConditioning:
    def test_conditioning_never_raises(self):
        *_, svals = _stages(_duplicate_trace_bilaplacian(), [1.0], 4.0)
        assert svals[0, -1] < 1e-8

    def test_well_posed_case_well_conditioned(self):
        *_, svals = _stages(mdl.dirichlet_laplacian(), [1.0], 4.0)
        assert svals[0, -1] > 1e-2
        assert svals[0, 0] / svals[0, -1] < 1e3

    def test_m1_violation_detected(self):
        # -Delta with B = D_n - 2i D_1 violates LS on lambda = 3 xi_1^2:
        # the stable root tau = 2i at xi' = 1, lambda = 3 makes B(xi', tau)
        # = tau - 2i vanish.  A 1 x 1 map normalised by its own norm would
        # score 1 here; normalised by its boundary row it reads ~2e-10.
        base = mdl.dirichlet_laplacian()
        p = mdl.ModelProblem(
            n=2, m=1, interior_coeffs=base.interior_coeffs,
            boundary_ops=[mdl.BoundaryOperator(1, {(0, 1): 1.0, (1, 0): -2j})],
            phi_prime=base.phi_prime, phi=base.phi)
        lam = 3.0 * (1 + 1e-9)
        *_, svals = _stages(p, [1.0], lam)
        assert svals[0, -1] < 1e-8
        with pytest.raises(comp.LopatinskiiError):
            poi.kernel_batch(p, lam, np.array([[1.0]]))
