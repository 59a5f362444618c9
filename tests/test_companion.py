import cmath
import math

import numpy as np
import pytest

from halfpoisson import companion as comp
from halfpoisson import model as mdl
from halfpoisson import poisson as poi

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


class TestFrequencyPoint:
    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            comp.make_frequency_point(np.zeros(1), 0.0, 1)

    def test_rescaling_normalization(self):
        fp = comp.make_frequency_point(np.array([3.0]), 16.0 + 0j, 1)
        # rho^2 = 1 + |xi'|^2 + |lambda|^{1/m}
        assert fp.rho == pytest.approx(math.sqrt(1 + 9 + 16))
        assert np.allclose(fp.b, 3.0 / fp.rho)
        assert fp.sigma == pytest.approx((16.0 + 0j) / fp.rho ** 2)

    def test_bilaplacian_scaling(self):
        fp = comp.make_frequency_point(np.array([0.0]), 16.0 + 0j, 2)
        assert fp.rho == pytest.approx(math.sqrt(1 + 4))


class TestStableRoots:
    """The stable roots come from ``poisson.kernel_batch``, the one root
    finder of the package."""

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

    def test_root_on_the_real_axis_is_a_margin_error(self):
        # lambda = -4 at xi' = 0: tau^2 = 4 puts both roots on the real axis
        p = mdl.dirichlet_laplacian()
        with pytest.raises(comp.EllipticityMarginError, match="real axis"):
            poi.kernel_batch(p, -4.0 + 0j, np.zeros((1, 1)))


class TestCompanionSystem:
    @pytest.mark.parametrize("name", sorted(mdl.BUNDLED))
    def test_delta_identity(self, name):
        """Boundary rows applied to M = S C give the identity: Lambda M = I."""
        p = mdl.BUNDLED[name]()
        for _ in range(20):
            lam = _random_sector_lambda(p.phi)
            xi = RNG.uniform(-5, 5, size=p.n - 1)
            fp = comp.make_frequency_point(xi, lam, p.m)
            cs = comp.build_companion(p, fp)
            M = cs.stable_basis @ cs.coeffs
            assert np.allclose(p.boundary_table(fp.b) @ M, np.eye(p.m), atol=1e-10)

    @pytest.mark.parametrize("name", sorted(mdl.BUNDLED))
    def test_stable_pair_is_invariant(self, name):
        """A0 S = S T11 with S orthonormal and T11 holding the m roots above
        the real axis: S spans the stable invariant subspace."""
        p = mdl.BUNDLED[name]()
        fp = comp.make_frequency_point(np.array([0.7]), 9.0 + 3.0j, p.m)
        cs = comp.build_companion(p, fp)
        S, T11 = cs.stable_basis, cs.stable_block
        A0 = comp._companion_matrix(p, fp)
        assert S.shape == (p.order, p.m)
        assert np.allclose(A0 @ S, S @ T11, atol=1e-10)
        assert np.allclose(S.conj().T @ S, np.eye(p.m), atol=1e-12)
        assert np.allclose(T11, np.triu(T11))
        assert np.all(np.diag(T11).imag > 0)

    def test_lopatinskii_error_on_duplicate_rows(self):
        base = mdl.clamped_bilaplacian()
        trace = base.boundary_ops[0]
        p = mdl.ModelProblem(
            n=2, m=2, interior_coeffs=base.interior_coeffs,
            boundary_ops=[trace, trace],
            phi_prime=base.phi_prime, phi=base.phi)
        fp = comp.make_frequency_point(np.array([1.0]), 4.0 + 0j, p.m)
        with pytest.raises(comp.LopatinskiiError):
            comp.build_companion(p, fp)


class TestPropagate:
    def test_dirichlet_closed_form_frozen(self):
        # [DERIVED] kernel e^{-kappa x} at xi'=1.5, lambda=100 e^{i pi/3}, x=0.7
        p = mdl.dirichlet_laplacian()
        lam = 100 * cmath.exp(1j * math.pi / 3)
        fp = comp.make_frequency_point(np.array([1.5]), lam, p.m)
        cs = comp.build_companion(p, fp)
        got = comp.propagate(cs, 0.7, 0)[0, 0]
        assert got == pytest.approx(-0.0020656776311573245 + 0.0006833352477115405j,
                                    rel=1e-10)

    def test_neumann_closed_form_frozen(self):
        # [DERIVED] kernel -(i/kappa) e^{-kappa x} at the same point
        p = mdl.neumann_laplacian()
        lam = 100 * cmath.exp(1j * math.pi / 3)
        fp = comp.make_frequency_point(np.array([1.5]), lam, p.m)
        cs = comp.build_companion(p, fp)
        got = comp.propagate(cs, 0.7, 0)[0, 0]
        assert got == pytest.approx(0.00016014749961047742 + 0.00014545499183182616j,
                                    rel=1e-10)

    def test_derivative_consistency(self):
        """Row k of the propagated state is D_n^k of row 0."""
        p = mdl.clamped_bilaplacian()
        fp = comp.make_frequency_point(np.array([0.4]), 5.0 + 1.0j, p.m)
        cs = comp.build_companion(p, fp)
        x = 0.3
        first_deriv = comp.propagate(cs, x, 1)[0]
        h = 1e-6
        fd = (-1j) * (comp.propagate(cs, x + h, 0)[0]
                      - comp.propagate(cs, x - h, 0)[0]) / (2 * h)
        assert np.allclose(first_deriv, fd, rtol=1e-6, atol=1e-9)

    def test_negative_x_rejected(self):
        p = mdl.dirichlet_laplacian()
        fp = comp.make_frequency_point(np.array([0.0]), 4.0 + 0j, p.m)
        cs = comp.build_companion(p, fp)
        with pytest.raises(ValueError):
            comp.propagate(cs, -0.1)

    @pytest.mark.parametrize("name", sorted(mdl.BUNDLED) + ["oblique_laplacian_n3"])
    def test_schur_vs_root_basis(self, name):
        """Dual-route cross-check: ordered-Schur pipeline vs the exponential
        root basis of ``kernel_batch``.  The oblique case adds a tangential
        boundary factor and two tangential axes."""
        p = mdl.BUNDLED[name]() if name in mdl.BUNDLED else _oblique_laplacian_n3()
        xs = np.array([0.0, 0.2, 1.1])
        for _ in range(15):
            lam = _random_sector_lambda(p.phi)
            xi = RNG.uniform(-4, 4, size=p.n - 1)
            batch = poi.kernel_batch(p, lam, xi[None, :])
            assert not batch.fallback.any()
            rb = batch.eval(xs, 0)[:, 0, :]                       # (j, x)
            cs = comp.build_companion(p, comp.make_frequency_point(xi, lam, p.m))
            sch = np.array([comp.propagate(cs, xv, 0)[0, :] for xv in xs]).T
            for j in range(p.m):
                scale = max(np.abs(rb[j]).max(), 1e-30)
                assert np.abs(rb[j] - sch[j]).max() / scale < 1e-8

    def test_decay_along_normal(self):
        p = mdl.dirichlet_laplacian()
        fp = comp.make_frequency_point(np.array([2.0]), 50.0 + 10.0j, p.m)
        cs = comp.build_companion(p, fp)
        v0 = abs(comp.propagate(cs, 0.0)[0, 0])
        v1 = abs(comp.propagate(cs, 1.0)[0, 0])
        assert v1 < v0 * 1e-2


class TestConditioning:
    def test_conditioning_never_raises(self):
        base = mdl.clamped_bilaplacian()
        trace = base.boundary_ops[0]
        p = mdl.ModelProblem(
            n=2, m=2, interior_coeffs=base.interior_coeffs,
            boundary_ops=[trace, trace],
            phi_prime=base.phi_prime, phi=base.phi)
        fp = comp.make_frequency_point(np.array([1.0]), 4.0 + 0j, p.m)
        sv, cond = comp.boundary_map_conditioning(p, fp)
        assert sv < 1e-8

    def test_well_posed_case_well_conditioned(self):
        p = mdl.dirichlet_laplacian()
        fp = comp.make_frequency_point(np.array([1.0]), 4.0 + 0j, p.m)
        sv, cond = comp.boundary_map_conditioning(p, fp)
        assert sv > 1e-2
        assert cond < 1e3

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
        fp = comp.make_frequency_point(np.array([1.0]), 3.0 * (1 + 1e-9), p.m)
        sv, cond = comp.boundary_map_conditioning(p, fp)
        assert sv < 1e-8
        with pytest.raises(comp.LopatinskiiError):
            comp.build_companion(p, fp)
