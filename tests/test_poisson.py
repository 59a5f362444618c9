import cmath
import math

import numpy as np
import pytest

import halfpoisson as hp
from halfpoisson import poisson as poi
from halfpoisson.grids import TangentialGrid
from halfpoisson.model import SectorSample
from kernel_table import kernel_table

RNG = np.random.default_rng(777)


class TestExponentQuery:
    def test_admissible_query_accepted(self):
        q = poi.ExponentQuery(k=0, p=2.0, r=0.0, t=0.0, s=0.0, j=0, m_j=0)
        assert q.k == 0

    def test_inadmissible_query_rejected(self):
        with pytest.raises(ValueError, match="inadmissible"):
            poi.ExponentQuery(k=0, p=2.0, r=0.0, t=1.0, s=0.0, j=0, m_j=0)

    def test_for_problem_reads_boundary_order(self):
        p = hp.neumann_laplacian()
        q = poi.ExponentQuery.for_problem(p, k=0, p=2.0, r=0.0, t=0.0, s=0.0, j=0)
        assert q.m_j == 1


class TestPredictedExponents:
    def test_decay_formula_frozen_values(self):
        # [TRIVIAL] direct evaluations of theta = (-1-r+p(k-m_j)+p[t-s]_+)/(2mp)
        q = poi.ExponentQuery(k=0, p=2.0, r=0.0, t=0.0, s=0.0, j=0, m_j=0)
        assert poi.predicted_decay_exponent(q, 1) == pytest.approx(-0.25)
        q = poi.ExponentQuery(k=0, p=2.0, r=0.0, t=0.0, s=0.0, j=0, m_j=1)
        assert poi.predicted_decay_exponent(q, 1) == pytest.approx(-0.75)
        q = poi.ExponentQuery(k=0, p=2.0, r=1.0, t=0.0, s=0.0, j=0, m_j=0)
        assert poi.predicted_decay_exponent(q, 1) == pytest.approx(-0.5)
        q = poi.ExponentQuery(k=0, p=2.0, r=0.0, t=0.25, s=0.0, j=0, m_j=0)
        assert poi.predicted_decay_exponent(q, 1) == pytest.approx(-0.125)
        q = poi.ExponentQuery(k=0, p=2.0, r=0.0, t=0.0, s=0.0, j=0, m_j=0)
        assert poi.predicted_decay_exponent(q, 2) == pytest.approx(-0.125)

    def test_singularity_formula(self):
        assert poi.predicted_singularity_exponent(1.0, 0.0) == -1.0
        assert poi.predicted_singularity_exponent(0.0, 1.0) == 0.0


class TestKernelBatch:
    def test_dirichlet_closed_form_batch(self):
        p = hp.dirichlet_laplacian()
        lam = 25.0 * cmath.exp(0.4j)
        xi = np.array([[0.0], [1.0], [-3.0]])
        batch = poi.kernel_batch(p, lam, xi)
        xs = np.array([0.0, 0.2, 1.0])
        kappa = np.sqrt(lam + xi[:, 0] ** 2 + 0j)
        exact = np.exp(-kappa[:, None] * xs[None, :])
        assert np.abs(kernel_table(batch, xs, 0)[0] - exact).max() < 1e-12

    def test_derivative_order(self):
        p = hp.dirichlet_laplacian()
        lam = 9.0 + 1.0j
        xi = np.array([[2.0]])
        batch = poi.kernel_batch(p, lam, xi)
        xs = np.array([0.5])
        kappa = cmath.sqrt(lam + 4.0)
        # D_n e^{-kappa x} = (i kappa) e^{-kappa x}
        exact = (1j * kappa) * cmath.exp(-kappa * 0.5)
        assert kernel_table(batch, xs, 1)[0, 0, 0] == pytest.approx(exact, rel=1e-12)

    def test_boundary_reproduction_second_condition(self):
        # Poi_1 of the bi-Laplacian: trace zero, D_n-trace one
        p = hp.clamped_bilaplacian()
        lam = 7.0 + 2.0j
        xi = np.array([[0.5], [1.5]])
        batch = poi.kernel_batch(p, lam, xi)
        at0 = kernel_table(batch, np.array([0.0]), 0)[1, :, 0]
        d_at0 = kernel_table(batch, np.array([0.0]), 1)[1, :, 0]
        assert np.abs(at0).max() < 1e-12
        assert np.abs(d_at0 - 1.0).max() < 1e-12
        # the whole matrix from the one batch: B_k = D_n^k at x_n = 0, so
        # tr B_k K_j is the k-th derivative trace of kernel j
        traces = np.stack([kernel_table(batch, np.array([0.0]), k)[:, :, 0]
                           for k in range(p.m)])          # (k, j, modes)
        assert np.abs(traces - np.eye(p.m)[:, :, None]).max() < 1e-12

    def test_m1_ls_violation_raises(self):
        # -Delta with B = D_n - 2i D_1 violates LS on lambda = 3 xi_1^2: at
        # xi' = 1, lambda = 3 the stable root tau = 2i makes B(xi', tau)
        # vanish.  Divided by its own entry the 1 x 1 map would read 1 and
        # the solve would return coefficients of size ~1e15.
        base = hp.dirichlet_laplacian()
        p = hp.ModelProblem(
            n=2, m=1, interior_coeffs=base.interior_coeffs,
            boundary_ops=[hp.BoundaryOperator(1, {(0, 1): 1.0, (1, 0): -2j})],
            phi_prime=base.phi_prime, phi=base.phi)
        with pytest.raises(hp.LopatinskiiError, match="xi'=\\[1.\\]"):
            poi.kernel_batch(p, 3.0, np.array([[2.0], [1.0]]))
        poi.kernel_batch(p, 3.0, np.array([[2.0]]))

    def test_lambda_outside_sector_raises(self):
        p = hp.dirichlet_laplacian()
        # lambda on the negative real axis hits the symbol range: stable/
        # anti-stable splitting degenerates
        with pytest.raises(Exception):
            poi.kernel_batch(p, -4.0 + 0j, np.array([[0.0]]))


class TestSweeps:
    def test_decay_sweep_dirichlet_basic(self):
        p = hp.dirichlet_laplacian()
        q = poi.ExponentQuery.for_problem(p, k=0, p=2.0, r=0.0, t=0.0, s=0.0, j=0)
        tg = TangentialGrid(n_axes=1, N=8, L=2 * math.pi)
        g = np.zeros(tg.n_modes, dtype=complex)
        g[tg.mode_index(1.0)] = 1.0
        sample = SectorSample.default(0.7 * math.pi, sigma_floor=1e2,
                                      n_rays=3, n_moduli=9, mod_max=1e6)
        res = poi.decay_sweep(p, q, sample, g, tg)
        assert res.predicted == pytest.approx(-0.25)
        assert res.max_deviation < 0.01

    def test_decay_sweep_weighted_derivative(self):
        # k = 1, r = 1.5: theta = (-1 - 1.5 + 2)/4 = -0.125
        p = hp.dirichlet_laplacian()
        q = poi.ExponentQuery.for_problem(p, k=1, p=2.0, r=1.5, t=0.0, s=0.0, j=0)
        tg = TangentialGrid(n_axes=1, N=8, L=2 * math.pi)
        g = np.zeros(tg.n_modes, dtype=complex)
        g[tg.mode_index(1.0)] = 1.0
        sample = SectorSample.default(0.7 * math.pi, sigma_floor=1e2,
                                      n_rays=3, n_moduli=9, mod_max=1e6)
        res = poi.decay_sweep(p, q, sample, g, tg)
        assert res.predicted == pytest.approx(-0.125)
        assert res.max_deviation < 0.01

    def test_singularity_sweep_inactive_bracket_flat(self):
        # t <= s: no singularity, fitted slope ~ 0
        p = hp.dirichlet_laplacian()
        xs = np.logspace(-4, -1, 25)
        res = poi.singularity_sweep(p, 0, 4.0 + 0j, 0.0, 1.0, xs)
        assert res.predicted == 0.0
        assert res.max_deviation < 0.05
