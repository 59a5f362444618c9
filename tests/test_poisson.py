import cmath
import math

import numpy as np
import pytest

import halfpoisson as hp
from halfpoisson import poisson as poi
from halfpoisson.grids import HalfLineGrid, TangentialGrid
from halfpoisson.spaces import SpaceSpec
from halfpoisson.model import SectorSample

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
        assert np.abs(batch.eval(xs, 0)[0] - exact).max() < 1e-12

    def test_derivative_order(self):
        p = hp.dirichlet_laplacian()
        lam = 9.0 + 1.0j
        xi = np.array([[2.0]])
        batch = poi.kernel_batch(p, lam, xi)
        xs = np.array([0.5])
        kappa = cmath.sqrt(lam + 4.0)
        # D_n e^{-kappa x} = (i kappa) e^{-kappa x}
        exact = (1j * kappa) * cmath.exp(-kappa * 0.5)
        assert batch.eval(xs, 1)[0, 0, 0] == pytest.approx(exact, rel=1e-12)

    def test_fallback_route_matches_fast_route(self):
        p = hp.clamped_bilaplacian()
        lam = 16.0 * cmath.exp(0.3j)
        xi = np.array([[0.7], [2.0]])
        fast = poi.kernel_batch(p, lam, xi)
        assert not fast.fallback.any()
        forced = poi.kernel_batch(p, lam, xi, degeneracy_tol=1e6)
        assert forced.fallback.all()
        xs = np.array([0.0, 0.4, 1.5])
        a, b = fast.eval(xs, 0), forced.eval(xs, 0)
        assert np.abs(a - b).max() < 1e-8

    def test_boundary_reproduction_second_condition(self):
        # Poi_1 of the bi-Laplacian: trace zero, D_n-trace one
        p = hp.clamped_bilaplacian()
        lam = 7.0 + 2.0j
        xi = np.array([[0.5], [1.5]])
        batch = poi.kernel_batch(p, lam, xi)
        at0 = batch.eval(np.array([0.0]), 0)[1, :, 0]
        d_at0 = batch.eval(np.array([0.0]), 1)[1, :, 0]
        assert np.abs(at0).max() < 1e-12
        assert np.abs(d_at0 - 1.0).max() < 1e-12
        # the whole matrix from the one batch: B_k = D_n^k at x_n = 0, so
        # tr B_k K_j is the k-th derivative trace of kernel j
        traces = np.stack([batch.eval(np.array([0.0]), k)[:, :, 0]
                           for k in range(p.m)])          # (k, j, modes)
        assert np.abs(traces - np.eye(p.m)[:, :, None]).max() < 1e-12

    def test_lambda_outside_sector_raises(self):
        p = hp.dirichlet_laplacian()
        # lambda on the negative real axis hits the symbol range: stable/
        # anti-stable splitting degenerates
        with pytest.raises(Exception):
            poi.kernel_batch(p, -4.0 + 0j, np.array([[0.0]]))


class TestPoissonApply:
    def test_space_layout_round_trip(self):
        p = hp.dirichlet_laplacian()
        tg = TangentialGrid(n_axes=1, N=16, L=2 * math.pi)
        xg = HalfLineGrid(x_min=1e-4, ratio=1.3, n_points=40)
        grid = poi.GridSpec(tangential=tg, normal=xg)
        g = np.zeros(tg.n_modes, dtype=complex)
        g[tg.mode_index(1.0)] = 1.0
        freq = poi.poisson_apply(p, 4.0 + 1.0j, 0, g, grid)
        space = poi.poisson_apply(p, 4.0 + 1.0j, 0, g, grid,
                                  output_layout="space")
        back = np.fft.fftn(space.values.reshape(16, -1), axes=(0,)) / 16
        assert np.allclose(back.reshape(tg.n_modes, -1), freq.values, atol=1e-12)

    def test_mode_count_mismatch_rejected(self):
        p = hp.dirichlet_laplacian()
        tg = TangentialGrid(n_axes=1, N=16, L=2 * math.pi)
        xg = HalfLineGrid(x_min=1e-4, ratio=1.3, n_points=40)
        with pytest.raises(ValueError):
            poi.poisson_apply(p, 4.0 + 1.0j, 0, np.zeros(7),
                              poi.GridSpec(tangential=tg, normal=xg))


class TestSweeps:
    def test_decay_sweep_dirichlet_basic(self):
        p = hp.dirichlet_laplacian()
        q = poi.ExponentQuery.for_problem(p, k=0, p=2.0, r=0.0, t=0.0, s=0.0, j=0)
        tg = TangentialGrid(n_axes=1, N=8, L=2 * math.pi)
        g = np.zeros(tg.n_modes, dtype=complex)
        g[tg.mode_index(1.0)] = 1.0
        sample = SectorSample.default(0.7 * math.pi, sigma_floor=1e2,
                                      n_rays=3, n_moduli=9, mod_max=1e6)
        res = poi.decay_sweep(p, 0, q, sample, g,
                              SpaceSpec(scale="H", s=0.0, p=2), tg)
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
        res = poi.decay_sweep(p, 0, q, sample, g,
                              SpaceSpec(scale="H", s=0.0, p=2), tg)
        assert res.predicted == pytest.approx(-0.125)
        assert res.max_deviation < 0.01

    def test_singularity_sweep_inactive_bracket_flat(self):
        # t <= s: no singularity, fitted slope ~ 0
        p = hp.dirichlet_laplacian()
        tg = TangentialGrid(n_axes=1, N=64, L=2 * math.pi)
        xi_abs = np.sqrt(np.atleast_1d(tg.xi_sq).reshape(-1))
        g = (1.0 + xi_abs ** 2) ** (-(1.0 + 0.5 + 0.05) / 2.0)
        xs = np.logspace(-4, -1, 25)
        res = poi.singularity_sweep(p, 0, 4.0 + 0j, g, 0.0, 1.0, xs, tg)
        assert res.predicted == 0.0
        assert res.max_deviation < 0.05

    def test_worst_slope_reported(self):
        p = hp.dirichlet_laplacian()
        q = poi.ExponentQuery.for_problem(p, k=0, p=2.0, r=0.0, t=0.0, s=0.0, j=0)
        tg = TangentialGrid(n_axes=1, N=8, L=2 * math.pi)
        g = np.zeros(tg.n_modes, dtype=complex)
        g[tg.mode_index(1.0)] = 1.0
        sample = SectorSample.default(0.7 * math.pi, sigma_floor=1e2,
                                      n_rays=3, n_moduli=7, mod_max=1e5)
        res = poi.decay_sweep(p, 0, q, sample, g,
                              SpaceSpec(scale="H", s=0.0, p=2), tg)
        assert res.worst_slope() in res.fitted_slopes.values()


class TestVolevich:
    def test_reproduces_poisson_solution(self):
        """Applying the integration-by-parts form to a known solution u
        with tr B_j u = g recovers Poi_j(lambda) g itself."""
        p = hp.dirichlet_laplacian()
        lam = 9.0 + 3.0j
        tg = TangentialGrid(n_axes=1, N=8, L=2 * math.pi)
        yg = HalfLineGrid(x_min=1e-7, ratio=1.04, n_points=700)
        # u = Poi_0(lambda) g for a two-mode datum
        g = np.zeros(tg.n_modes, dtype=complex)
        g[tg.mode_index(1.0)] = 1.0
        g[tg.mode_index(-2.0)] = 0.5 - 0.25j
        batch = poi.kernel_batch(p, lam, tg.xi_modes)
        derivs = np.stack([batch.eval(yg.x, l)[0] * g[:, None] for l in range(3)])
        x_nodes = np.array([0.0, 0.3, 1.0])
        got = poi.volevich_apply(p, lam, 0, derivs, tg, yg, x_nodes)
        expected = batch.eval(x_nodes, 0)[0] * g[:, None]
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() / scale < 1e-6

    def test_lambda_power_prefactor(self):
        p = hp.dirichlet_laplacian()
        lam = 4.0 + 1.0j
        tg = TangentialGrid(n_axes=1, N=4, L=2 * math.pi)
        yg = HalfLineGrid(x_min=1e-6, ratio=1.1, n_points=300)
        g = np.zeros(tg.n_modes, dtype=complex)
        g[tg.mode_index(1.0)] = 1.0
        batch = poi.kernel_batch(p, lam, tg.xi_modes)
        derivs = np.stack([batch.eval(yg.x, l)[0] * g[:, None] for l in range(3)])
        x_nodes = np.array([0.5])
        base = poi.volevich_apply(p, lam, 0, derivs, tg, yg, x_nodes, theta=0)
        powd = poi.volevich_apply(p, lam, 0, derivs, tg, yg, x_nodes, theta=2)
        assert np.allclose(powd, lam ** 2 * base)

    def test_insufficient_derivatives_rejected(self):
        p = hp.dirichlet_laplacian()
        tg = TangentialGrid(n_axes=1, N=4, L=2 * math.pi)
        yg = HalfLineGrid(x_min=1e-6, ratio=1.1, n_points=50)
        with pytest.raises(ValueError):
            poi.volevich_apply(p, 4.0 + 1.0j, 0,
                               np.zeros((1, tg.n_modes, yg.n_points)),
                               tg, yg, np.array([0.1]))


class TestGridFunction:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            poi.GridFunction(values=np.array([np.nan + 0j]))

    def test_bad_layout_rejected(self):
        with pytest.raises(ValueError):
            poi.GridFunction(values=np.zeros(2, dtype=complex), layout="other")
