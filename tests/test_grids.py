import math

import numpy as np
import pytest

from halfpoisson.grids import HalfLineGrid, TangentialGrid, UniformHalfGrid
from halfpoisson.spaces import space_norm


class TestHalfLineGrid:
    def test_geometric_spacing(self):
        g = HalfLineGrid(x_min=1e-3, ratio=1.5, n_points=10)
        assert np.allclose(g.x[1:] / g.x[:-1], 1.5)
        assert g.x[0] == pytest.approx(1e-3)

    def test_gamma_integral_r0(self):
        # [DERIVED] int_0^inf e^{-x} dx = 1
        g = HalfLineGrid(x_min=1e-8, ratio=1.01, n_points=4000)
        got = float(g.quad_weights(0.0) @ np.exp(-g.x))
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_gamma_integral_r_half(self):
        # [DERIVED] int_0^inf e^{-x} x^{1/2} dx = Gamma(3/2) = 0.8862269254527579
        g = HalfLineGrid(x_min=1e-8, ratio=1.01, n_points=4000)
        got = float(g.quad_weights(0.5) @ np.exp(-g.x))
        assert got == pytest.approx(0.8862269254527579, abs=1e-10)

    def test_gamma_integral_r_negative(self):
        # [DERIVED] int_0^inf e^{-x} x^{-1/2} dx = Gamma(1/2) = 1.7724538509055159
        g = HalfLineGrid(x_min=1e-8, ratio=1.01, n_points=4000)
        got = float(g.quad_weights(-0.5) @ np.exp(-g.x))
        assert got == pytest.approx(1.7724538509055159, abs=1e-8)

    def test_weights_require_integrable_power(self):
        g = HalfLineGrid(x_min=1e-3, ratio=1.1, n_points=10)
        with pytest.raises(ValueError):
            g.quad_weights(-1.0)

    def test_refinement_convergence(self):
        g = HalfLineGrid(x_min=1e-6, ratio=1.2, n_points=150)
        coarse = float(g.quad_weights(0.0) @ np.exp(-g.x))
        g2 = g.refined(2)
        fine = float(g2.quad_weights(0.0) @ np.exp(-g2.x))
        assert abs(fine - 1.0) < abs(coarse - 1.0)

    def test_for_decay_covers_decay_scale(self):
        g = HalfLineGrid.for_decay(decay_rate=10.0)
        assert g.x[-1] >= 40.0 / 10.0 * 0.9


class TestTangentialGrid:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            TangentialGrid(n_axes=1, N=12, L=1.0)

    def test_zero_axes_degenerate(self):
        g = TangentialGrid(n_axes=0, N=4, L=1.0)
        assert g.n_modes == 1
        assert np.array_equal(g.xi_sq, [0.0])

    def test_plancherel_matches_direct(self):
        """The coefficient norm equals the discrete L2 norm of the samples
        f(x_j) = sum_k fhat_k e^{i xi_k x_j} at the nodes x_j = j L / N."""
        g = TangentialGrid(n_axes=1, N=32, L=2 * math.pi)
        rng = np.random.default_rng(1)
        fhat = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        x = g.L / g.N * np.arange(g.N)
        fx = np.exp(1j * np.outer(x, g.xi_axis)) @ fhat
        direct = math.sqrt(float(np.sum(np.abs(fx) ** 2) * g.L / g.N))
        assert space_norm(fhat, 0.0, g) == pytest.approx(direct, rel=1e-12)

    def test_mode_index(self):
        g = TangentialGrid(n_axes=1, N=8, L=2 * math.pi)
        q = g.mode_index(1.0)
        assert g.xi_modes[q, 0] == pytest.approx(1.0)

    def test_xi_sq_2d(self):
        g = TangentialGrid(n_axes=2, N=4, L=2 * math.pi)
        assert g.xi_sq.shape == (g.n_modes,) == (16,)
        assert np.array_equal(g.xi_sq, (g.xi_modes ** 2).sum(axis=1))
        assert np.allclose(np.sort(g.xi_sq)[:3], [0.0, 1.0, 1.0])


class TestUniformHalfGrid:
    def test_layout(self):
        g = UniformHalfGrid(X=8.0, N=16)
        assert g.h == pytest.approx(0.5)
        assert g.x[0] == 0.0
        assert g.x[-1] == pytest.approx(8.0 - 0.5)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            UniformHalfGrid(X=8.0, N=12)
