import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfpoisson.grids import HalfLineGrid, TangentialGrid, UniformHalfGrid, _simpson_coeffs
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


def _simpson_coeffs_loop(n_points):
    """The composite Simpson coefficients written out pair by pair, with the
    trapezoid on the last interval for an odd interval count."""
    c = np.zeros(n_points)
    n_int = n_points - 1
    for p in range(n_int // 2):
        i = 2 * p
        c[i] += 1.0 / 3.0
        c[i + 1] += 4.0 / 3.0
        c[i + 2] += 1.0 / 3.0
    if n_int % 2 == 1:
        c[-2] += 0.5
        c[-1] += 0.5
    return c


@pytest.mark.parametrize("n", range(2, 65))
def test_simpson_coeffs_equal_the_pairwise_loop(n):
    assert np.array_equal(_simpson_coeffs(n).view(np.uint64),
                          _simpson_coeffs_loop(n).view(np.uint64))


_POWERS_OF_TWO = st.integers(1, 12).map(lambda k: 2 ** k)
_LENGTHS = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(N=_POWERS_OF_TWO, L=_LENGTHS)
def test_one_axis_torus_frequencies_are_fftfreq(N, L):
    """Every periodic axis, the time torus among them, takes its frequencies
    from ``TangentialGrid.xi_axis``: bit for bit 2 pi fftfreq(N, d=L/N)."""
    got = TangentialGrid(n_axes=1, N=N, L=L).xi_axis
    want = 2.0 * math.pi * np.fft.fftfreq(N, d=L / N)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(N=_POWERS_OF_TWO.filter(lambda n: n >= 4), X=_LENGTHS)
def test_doubled_normal_torus_frequencies_are_fftfreq(N, X):
    """The doubled normal torus is the one-axis torus of length 2X with 2N
    nodes: bit for bit 2 pi fftfreq(2N, d=X/N)."""
    got = UniformHalfGrid(X=X, N=N).xi_normal
    want = 2.0 * math.pi * np.fft.fftfreq(2 * N, d=X / N)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestTangentialGrid:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            TangentialGrid(n_axes=1, N=12, L=1.0)

    def test_zero_axes_degenerate(self):
        # every problem has n >= 2, so a torus has at least one axis
        with pytest.raises(ValueError, match="'n_axes' must be >= 1, got 0"):
            TangentialGrid(n_axes=0, N=4, L=1.0)

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

    def test_mode_index_is_a_flat_index_on_the_last_axis(self):
        # the modes flatten in "ij" order: a one-axis index k picks (0, xi_k)
        g = TangentialGrid(n_axes=2, N=8, L=2 * math.pi)
        assert g.xi_modes[g.mode_index(1.0)].tolist() == [0.0, 1.0]
        for xi in g.xi_axis:
            assert g.xi_modes[g.mode_index(xi * (1 + 1e-13))].tolist() == [0.0, xi]

    @pytest.mark.parametrize("n_axes", [1, 2])
    @pytest.mark.parametrize("target", [1.5, 100, 4, -4.5, 1 + 1e-9])
    def test_mode_index_refuses_a_frequency_off_the_grid(self, target, n_axes):
        """8 modes at L = 2 pi hold -4, ..., 3: no nearest mode stands in for
        a frequency between them, beyond them, or at N/2 = 4."""
        g = TangentialGrid(n_axes=n_axes, N=8, L=2 * math.pi)
        with pytest.raises(ValueError, match=re.escape(
                f"frequency {target} is off the grid: its 8 modes per axis are "
                "the multiples of 1 from -4 to 3")):
            g.mode_index(target)

    def test_mode_index_follows_the_torus_length(self):
        g = TangentialGrid(n_axes=1, N=8, L=4 * math.pi)
        assert g.xi_axis[g.mode_index(0.5)] == 0.5
        with pytest.raises(ValueError, match="multiples of 0.5 from -2 to 1.5"):
            g.mode_index(1.0 / 3.0)

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
