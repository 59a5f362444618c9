import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfpoisson.grids import HalfLineGrid, TangentialGrid
from halfpoisson import spaces as sp


TG = TangentialGrid(n_axes=1, N=64, L=2 * math.pi)


class TestTangentialNorms:
    def test_bessel_single_mode_closed_form(self):
        # [TRIVIAL] single mode at xi = 3: H^s norm is <3>^s sqrt(L)
        fhat = np.zeros(TG.N, dtype=complex)
        q = TG.mode_index(3.0)
        fhat[q] = 1.0
        expected = (1 + 9.0) ** 1.0 * math.sqrt(TG.L)
        assert sp.space_norm(fhat, 2.0, TG) == pytest.approx(expected, rel=1e-12)

    @given(s=st.floats(0.0, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_param_norm_reduces_at_mu_zero(self, s):
        rng = np.random.default_rng(8)
        fhat = rng.standard_normal(TG.N) + 1j * rng.standard_normal(TG.N)
        a = sp.param_norm(fhat, s, 0.0, 0.0, TG)
        b = sp.space_norm(fhat, s, TG)
        assert a == pytest.approx(b, rel=1e-10)

    def test_param_norm_mu_dominates(self):
        # for |mu| >> xi_max the norm is ~ |mu|^{s-s0} ||f||_{s0}
        fhat = np.zeros(TG.N, dtype=complex)
        fhat[TG.mode_index(1.0)] = 1.0
        mu = 1e4
        got = sp.param_norm(fhat, 2.0, 0.0, mu, TG)
        ref = mu ** 2 * sp.space_norm(fhat, 0.0, TG)
        assert got == pytest.approx(ref, rel=1e-4)

    @pytest.mark.parametrize("n_axes", [0, 1, 2])
    def test_param_norm_on_flat_data(self, n_axes):
        """Flat data in every tangential dimension against the multiplier
        and the H^{s0}_2 weight written out mode by mode:
        ||f||^2 = L^(n-1) sum_k <xi_k, mu>^(2(s-s0)) <xi_k>^(2 s0) |fhat_k|^2."""
        tg = TangentialGrid(n_axes=n_axes, N=8, L=3.0)
        rng = np.random.default_rng(4)
        fhat = rng.standard_normal(tg.n_modes) + 1j * rng.standard_normal(tg.n_modes)
        s, s0, mu = 2.0, 0.5, 3.0
        sq = sum((1.0 + xi @ xi + mu ** 2) ** (s - s0) * (1.0 + xi @ xi) ** s0 * abs(c) ** 2
                 for xi, c in zip(tg.xi_modes, fhat))
        assert sp.param_norm(fhat, s, s0, mu, tg) == pytest.approx(
            math.sqrt(tg.L ** n_axes * sq), rel=1e-12)


class TestMixedNorms:
    def test_separable_product_closed_form(self):
        # [DERIVED] u = (single mode) x e^{-x}: L_2(x^r; L_2) norm =
        # sqrt(L) * (Gamma(1+r) / 2^{1+r})^{1/2} with r = 0.5
        xg = HalfLineGrid(x_min=1e-8, ratio=1.02, n_points=2000)
        prof = np.zeros((1, TG.N, xg.n_points), dtype=complex)
        prof[0, TG.mode_index(2.0), :] = np.exp(-xg.x)
        got = sp.sobolev_mixed_norm(prof, 2.0, 0.5, 0.0, TG, xg)
        expected = math.sqrt(TG.L) * math.sqrt(0.8862269254527579 / 2 ** 1.5)
        assert got == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("n_axes", [0, 1, 2])
    def test_matches_per_node_sum(self, n_axes):
        """The column norms and the mixed norm against Plancherel written out
        mode by mode and node by node, on the flattened mode order of
        ``xi_modes``: ||f||^2 = L^(n-1) sum_k (1 + |xi_k|^2)^t |fhat_k|^2."""
        tg = TangentialGrid(n_axes=n_axes, N=8, L=3.0)
        xg = HalfLineGrid(x_min=1e-6, ratio=1.1, n_points=40)
        rng = np.random.default_rng(9)
        shape = (2, tg.n_modes, xg.n_points)
        prof = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        t, r = 1.5, 0.3
        norms = np.empty((2, xg.n_points))
        for l in range(2):
            for i in range(xg.n_points):
                sq = sum((1.0 + float(xi @ xi)) ** t * abs(prof[l, k, i]) ** 2
                         for k, xi in enumerate(tg.xi_modes))
                norms[l, i] = math.sqrt(tg.L ** n_axes * sq)
        for l in range(2):
            got = sp.plancherel_norms(prof[l], t, tg)
            assert np.allclose(got, norms[l], rtol=1e-12, atol=0.0)
            assert sp.space_norm(prof[l, :, 0], t, tg) == pytest.approx(norms[l, 0],
                                                                       rel=1e-12)
        expected = math.sqrt(float(np.sum(norms ** 2 @ xg.quad_weights(r))))
        got = sp.sobolev_mixed_norm(prof, 2.0, r, t, tg, xg)
        assert got == pytest.approx(expected, rel=1e-10)


class TestHardy:
    GRID = HalfLineGrid(x_min=1e-16, ratio=1.08, n_points=1000)

    def test_point_value_frozen(self):
        # [DERIVED] T e^{-.}(1) = e * E1(1) = 0.5963473623231946
        g = HalfLineGrid(x_min=1e-8, ratio=1.02, n_points=2400)
        vals = sp._hardy_matrix(g) @ np.exp(-g.x)
        i = int(np.argmin(np.abs(g.x - 1.0)))
        # evaluate at the node closest to 1 via the exact formula there
        from scipy.special import exp1
        exact = math.exp(g.x[i]) * exp1(g.x[i])
        assert vals[i] == pytest.approx(exact, rel=1e-6)
        assert math.e * exp1(1.0) == pytest.approx(0.5963473623231946, rel=1e-12)

    def test_p2_r0_reference(self):
        est = sp.hardy_norm(2.0, 0.0, self.GRID)
        assert est == pytest.approx(math.pi, rel=0.02)

    def test_p3_matches_analytic(self):
        # [DERIVED] norm on L_3 = pi / sin(pi/3) = 3.6275987284684357
        est = sp.hardy_norm(3.0, 0.0, self.GRID)
        assert est == pytest.approx(3.6275987284684357, rel=0.03)

    def test_weighted_p2_matches_analytic(self):
        # [DERIVED] p=2, r=0.4: pi / sin(pi (1+r)/2) = 3.8832220774509327
        est = sp.hardy_norm(2.0, 0.4, self.GRID)
        assert est == pytest.approx(3.8832220774509327, rel=0.03)

    def test_monotone_in_r(self):
        ests = [sp.hardy_norm(2.0, r, self.GRID) for r in (0.0, 0.4, 0.8)]
        assert ests[0] < ests[1] < ests[2]

    def test_p_boundary_rejected(self):
        with pytest.raises(ValueError):
            sp.hardy_norm(1.0, 0.0, self.GRID)

    @pytest.mark.parametrize("n", [3, 1000])
    @pytest.mark.parametrize("r", [0.0, 0.4])
    def test_p2_matches_dense_eigenvalues(self, n, r):
        g = HalfLineGrid(x_min=1e-16, ratio=1.08, n_points=n)
        d = np.sqrt(g.quad_weights(r))
        A = d[:, None] * sp._hardy_matrix(g) / d[None, :]
        dense = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (A + A.T)))))
        assert sp.hardy_norm(2.0, r, g) == pytest.approx(dense, rel=1e-12)

    def test_p2_repeats_exactly(self):
        # the Lanczos start vector is fixed, not drawn from a seed that
        # advances between calls
        a = sp.hardy_norm(2.0, 0.4, self.GRID)
        b = sp.hardy_norm(2.0, 0.4, self.GRID)
        assert a == b

    def test_power_iteration_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(sp, "_POWER_MAX_ITER", 3)
        with pytest.raises(ValueError, match=r"p=3\.0, r=0\.5.*max_iter=3"):
            sp.hardy_norm(3.0, 0.5, self.GRID)


class TestMixedLifting:
    def test_full_lift_dominates_single_axis(self):
        rng = np.random.default_rng(11)
        xi_n = 2 * math.pi * np.fft.fftfreq(32, d=2 * math.pi / 32)
        f2 = rng.standard_normal((TG.N, 32)) + 1j * rng.standard_normal((TG.N, 32))
        ratio = sp.mixed_lifting_check(f2, 2.0, TG, xi_n)
        assert 1.0 <= ratio <= 2.0 ** 1.0 + 1e-9

    def test_stack_matches_per_entry_calls(self):
        """A stack gives, bit for bit, the ratios of one call per entry and
        of the reference below (one np.sum over each 2-D entry)."""
        rng = np.random.default_rng(12)
        xi_n = 2 * math.pi * np.fft.fftfreq(64, d=2 * math.pi / 64)
        re, im = rng.standard_normal((2, 3, 2, TG.N, 64))
        f = re + 1j * im
        xt, xn = TG.xi_sq[:, None], (xi_n ** 2)[None, :]

        def l2(mult, f2):
            return math.sqrt(float(np.sum(np.abs(mult * f2) ** 2)))

        def ratio(f2, t):
            return l2((1.0 + xt + xn) ** (t / 2.0), f2) / max(
                l2((1.0 + xt + 0 * xn) ** (t / 2.0), f2),
                l2((1.0 + 0 * xt + xn) ** (t / 2.0), f2))

        for t in (0.5, 2.0):
            stacked = sp.mixed_lifting_check(f, t, TG, xi_n)
            assert stacked.shape == (3, 2)
            single = [[sp.mixed_lifting_check(f2, t, TG, xi_n) for f2 in row] for row in f]
            assert np.array_equal(stacked, single)
            assert np.array_equal(stacked, [[ratio(f2, t) for f2 in row] for row in f])

    def test_negative_smoothness_rejected(self):
        xi_n = np.zeros(4)
        with pytest.raises(ValueError):
            sp.mixed_lifting_check(np.zeros((TG.N, 4)), -1.0, TG, xi_n)
