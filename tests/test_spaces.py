import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfpoisson.grids import HalfLineGrid, TangentialGrid
from halfpoisson import spaces as sp


TG = TangentialGrid(n_axes=1, N=64, L=2 * math.pi)


class TestSpaceSpec:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            sp.SpaceSpec(scale="X")

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            sp.SpaceSpec(p=0.5)


class TestDyadicPartition:
    def test_partition_of_unity(self):
        xi = np.linspace(0, 500, 2000)
        part = sp.DyadicPartition(xi)
        assert part.partition_defect() < 1e-12

    def test_band_supports(self):
        xi = np.linspace(0, 500, 2000)
        part = sp.DyadicPartition(xi)
        for k, phi in enumerate(part.bands[1:], start=1):
            lo, hi = 2.0 ** (k - 1), 3.0 * 2.0 ** (k - 1)
            outside = (xi < lo * 0.999) | (xi > hi * 1.001)
            assert np.max(np.abs(phi[outside]), initial=0.0) < 1e-12


class TestTangentialNorms:
    def test_bessel_single_mode_closed_form(self):
        # [TRIVIAL] single mode at xi = 3: H^s norm is <3>^s sqrt(L)
        fhat = np.zeros(TG.N, dtype=complex)
        q = TG.mode_index(3.0)
        fhat[q] = 1.0
        spec = sp.SpaceSpec(scale="H", s=2.0, p=2)
        expected = (1 + 9.0) ** 1.0 * math.sqrt(TG.L)
        assert sp.bessel_norm(fhat, spec, TG) == pytest.approx(expected, rel=1e-12)

    def test_w_equals_h(self):
        rng = np.random.default_rng(5)
        fhat = rng.standard_normal(TG.N) + 1j * rng.standard_normal(TG.N)
        a = sp.space_norm(fhat, sp.SpaceSpec(scale="W", s=1.0, p=2), TG)
        b = sp.space_norm(fhat, sp.SpaceSpec(scale="H", s=1.0, p=2), TG)
        assert a == pytest.approx(b)

    def test_besov_single_band_matches_bessel_scaling(self):
        # a mode inside one dyadic band: B norm ~ 2^{sk} ||f||_p, comparable
        # to the Bessel norm within the band's frequency spread
        fhat = np.zeros(TG.N, dtype=complex)
        fhat[TG.mode_index(8.0)] = 1.0
        b = sp.besov_norm(fhat, sp.SpaceSpec(scale="B", s=1.0, p=2, q=2), TG)
        h = sp.bessel_norm(fhat, sp.SpaceSpec(scale="H", s=1.0, p=2), TG)
        assert 0.25 * h <= b <= 4.0 * h

    def test_besov_q_infinity_is_sup(self):
        rng = np.random.default_rng(6)
        fhat = rng.standard_normal(TG.N) + 1j * rng.standard_normal(TG.N)
        spec_inf = sp.SpaceSpec(scale="B", s=0.5, p=2, q=math.inf)
        spec_1 = sp.SpaceSpec(scale="B", s=0.5, p=2, q=1)
        assert sp.besov_norm(fhat, spec_inf, TG) <= sp.besov_norm(fhat, spec_1, TG)

    def test_triebel_p_equals_q_2_matches_bessel(self):
        # F^s_{2,2} = H^s (Littlewood-Paley); discretized versions agree
        # within the partition's overlap constant
        rng = np.random.default_rng(7)
        fhat = rng.standard_normal(TG.N) + 1j * rng.standard_normal(TG.N)
        f = sp.triebel_norm(fhat, sp.SpaceSpec(scale="F", s=1.0, p=2, q=2), TG)
        h = sp.bessel_norm(fhat, sp.SpaceSpec(scale="H", s=1.0, p=2), TG)
        assert 0.25 * h <= f <= 4.0 * h

    @given(s=st.floats(0.0, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_param_norm_reduces_at_mu_zero(self, s):
        rng = np.random.default_rng(8)
        fhat = rng.standard_normal(TG.N) + 1j * rng.standard_normal(TG.N)
        base = sp.SpaceSpec(scale="H", s=0.0, p=2)
        a = sp.param_norm(fhat, s, 0.0, 0.0, base, TG)
        b = sp.bessel_norm(fhat, sp.SpaceSpec(scale="H", s=s, p=2), TG)
        assert a == pytest.approx(b, rel=1e-10)

    def test_param_norm_mu_dominates(self):
        # for |mu| >> xi_max the norm is ~ |mu|^{s-s0} ||f||_{s0}
        fhat = np.zeros(TG.N, dtype=complex)
        fhat[TG.mode_index(1.0)] = 1.0
        base = sp.SpaceSpec(scale="H", s=0.0, p=2)
        mu = 1e4
        got = sp.param_norm(fhat, 2.0, 0.0, mu, base, TG)
        ref = mu ** 2 * sp.bessel_norm(fhat, base, TG)
        assert got == pytest.approx(ref, rel=1e-4)


class TestMixedNorms:
    def test_separable_product_closed_form(self):
        # [DERIVED] u = (single mode) x e^{-x}: L_2(x^r; L_2) norm =
        # sqrt(L) * (Gamma(1+r) / 2^{1+r})^{1/2} with r = 0.5
        xg = HalfLineGrid(x_min=1e-8, ratio=1.02, n_points=2000)
        prof = np.zeros((1, TG.N, xg.n_points), dtype=complex)
        prof[0, TG.mode_index(2.0), :] = np.exp(-xg.x)
        spec = sp.SpaceSpec(scale="Lp", s=0.0, p=2)
        got = sp.sobolev_mixed_norm(prof, 2.0, 0.5, spec, TG, xg)
        expected = math.sqrt(TG.L) * math.sqrt(0.8862269254527579 / 2 ** 1.5)
        assert got == pytest.approx(expected, rel=1e-8)

    def test_fast_path_matches_generic(self):
        xg = HalfLineGrid(x_min=1e-6, ratio=1.1, n_points=200)
        rng = np.random.default_rng(9)
        prof = (rng.standard_normal((2, TG.N, xg.n_points))
                + 1j * rng.standard_normal((2, TG.N, xg.n_points)))
        spec2 = sp.SpaceSpec(scale="H", s=1.5, p=2)
        fast = sp.sobolev_mixed_norm(prof, 2.0, 0.3, spec2, TG, xg)
        # same norm via the per-node dispatcher (p != 2 path is forced by B)
        slow = 0.0
        w = xg.quad_weights(0.3)
        for l in range(2):
            norms = np.array([
                sp.bessel_norm(prof[l][:, i], spec2, TG)
                for i in range(xg.n_points)
            ])
            slow += float((norms ** 2) @ w)
        assert fast == pytest.approx(math.sqrt(slow), rel=1e-10)


class TestMuckenhoupt:
    def test_constant_weight_characteristic_one(self):
        got = sp.ap_characteristic(lambda x: np.ones_like(x), 2.0,
                                   [(0.0, 1.0), (2.0, 5.0)])
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_power_weight_in_range(self):
        # |x|^r on (0, 1) with 0 < r < p-1 = 1 has finite characteristic > 1
        got = sp.ap_characteristic(lambda x: x ** 0.5, 2.0, [(0.0, 1.0)],
                                   samples_per_interval=1 << 16)
        # [DERIVED] exact: avg(x^{1/2}) * avg(x^{-1/2}) = (2/3) * 2 = 4/3
        # midpoint quadrature of the x^{-1/2} factor converges at O(n^{-1/2})
        assert got == pytest.approx(4.0 / 3.0, rel=5e-3)

    def test_needs_p_above_one(self):
        with pytest.raises(ValueError):
            sp.ap_characteristic(lambda x: np.ones_like(x), 1.0, [(0.0, 1.0)])


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

    def test_power_iteration_nonconvergence_raises(self):
        with pytest.raises(ValueError, match=r"p=3\.0, r=0\.5.*max_iter=3"):
            sp.hardy_norm(3.0, 0.5, self.GRID, max_iter=3)


class TestMixedLifting:
    def test_full_lift_dominates_single_axis(self):
        rng = np.random.default_rng(11)
        xi_n = 2 * math.pi * np.fft.fftfreq(32, d=2 * math.pi / 32)
        f2 = rng.standard_normal((TG.N, 32)) + 1j * rng.standard_normal((TG.N, 32))
        ratio = sp.mixed_lifting_check(f2, 2.0, TG, xi_n)
        assert 1.0 <= ratio <= 2.0 ** 1.0 + 1e-9

    def test_negative_smoothness_rejected(self):
        xi_n = np.zeros(4)
        with pytest.raises(ValueError):
            sp.mixed_lifting_check(np.zeros((TG.N, 4)), -1.0, TG, xi_n)
