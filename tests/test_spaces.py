import math
import tracemalloc

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

    @pytest.mark.parametrize("n_axes", [1, 2])
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

    @pytest.mark.parametrize("n_axes", [1, 2])
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


def _hardy_matrix(grid):
    """Dense discretization of T f(x) = int f(y)/(x+y) dy on the grid: the
    n x n oracle for the FFT route of ``spaces.hardy_norm``."""
    x = grid.x
    w = grid.quad_weights(0.0)
    return w[None, :] / (x[:, None] + x[None, :])


def _dense_boyd(p, r, grid):
    """Boyd's L_p power method on the dense matrix, in the f variables, from
    the start vector, tolerance and step limit of ``spaces.hardy_norm``."""
    K = _hardy_matrix(grid)
    wr = grid.quad_weights(r)
    f = np.random.default_rng(sp._POWER_SEED).random(grid.n_points) + 0.1
    pp = p / (p - 1.0)

    def norm_p(v):
        return float((wr @ np.abs(v) ** p) ** (1.0 / p))

    est = 0.0
    for _ in range(sp._POWER_MAX_ITER):
        f = f / max(norm_p(f), 1e-300)
        g = K @ f
        new_est = norm_p(g)
        jg = np.sign(g) * np.abs(g) ** (p - 1.0)
        h = K.T @ (wr * jg) / wr
        f = np.sign(h) * np.abs(h) ** (pp - 1.0)
        if abs(new_est - est) <= sp._POWER_TOL * max(new_est, 1.0):
            return new_est
        est = new_est
    raise AssertionError("dense Boyd iteration did not converge")


class TestHardy:
    GRID = HalfLineGrid(x_min=1e-16, ratio=1.08, n_points=1000)

    def test_point_value_frozen(self):
        # [DERIVED] T e^{-.}(1) = e * E1(1) = 0.5963473623231946
        g = HalfLineGrid(x_min=1e-8, ratio=1.02, n_points=2400)
        # a = 0: K f = Psi_0 (gamma^(0) f), the production FFT apply
        apply, _ = sp._mellin_toeplitz(0.0, g)
        vals = apply(g.log_weights(0.0) * np.exp(-g.x))
        i = int(np.argmin(np.abs(g.x - 1.0)))
        # evaluate at the node closest to 1 via the exact formula there
        from scipy.special import exp1
        exact = math.exp(g.x[i]) * exp1(g.x[i])
        assert vals[i] == pytest.approx(exact, rel=1e-6)
        assert math.e * exp1(1.0) == pytest.approx(0.5963473623231946, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 700), x_min=st.floats(1e-16, 1.0),
           ratio=st.floats(1.001, 1.3), a=st.floats(0.0, 1.5), seed=st.integers(0, 99))
    def test_fft_apply_matches_dense_product(self, n, x_min, ratio, a, seed):
        """Psi_a diag(gamma^(0)) = diag(x^a) K diag(x^-a), K the dense matrix;
        both FFT products against the dense ones, at any n."""
        g = HalfLineGrid(x_min=x_min, ratio=ratio, n_points=n)
        xa = g.x ** a
        psi = xa[:, None] * _hardy_matrix(g) / (xa * g.log_weights(0.0))[None, :]
        z = np.random.default_rng(seed).standard_normal(n)
        apply, apply_t = sp._mellin_toeplitz(a, g)
        scale = np.abs(psi).max() * np.abs(z).sum()
        assert np.abs(apply(z) - psi @ z).max() <= 1e-13 * scale
        assert np.abs(apply_t(z) - psi.T @ z).max() <= 1e-13 * scale

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
        A = d[:, None] * _hardy_matrix(g) / d[None, :]
        assert sp.hardy_norm(2.0, r, g) == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)

    @pytest.mark.parametrize("r", [0.4, 0.8])
    def test_p2_continues_the_general_p_route(self, r):
        """p = 2 is the spectral norm, which Boyd's iteration approaches as
        p -> 2; the symmetric part of the weighted matrix fell 3.5 % short
        at r = 0.8."""
        at2 = sp.hardy_norm(2.0, r, self.GRID)
        near2 = sp.hardy_norm(2.0 - 1e-4, r, self.GRID)
        assert abs(at2 - near2) <= 1e-3 * near2

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

    @pytest.mark.parametrize("refine", [1, 2], ids=["default", "refined"])
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.6])
    def test_p2_matches_dense_eigvalsh_on_the_cli_grids(self, refine, r):
        """hardy-norm's grid and its refinement, against the dense spectral
        norm of the same weighted matrix."""
        g = self.GRID.refined(refine) if refine > 1 else self.GRID
        d = np.sqrt(g.quad_weights(r))
        A = d[:, None] * _hardy_matrix(g) / d[None, :]
        dense = np.linalg.norm(A, 2)
        assert abs(sp.hardy_norm(2.0, r, g) - dense) <= 1e-13 * dense

    @pytest.mark.parametrize("p,r", [
        # hardy-norm's weights r = 0, 0.4 (p - 1), 0.8 (p - 1), p = 3 included
        *((p, fr * (p - 1.0)) for p in (1.3, 1.85, 3.0) for fr in (0.0, 0.4, 0.8)),
        # r near -1, and r >= p - 1, where the norm on the half-line is infinite
        (1.3, -0.7), (3.0, -0.7), (1.85, 0.85), (3.0, 2.0), (1.3, 0.45)])
    def test_power_iteration_matches_dense_boyd(self, p, r):
        assert sp.hardy_norm(p, r, self.GRID) == pytest.approx(
            _dense_boyd(p, r, self.GRID), rel=1e-9)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_large_grid_stays_small(self, p):
        """20 000 points: a dense matrix would take 3.2 GB; the FFT route
        holds a few vectors (and at p = 2 the Lanczos basis, 22 rows, held
        once)."""
        g = HalfLineGrid(x_min=1e-16, ratio=1.08 ** 0.05, n_points=20_000)
        tracemalloc.start()
        try:
            est = sp.hardy_norm(p, 0.0, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est == pytest.approx(math.pi / math.sin(math.pi / p), rel=0.03)
        assert peak <= (12e6 if p == 2.0 else 64e6)


def _counting(matvec):
    """``matvec``, counting its calls in ``.products``."""
    def counted(v):
        counted.products += 1
        return matvec(v)
    counted.products = 0
    return counted


def _largest_magnitude(A):
    ev = np.linalg.eigvalsh(A)
    return ev[np.argmax(np.abs(ev))]


class TestLanczos:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 60, 200])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_symmetric(self, n, seed):
        B = np.random.default_rng(seed).standard_normal((n, n))
        A = B + B.T
        assert sp._lanczos_top(A.__matmul__, n) == pytest.approx(_largest_magnitude(A),
                                                                  rel=1e-12)

    def test_identity_breaks_down_at_the_first_step(self):
        matvec = _counting(np.eye(7).__matmul__)
        assert sp._lanczos_top(matvec, 7) == pytest.approx(1.0, rel=1e-15)
        assert matvec.products == 1

    def test_negative_largest_magnitude(self):
        # a random rotation of diag(-5, 1, 2, 3), so no eigenvector is the start
        Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        A = Q @ np.diag([-5.0, 1.0, 2.0, 3.0]) @ Q.T
        assert sp._lanczos_top(A.__matmul__, 4) == pytest.approx(-5.0, rel=1e-12)

    def test_hardy_matrix_converges_in_few_steps(self, monkeypatch):
        # hardy_norm's own FFT matvec, counted on its way into Lanczos
        lanczos, seen = sp._lanczos_top, []

        def counted(matvec, n):
            seen.append(_counting(matvec))
            return lanczos(seen[-1], n)

        monkeypatch.setattr(sp, "_lanczos_top", counted)
        sp.hardy_norm(2.0, 0.0, TestHardy.GRID)
        assert len(seen) == 1 and 0 < seen[0].products <= 40


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
