import cmath
import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

import halfpoisson as hp
from halfpoisson import resolvent as res
from halfpoisson.grids import TangentialGrid, UniformHalfGrid

TG = TangentialGrid(n_axes=1, N=8, L=2 * math.pi)


def _grid_and_mode(n):
    """Tangential grid of the n-dimensional half-space and the flat index of
    the mode xi' = 1 (n = 2) or xi' = (1, 2) (n = 3), with its |xi'|^2."""
    tg = TangentialGrid(n_axes=n - 1, N=8, L=2 * math.pi)
    q = int(np.argmin(np.abs(tg.xi_modes - [1.0, 2.0][: n - 1]).sum(axis=1)))
    return tg, q, float(tg.xi_modes[q] @ tg.xi_modes[q])


class TestExtensionOperator:
    def test_coefficients_frozen_k4(self):
        # [DERIVED] Vandermonde solution for K = 4 with dilations 1..4
        ext = res.ExtensionOperator(K=4)
        assert np.array_equal(ext.coefficients, [10.0, -20.0, 15.0, -4.0])

    def test_coefficients_satisfy_matching(self):
        ext = res.ExtensionOperator(K=6)
        ks = np.arange(1, 7, dtype=float)
        for l in range(6):
            assert np.sum(ext.coefficients * (-ks) ** l) == pytest.approx(1.0)

    def test_reflection_reproduces_a_quartic(self):
        """K = 5 matches derivatives up to order 4, so the reflection of a
        quartic is the quartic itself wherever the cutoff is 1 and every
        dilated node k i stays on the grid (i < N/5)."""
        ug = UniformHalfGrid(X=10.0, N=1024)
        quartic = lambda x: (1.0 - 0.3 * x) ** 4
        full = res.seeley_extend(quartic(ug.x), res.ExtensionOperator(K=5), ug)
        i = np.arange(1, ug.N // 5)
        # torus index 2N - i holds x = -h i
        assert np.abs(full[2 * ug.N - i] - quartic(-ug.h * i)).max() < 1e-12

    def test_for_problem_orders(self):
        assert res.ExtensionOperator.for_problem(hp.dirichlet_laplacian()).K == 4
        # bi-Laplacian: k_max 0, order 4 -> K = 5
        assert res.ExtensionOperator.for_problem(hp.clamped_bilaplacian()).K == 5

    def test_cutoff_plateau_and_decay(self):
        x = np.array([0.0, 2.0, 10.0])
        c = res.ExtensionOperator.cutoff(x, 10.0)
        assert c[0] == 1.0 and c[1] == 1.0 and c[2] == 0.0

    def test_extension_derivative_matching(self):
        """The extension matches value and first derivatives across 0."""
        ug = UniformHalfGrid(X=10.0, N=1024)
        prof = np.exp(-ug.x) * np.cos(ug.x)
        ext = res.ExtensionOperator(K=4)
        full = res.seeley_extend(prof, ext, ug)
        # values just left of zero (torus index 2N-1 is x = -h)
        left = full[-1]
        right = prof[1]
        center = prof[0]
        # symmetric second difference should be O(h^2), i.e. the extension
        # is differentiable at 0: (left - 2 center + right)/h^2 bounded
        d2 = abs(left - 2 * center + right) / ug.h ** 2
        assert d2 < 10.0
        # first derivative from both sides agrees
        dr = (right - center) / ug.h
        dl = (center - left) / ug.h
        assert abs(dr - dl) < 0.05


class TestWholeSpaceResolvent:
    def test_single_mode_closed_form(self):
        # [TRIVIAL] diagonal multiplier: u_hat = f_hat / (lambda - A(xi))
        p = hp.dirichlet_laplacian()
        xi_n = np.array([0.0, 1.0, -2.0])
        f = np.zeros((TG.n_modes, 3), dtype=complex)
        q = TG.mode_index(1.0)
        f[q] = 1.0
        lam = 4.0 + 2.0j
        W = res.whole_space_resolvent(p, lam, f, TG, xi_n, np.arange(TG.n_modes))
        expected = 1.0 / (lam + 1.0 + xi_n ** 2)
        assert np.allclose(W[q], expected)

    def test_ill_conditioned_multiplier_rejected(self):
        p = hp.dirichlet_laplacian()
        xi_n = np.array([0.0, 1.0])
        f = np.ones((TG.n_modes, 2), dtype=complex)
        # lambda = -1 makes lambda - A vanish at xi = (0, 1)
        with pytest.raises(ValueError, match="ill conditioned"):
            res.whole_space_resolvent(p, -1.0 + 0j, f, TG, xi_n, np.arange(TG.n_modes))


class TestHalfSpaceResolvent:
    @pytest.mark.parametrize("n", [2, 3])
    def test_dirichlet_closed_form_oracle(self, n):
        # [DERIVED] -u'' + (lam + xi^2) u = e^{-x}, u(0) = 0:
        # u = (e^{-x} - e^{-kappa x}) / (lam + xi^2 - 1), kappa = sqrt(lam+xi^2)
        p = hp.dirichlet_laplacian(n)
        tg, q, xi_sq = _grid_and_mode(n)
        lam = 4.0 + 2.0j
        ug = UniformHalfGrid(X=30.0, N=2048)
        f = np.zeros((tg.n_modes, ug.N), dtype=complex)
        f[q] = np.exp(-ug.x)
        sol = res.halfspace_resolvent(p, lam, f, tg, ug)
        kap = cmath.sqrt(lam + xi_sq)
        exact = (np.exp(-ug.x) - np.exp(-kap * ug.x)) / (lam + xi_sq - 1.0)
        err = np.abs(sol.u[q] - exact).max() / np.abs(exact).max()
        assert err < 1e-6
        # frozen point check at the node closest to x = 1.3
        i = int(np.argmin(np.abs(ug.x - 1.3)))
        xv = ug.x[i]
        frozen = (cmath.exp(-xv) - cmath.exp(-kap * xv)) / (lam + xi_sq - 1.0)
        assert sol.u[q, i] == pytest.approx(frozen, rel=1e-5)

    def test_datum_off_the_grids_rejected(self):
        """A datum whose mode or node count differs from the grids' raises,
        also where it holds as many values and could be reshaped into the
        wrong modes."""
        p = hp.dirichlet_laplacian()
        ug = UniformHalfGrid(X=12.0, N=128)
        for shape in [(8, 256), (16, 64), (4, 256), (8 * 128,)]:
            with pytest.raises(ValueError, match="8 modes x 128 nodes"):
                res.halfspace_resolvent(p, 4.0 + 2.0j, np.ones(shape), TG, ug)

    def test_boundary_conditions_removed(self):
        p = hp.clamped_bilaplacian()
        ug = UniformHalfGrid(X=30.0, N=1024)
        f = np.zeros((TG.n_modes, ug.N), dtype=complex)
        f[TG.mode_index(1.0)] = np.exp(-ug.x)
        sol = res.halfspace_resolvent(p, 5.0 + 1.0j, f, TG, ug)
        tr = res.boundary_trace_fd(p, sol.u, TG, ug)
        assert tr.shape == (p.m, TG.n_modes)
        assert np.abs(tr).max() < 1e-6

    def test_residual_second_order_convergence(self):
        p = hp.dirichlet_laplacian()
        lam = 4.0 + 2.0j
        residuals = []
        for N in (128, 256, 512):
            ug = UniformHalfGrid(X=12.0, N=N)
            f = np.zeros((TG.n_modes, ug.N), dtype=complex)
            f[TG.mode_index(1.0)] = np.exp(-ug.x)
            sol = res.halfspace_resolvent(p, lam, f, TG, ug)
            residuals.append(res.interior_residual_fd(p, lam, sol.u, f, TG, ug))
        order = math.log2(residuals[0] / residuals[2]) / 2.0
        assert residuals[2] < 1e-4
        assert order >= 2.0


class TestFdInstruments:
    def test_central_second_derivative_weights_frozen(self):
        # [DERIVED] accuracy-4 stencil: [-1/12, 4/3, -5/2, 4/3, -1/12] / h^2
        w = res._fd_weights(np.arange(-2.0, 3.0), 2)
        assert np.allclose(w, [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12])

    def test_fd_derivative_on_polynomial(self):
        ug = UniformHalfGrid(X=4.0, N=64)
        vals = ug.x ** 3
        d2 = res._fd_derivative(vals, ug.h, 2)
        assert np.allclose(d2[2:-2], 6 * ug.x[2:-2], atol=1e-9)
        # the two nodes at either end, where the 5-point stencil does not
        # fit, are NaN
        assert np.isnan(d2[:2]).all() and np.isnan(d2[-2:]).all()

    def test_one_sided_weights_differentiate_exponential(self):
        h = 0.01
        w = res._fd_weights(np.arange(6) * h, 1)
        vals = np.exp(-2.0 * h * np.arange(6))
        assert float(vals @ w) == pytest.approx(-2.0, abs=1e-8)

    def test_boundary_trace_neumann_sign_convention(self):
        # D_n = -i d/dx: trace of D_n e^{-2x} at 0 is 2i
        p = hp.neumann_laplacian()
        ug = UniformHalfGrid(X=10.0, N=1024)
        u = np.zeros((TG.n_modes, ug.N), dtype=complex)
        q = TG.mode_index(0.0)
        u[q] = np.exp(-2.0 * ug.x)
        tr = res.boundary_trace_fd(p, u, TG, ug)[0]
        assert tr[q] == pytest.approx(2.0j, rel=1e-6)


class TestSemigroup:
    def _state(self, ug):
        u0 = np.zeros((TG.n_modes, ug.N), dtype=complex)
        u0[TG.mode_index(1.0)] = (ug.x ** 2) * np.exp(-ug.x)
        return u0

    def test_requires_positive_time(self):
        ug = UniformHalfGrid(X=30.0, N=256)
        with pytest.raises(ValueError):
            res.semigroup_apply(hp.dirichlet_laplacian(), self._state(ug),
                                0.0, TG, ug)

    def test_requires_wide_sector(self):
        base = hp.dirichlet_laplacian()
        narrow = hp.ModelProblem(
            n=2, m=1, interior_coeffs=base.interior_coeffs,
            boundary_ops=base.boundary_ops,
            phi_prime=0.49 * math.pi, phi=0.45 * math.pi)
        ug = UniformHalfGrid(X=30.0, N=256)
        with pytest.raises(ValueError, match="phi"):
            res.semigroup_apply(narrow, self._state(ug), 0.1, TG, ug)

    def test_semigroup_property(self):
        p = hp.dirichlet_laplacian()
        ug = UniformHalfGrid(X=30.0, N=1024)
        u0 = self._state(ug)
        T1 = res.semigroup_apply(p, u0, 0.1, TG, ug)
        T12 = res.semigroup_apply(p, T1, 0.2, TG, ug)
        Ts = res.semigroup_apply(p, u0, 0.3, TG, ug)
        dev = np.linalg.norm(T12 - Ts) / np.linalg.norm(Ts)
        assert dev < 1e-6

    def test_identity_at_small_time(self):
        p = hp.dirichlet_laplacian()
        ug = UniformHalfGrid(X=30.0, N=1024)
        u0 = self._state(ug)
        small = res.semigroup_apply(p, u0, 1e-6, TG, ug)
        assert np.linalg.norm(small - u0) / np.linalg.norm(u0) < 1e-4

    @pytest.mark.parametrize("n", [2, 3])
    def test_images_oracle(self, n):
        """Dirichlet heat semigroup: odd reflection gives the exact kernel."""
        p = hp.dirichlet_laplacian(n)
        tg, q, xi_sq = _grid_and_mode(n)
        ug = UniformHalfGrid(X=30.0, N=1024)
        u0 = np.zeros((tg.n_modes, ug.N), dtype=complex)
        u0[q] = (ug.x ** 2) * np.exp(-ug.x)
        t = 0.1
        got = res.semigroup_apply(p, u0, t, tg, ug)[q]
        y = np.linspace(0.0, 60.0, 24001)
        w0 = (y ** 2) * np.exp(-y)

        def G(z):
            return np.exp(-z ** 2 / (4 * t)) / math.sqrt(4 * math.pi * t)

        oracle = np.array([
            trapezoid((G(x - y) - G(x + y)) * w0, y) for x in ug.x
        ]) * math.exp(-t * xi_sq)   # tangential mode xi' decays e^{-t |xi'|^2}
        err = np.abs(got - oracle).max() / np.abs(oracle).max()
        assert err < 1e-6
