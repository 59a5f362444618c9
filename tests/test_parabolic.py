import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

import halfpoisson as hp
from halfpoisson import parabolic as pb
from halfpoisson import poisson as poi
from halfpoisson import resolvent as res
from halfpoisson.grids import TangentialGrid, UniformHalfGrid
from kernel_table import kernel_table

TG = TangentialGrid(n_axes=1, N=8, L=2 * math.pi)


class TestTimeGrid:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            pb.TimeGrid(N_t=12, T_per=1.0, sigma=1.0)

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            pb.TimeGrid(N_t=8, T_per=1.0, sigma=0.0)

    def test_frequencies(self):
        tg = pb.TimeGrid(N_t=8, T_per=2 * math.pi, sigma=1.0)
        assert tg.dt == pytest.approx(math.pi / 4)
        assert tg.taus[1] == pytest.approx(1.0)
        assert tg.taus[-1] == pytest.approx(-1.0)


class TestTimeExtension:
    def test_shape_and_identity_on_first_quarter(self):
        N_t = 16
        g = np.cos(np.linspace(0, 1, N_t + 1)) + 0j
        out = pb.extend_time_data(g, 1.0, N_t)
        assert out.shape == (4 * N_t,)
        assert np.allclose(out[: N_t + 1], g)

    def test_zero_middle_segment(self):
        N_t = 16
        g = np.ones(N_t + 1, dtype=complex)
        out = pb.extend_time_data(g, 1.0, N_t)
        assert np.allclose(out[2 * N_t + 1: 3 * N_t + 1], 0.0)

    def test_wrap_matches_start(self):
        """The extension returns to g(0) at the torus wrap 4T == 0."""
        N_t = 32
        g = (2.0 + np.sin(np.linspace(0, 3, N_t + 1))) + 0j
        out = pb.extend_time_data(g, 1.0, N_t)
        # last pre-wrap node approaches g(0) as the taper closes
        assert abs(out[-1] - g[0]) < abs(g[0]) * 0.2
        # spectral smoothness: Fourier coefficients decay
        chat = np.fft.fft(out) / len(out)
        tail = np.abs(chat[len(out) // 2 - 4: len(out) // 2 + 4]).max()
        assert tail < 1e-2 * np.abs(chat).max()

    def test_wrong_node_count_rejected(self):
        with pytest.raises(ValueError):
            pb.extend_time_data(np.ones(10), 1.0, 16)

    def test_trailing_dimensions_preserved(self):
        N_t = 8
        g = np.ones((N_t + 1, 3, 2), dtype=complex)
        out = pb.extend_time_data(g, 1.0, N_t)
        assert out.shape == (4 * N_t, 3, 2)


class TestBoundarySolve:
    def test_single_mode_closed_form(self):
        """One space-time mode: solution is the elliptic kernel at
        lambda = sigma + i tau, carried by the same temporal phase."""
        p = hp.dirichlet_laplacian()
        tgt = pb.TimeGrid(N_t=16, T_per=2 * math.pi, sigma=1.0)
        x_nodes = np.linspace(0.0, 4.0, 17)
        q0 = TG.mode_index(1.0)
        tau0 = tgt.taus[2]
        g = [np.zeros((tgt.N_t, TG.n_modes), dtype=complex)]
        g[0][:, q0] = np.exp(1j * tau0 * tgt.times)
        sol = pb.parabolic_boundary_solve(p, g, tgt, TG, x_nodes)
        batch = poi.kernel_batch(p, tgt.sigma + 1j * tau0, TG.xi_modes)
        kern = kernel_table(batch, x_nodes, 0)[0, q0]
        oracle = np.exp(1j * tau0 * tgt.times)[:, None] * kern[None, :]
        assert np.abs(sol.values[:, q0, :] - oracle).max() < 1e-12

    def test_at_time_interpolates_samples(self):
        p = hp.dirichlet_laplacian()
        tgt = pb.TimeGrid(N_t=8, T_per=1.0, sigma=1.0)
        g = [np.zeros((tgt.N_t, TG.n_modes), dtype=complex)]
        g[0][:, TG.mode_index(1.0)] = np.sin(2 * math.pi * tgt.times)
        sol = pb.parabolic_boundary_solve(p, g, tgt, TG, np.array([0.0, 1.0]))
        for i in (0, 3, 5):
            assert np.allclose(sol.at_time(tgt.times[i]), sol.values[i],
                               atol=1e-10)

    def test_wrong_operator_count_rejected(self):
        p = hp.clamped_bilaplacian()
        tgt = pb.TimeGrid(N_t=8, T_per=1.0, sigma=1.0)
        g = [np.zeros((8, TG.n_modes), dtype=complex)]   # needs two
        with pytest.raises(ValueError):
            pb.parabolic_boundary_solve(p, g, tgt, TG, np.array([0.0]))


class TestIbvp:
    def test_output_times_validated(self):
        p = hp.dirichlet_laplacian()
        ug = UniformHalfGrid(X=30.0, N=256)
        u0 = np.zeros((TG.n_modes, ug.N), dtype=complex)
        with pytest.raises(ValueError):
            pb.ibvp_solve(p, u0, None, 1.0, 1.0, TG, ug, [1.5])

    def test_pure_initial_value_images_oracle(self):
        """g = 0: the IBVP reduces to the semigroup; compare with the
        odd-reflection heat kernel."""
        p = hp.dirichlet_laplacian()
        ug = UniformHalfGrid(X=30.0, N=1024)
        q = TG.mode_index(1.0)
        u0 = np.zeros((TG.n_modes, ug.N), dtype=complex)
        u0[q] = (ug.x ** 2) * np.exp(-ug.x)
        T, t = 0.5, 0.25
        sol = pb.ibvp_solve(p, u0, None, T, 1.0, TG, ug, [t], N_t=8)
        y = np.linspace(0.0, 60.0, 24001)
        w0 = (y ** 2) * np.exp(-y)

        def G(z):
            return np.exp(-z ** 2 / (4 * t)) / math.sqrt(4 * math.pi * t)

        oracle = np.array([
            trapezoid((G(x - y) - G(x + y)) * w0, y) for x in ug.x
        ]) * math.exp(-t)
        err = np.abs(sol.values[0, q] - oracle).max() / np.abs(oracle).max()
        assert err < 1e-3

    def test_boundary_data_reproduced(self):
        p = hp.dirichlet_laplacian()
        ug = UniformHalfGrid(X=30.0, N=512)
        q0 = TG.mode_index(1.0)
        T = 0.5

        def g0(t):
            out = np.zeros(TG.n_modes, dtype=complex)
            out[q0] = math.sin(math.pi * min(t / T, 1.0) / 2.0) ** 2
            return out

        u0 = np.zeros((TG.n_modes, ug.N), dtype=complex)
        sol = pb.ibvp_solve(p, u0, [g0], T, 1.0, TG, ug, [T / 2, T],
                            N_t=16)
        for it, t in enumerate(sol.times):
            tr = res.boundary_trace_fd(p, sol.values[it], TG, ug, 0)
            target = g0(t)
            dev = np.abs(tr - target).max() / np.abs(target).max()
            assert dev < 1e-3

    @pytest.mark.parametrize("factory", [hp.dirichlet_laplacian,
                                         hp.clamped_bilaplacian])
    def test_shift_does_not_change_the_solution(self, factory):
        """u = e^{sigma t} v for any sigma > 0.  sigma enters through the
        splitting alone (the semigroup contour keeps its own fixed shift), and
        the solution must not depend on it."""
        p = factory()
        ug = UniformHalfGrid(X=30.0, N=512)
        q0 = TG.mode_index(1.0)
        T = 0.5

        def g0(t):
            out = np.zeros(TG.n_modes, dtype=complex)
            out[q0] = math.sin(math.pi * min(t / T, 1.0) / 2.0) ** 2
            return out

        g = [g0] + [lambda t: np.zeros(TG.n_modes, dtype=complex)] * (p.m - 1)
        # compatible with g(0) = 0 for both problems: u0 and u0' vanish at 0
        u0 = np.zeros((TG.n_modes, ug.N), dtype=complex)
        u0[q0] = ug.x ** 2 * np.exp(-ug.x)
        sols = {sigma: pb.ibvp_solve(p, u0, g, T, sigma, TG, ug,
                                     [T / 2, T], N_t=16).values
                for sigma in (0.5, 1.0, 2.0)}
        ref = np.linalg.norm(sols[1.0])
        for sigma in (0.5, 2.0):
            assert np.linalg.norm(sols[sigma] - sols[1.0]) / ref < 1e-2

    def test_compatibility_defect_reported(self):
        """Incompatible data (u0 trace != g(0)) is reported, not hidden."""
        p = hp.dirichlet_laplacian()
        ug = UniformHalfGrid(X=30.0, N=512)
        q0 = TG.mode_index(1.0)
        u0 = np.zeros((TG.n_modes, ug.N), dtype=complex)
        u0[q0] = np.exp(-ug.x)     # trace 1 at the boundary

        def g0(t):
            return np.zeros(TG.n_modes, dtype=complex)

        sol = pb.ibvp_solve(p, u0, [g0], 0.5, 1.0, TG, ug, [0.25], N_t=8)
        assert sol.compatibility_defect > 0.5
