import math
import re

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
XI = TG.xi_modes


def _time_torus(N_t, T_per):
    """The time torus of N_t nodes and period T_per, and its node times."""
    return TangentialGrid(n_axes=1, N=N_t, L=T_per), T_per / N_t * np.arange(N_t)


class TestTimeGrid:
    """The time torus is a one-axis TangentialGrid; sigma is an argument of
    the solve."""

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            TangentialGrid(1, 12, 1.0)

    def test_positive_parameters_required(self):
        tgt, _ = _time_torus(8, 1.0)
        g = np.zeros((1, 8, TG.n_modes), dtype=complex)
        for sigma in (0.0, -1.0):
            with pytest.raises(ValueError, match="sigma"):
                pb.parabolic_boundary_solve(hp.dirichlet_laplacian(), g, sigma, tgt, XI,
                                            np.array([0.0]))

    def test_frequencies(self):
        tgt = TangentialGrid(n_axes=1, N=8, L=2 * math.pi)
        assert tgt.xi_axis[1] == 1.0
        assert tgt.xi_axis[-1] == -1.0


class TestTimeExtension:
    def test_shape_and_identity_on_first_quarter(self):
        N_t = 16
        g = np.cos(np.linspace(0, 1, N_t + 1)) + 0j
        out = pb.extend_time_data(g)
        assert out.shape == (4 * N_t,)
        assert np.allclose(out[: N_t + 1], g)

    def test_zero_middle_segment(self):
        N_t = 16
        g = np.ones(N_t + 1, dtype=complex)
        out = pb.extend_time_data(g)
        assert np.allclose(out[2 * N_t + 1: 3 * N_t + 1], 0.0)

    def test_wrap_matches_start(self):
        """The extension returns to g(0) at the torus wrap 4T == 0."""
        N_t = 32
        g = (2.0 + np.sin(np.linspace(0, 3, N_t + 1))) + 0j
        out = pb.extend_time_data(g)
        # last pre-wrap node approaches g(0) as the taper closes
        assert abs(out[-1] - g[0]) < abs(g[0]) * 0.2
        # spectral smoothness: Fourier coefficients decay
        chat = np.fft.fft(out) / len(out)
        tail = np.abs(chat[len(out) // 2 - 4: len(out) // 2 + 4]).max()
        assert tail < 1e-2 * np.abs(chat).max()

    def test_wrong_node_count_rejected(self):
        """The extension reads N_t off the node count.  ibvp_solve rejects
        data whose node count is not N_t + 1 for a power of two N_t, and data
        that are not (m, N_t + 1, modes)."""
        p = hp.clamped_bilaplacian()
        ug = UniformHalfGrid(X=30.0, N=256)
        u0 = np.zeros((TG.n_modes, ug.N), dtype=complex)
        for shape in [(2, 10, TG.n_modes), (2, 1, TG.n_modes), (1, 9, TG.n_modes),
                      (2, 9, TG.n_modes + 1), (2, 9 * TG.n_modes), (9, 2, TG.n_modes)]:
            with pytest.raises(ValueError):
                pb.ibvp_solve(p, u0, np.zeros(shape), 0.5, XI, ug, [0.25])

    def test_trailing_dimensions_preserved(self):
        N_t = 8
        g = np.ones((N_t + 1, 3, 2), dtype=complex)
        out = pb.extend_time_data(g)
        assert out.shape == (4 * N_t, 3, 2)


class TestBoundarySolve:
    def test_single_mode_closed_form(self):
        """One space-time mode: solution is the elliptic kernel at
        lambda = sigma + i tau, carried by the same temporal phase."""
        p = hp.dirichlet_laplacian()
        tgt, times = _time_torus(16, 2 * math.pi)
        x_nodes = np.linspace(0.0, 4.0, 17)
        q0 = TG.mode_index(1.0)
        tau0 = tgt.xi_axis[2]
        g = [np.zeros((tgt.N, TG.n_modes), dtype=complex)]
        g[0][:, q0] = np.exp(1j * tau0 * times)
        sol = pb.parabolic_boundary_solve(p, g, 1.0, tgt, XI, x_nodes)
        batch = poi.kernel_batch(p, 1.0 + 1j * tau0, TG.xi_modes)
        kern = kernel_table(batch, x_nodes, 0)[0, q0]
        oracle = np.exp(1j * tau0 * times)[:, None] * kern[None, :]
        assert np.abs(sol.values[:, q0, :] - oracle).max() < 1e-12

    def test_at_time_interpolates_samples(self):
        p = hp.dirichlet_laplacian()
        tgt, times = _time_torus(8, 1.0)
        g = [np.zeros((tgt.N, TG.n_modes), dtype=complex)]
        g[0][:, TG.mode_index(1.0)] = np.sin(2 * math.pi * times)
        sol = pb.parabolic_boundary_solve(p, g, 1.0, tgt, XI, np.array([0.0, 1.0]))
        for i in (0, 3, 5):
            assert np.allclose(sol.at_time(times[i]), sol.values[i],
                               atol=1e-10)

    def test_wrong_operator_count_rejected(self):
        p = hp.clamped_bilaplacian()
        tgt, _ = _time_torus(8, 1.0)
        g = [np.zeros((8, TG.n_modes), dtype=complex)]   # needs two
        with pytest.raises(ValueError):
            pb.parabolic_boundary_solve(p, g, 1.0, tgt, XI, np.array([0.0]))


def _switch_on(p, q0, N_t):
    """g_0 = sin^2(pi/2 t/T) on the mode q0 and g_j = 0 for j > 0, at the
    N_t + 1 data times T k / N_t."""
    g = np.zeros((p.m, N_t + 1, TG.n_modes), dtype=complex)
    g[0, :, q0] = np.sin(math.pi * np.arange(N_t + 1) / N_t / 2.0) ** 2
    return g


class TestIbvp:
    @pytest.mark.parametrize("out_times", [[1.5], [0.0], [0.5, -0.25], [0.5, math.nan]])
    def test_output_times_validated(self, out_times):
        """The solver names the key it checks, as the CLI's config reads it;
        nan, which fails every comparison, is rejected too."""
        p = hp.dirichlet_laplacian()
        ug = UniformHalfGrid(X=30.0, N=256)
        u0 = np.zeros((TG.n_modes, ug.N), dtype=complex)
        want = f"'out_times' must lie in (0, T] = (0, 1.0], got {out_times}"
        with pytest.raises(ValueError, match=re.escape(want)):
            pb.ibvp_solve(p, u0, np.zeros((1, 9, TG.n_modes)), 1.0, XI, ug, out_times)

    def test_pure_initial_value_images_oracle(self):
        """g = 0: the IBVP reduces to the semigroup; compare with the
        odd-reflection heat kernel."""
        p = hp.dirichlet_laplacian()
        ug = UniformHalfGrid(X=30.0, N=1024)
        q = TG.mode_index(1.0)
        u0 = np.zeros((TG.n_modes, ug.N), dtype=complex)
        u0[q] = (ug.x ** 2) * np.exp(-ug.x)
        T, t = 0.5, 0.25
        sol = pb.ibvp_solve(p, u0, np.zeros((1, 9, TG.n_modes)), T, XI, ug, [t])
        y = np.linspace(0.0, 60.0, 24001)
        w0 = (y ** 2) * np.exp(-y)

        def G(z):
            return np.exp(-z ** 2 / (4 * t)) / math.sqrt(4 * math.pi * t)

        oracle = np.array([
            trapezoid((G(x - y) - G(x + y)) * w0, y) for x in ug.x
        ]) * math.exp(-t)
        err = np.abs(sol.values[0, q] - oracle).max() / np.abs(oracle).max()
        assert err < 1e-3

    @pytest.mark.parametrize("factory", [hp.dirichlet_laplacian,
                                         hp.clamped_bilaplacian])
    def test_zero_data_equal_the_splitting_with_the_whole_line_solve(self, factory):
        """g = 0: the values are those of the splitting with the whole-line
        solve of zero data taken, bit for bit: every coefficient vanishes,
        so ``KernelBatch.eval`` evaluates no row and v1 is exactly zero."""
        p = factory()
        ug = UniformHalfGrid(X=30.0, N=1024)
        q = TG.mode_index(1.0)
        u0 = np.zeros((TG.n_modes, ug.N), dtype=complex)
        u0[q] = ug.x ** 2 * np.exp(-ug.x)
        N_t, T, t = 16, 0.5, 0.3
        sol = pb.ibvp_solve(p, u0, np.zeros((p.m, N_t + 1, TG.n_modes)), T, XI, ug, [t])
        v1 = pb.parabolic_boundary_solve(
            p, np.zeros((p.m, 4 * N_t, TG.n_modes)), pb._SHIFT,
            TangentialGrid(n_axes=1, N=4 * N_t, L=4.0 * T), XI, ug.x)
        v2 = math.exp(-pb._SHIFT * t) * res.semigroup_apply(p, u0 - v1.at_time(0.0), t,
                                                            XI, ug)
        ref = math.exp(pb._SHIFT * t) * (v2 + v1.at_time(t))
        assert np.array_equal(sol.values[0], ref)

    def test_boundary_data_reproduced(self):
        p = hp.dirichlet_laplacian()
        ug = UniformHalfGrid(X=30.0, N=512)
        q0 = TG.mode_index(1.0)
        T = 0.5
        u0 = np.zeros((TG.n_modes, ug.N), dtype=complex)
        out_times = [T / 2, T]
        sol = pb.ibvp_solve(p, u0, _switch_on(p, q0, 16), T, XI, ug, out_times)
        traces = res.boundary_trace_fd(p, sol.values, XI, ug)
        assert traces.shape == (1, 2, TG.n_modes)
        for tr, t in zip(traces[0], out_times):
            target = np.zeros(TG.n_modes)
            target[q0] = math.sin(math.pi * t / T / 2.0) ** 2
            dev = np.abs(tr - target).max() / np.abs(target).max()
            assert dev < 1e-3

    @pytest.mark.parametrize("factory", [hp.dirichlet_laplacian,
                                         hp.clamped_bilaplacian])
    def test_shift_does_not_change_the_solution(self, factory, monkeypatch):
        """u = e^{sigma t} v for any sigma > 0.  sigma enters through the
        splitting alone (the semigroup contour keeps its own fixed shift), and
        the solution must not depend on it."""
        p = factory()
        ug = UniformHalfGrid(X=30.0, N=512)
        q0 = TG.mode_index(1.0)
        T = 0.5
        g = _switch_on(p, q0, 16)
        # compatible with g(0) = 0 for both problems: u0 and u0' vanish at 0
        u0 = np.zeros((TG.n_modes, ug.N), dtype=complex)
        u0[q0] = ug.x ** 2 * np.exp(-ug.x)
        sols = {}
        for sigma in (0.5, 1.0, 2.0):
            monkeypatch.setattr(pb, "_SHIFT", sigma)
            sols[sigma] = pb.ibvp_solve(p, u0, g, T, XI, ug, [T / 2, T]).values
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
        g = np.zeros((1, 9, TG.n_modes))
        sol = pb.ibvp_solve(p, u0, g, 0.5, XI, ug, [0.25])
        assert sol.compatibility_defect > 0.5
