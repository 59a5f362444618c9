"""The oblique-derivative Laplacian: the first boundary operator with a
tangential factor.

-Delta with B = D_n + a D_1, a real, satisfies Lopatinskii-Shapiro; its kernel
is e^{-kappa x} / (i kappa + a xi_1) with kappa = sqrt(lambda + |xi'|^2),
Re kappa > 0, and D_n^k of it carries the factor tau^k, tau = i kappa.
"""

import math

import numpy as np
import pytest

from halfpoisson import model as mdl
from halfpoisson import poisson as poi
from halfpoisson import resolvent as res
from halfpoisson.grids import TangentialGrid, UniformHalfGrid
from kernel_table import kernel_table

A_VALUES = [0.5, -1.5]


def oblique_laplacian(n: int, a: float) -> mdl.ModelProblem:
    """-Delta on the n-dimensional half-space with B = D_n + a D_1."""
    base = mdl.dirichlet_laplacian(n)
    e1 = (1,) + (0,) * (n - 1)
    en = (0,) * (n - 1) + (1,)
    return mdl.ModelProblem(
        n=n, m=1, interior_coeffs=base.interior_coeffs,
        boundary_ops=[mdl.BoundaryOperator(order=1, coeffs={en: 1.0, e1: a})],
        phi_prime=base.phi_prime, phi=base.phi, name="oblique_laplacian")


def _mode(n):
    """xi' = 1 (n = 2) or xi' = (1, 2) (n = 3), with its |xi'|^2."""
    xi = np.array([1.0, 2.0][: n - 1])
    return xi, float(xi @ xi)


@pytest.mark.parametrize("a", A_VALUES)
@pytest.mark.parametrize("n", [2, 3])
def test_kernel_closed_form(n, a):
    p = oblique_laplacian(n, a)
    xi, xi_sq = _mode(n)
    x = np.array([0.0, 0.3, 1.1, 2.5])
    for lam in (4.0 + 2.0j, 50.0 * np.exp(0.6j), 0.5 - 3.0j):
        batch = poi.kernel_batch(p, lam, xi[None, :])
        kap = np.sqrt(lam + xi_sq)
        tau = 1j * kap
        for k in range(3):
            want = tau ** k * np.exp(-kap * x) / (1j * kap + a * xi[0])
            got = kernel_table(batch, x, k)[0, 0]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("a", A_VALUES)
@pytest.mark.parametrize("n", [2, 3])
def test_resolvent_boundary_trace(n, a):
    """tr B R(lambda) f vanishes to the resolvent-test bound on the finest
    grid of the resolvent-test refinement (N_z = 512, X = 12)."""
    p = oblique_laplacian(n, a)
    tg = TangentialGrid(n_axes=n - 1, N=8, L=2 * math.pi)
    q = int(np.argmin(np.abs(tg.xi_modes - _mode(n)[0]).sum(axis=1)))
    ug = UniformHalfGrid(X=12.0, N=512)
    f = np.zeros((tg.n_modes, ug.N), dtype=complex)
    f[q] = np.exp(-ug.x)
    lam = 4.0 + 2.0j
    sol = res.halfspace_resolvent(p, lam, f, tg, ug)
    assert sol.rows.tolist() == [q]
    assert np.abs(sol.traces_rows[0, 0]) > 1e-3  # the correction does work
    assert np.abs(res.boundary_trace_fd(p, sol.u, tg, ug)).max() <= 1e-4


@pytest.mark.parametrize("a", A_VALUES)
@pytest.mark.parametrize("n", [2, 3])
def test_lopatinskii_shapiro_passes(n, a):
    p = oblique_laplacian(n, a)
    sample = mdl.SectorSample.default(p.phi, n_moduli=6, n_rays=3)
    rep = mdl.check_lopatinskii_shapiro(p, sample)
    assert rep.passed
    assert rep.min_singular_value > 1e-2
