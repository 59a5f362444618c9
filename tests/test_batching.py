"""Batching over lambda and over the modes that carry data.

A batch must give the same bits as the calls it replaces, its checks must
still see the modes without data, and the contour and the parabolic solver
must not fall back to one kernel batch per lambda.
"""

import cmath
import math

import numpy as np
import pytest

import halfpoisson as hp
from halfpoisson import parabolic as pb
from halfpoisson import poisson as poi
from halfpoisson import resolvent as res
from halfpoisson.grids import TangentialGrid, UniformHalfGrid
from kernel_table import kernel_table
from test_oblique import oblique_laplacian

LAMS = np.array([4.0 + 2.0j, 50.0 * np.exp(0.6j), 0.5 - 3.0j, 1.0 + 0.0j,
                 1e3 * np.exp(-1.2j)])

PROBLEMS = {
    "dirichlet": hp.dirichlet_laplacian,
    "neumann": hp.neumann_laplacian,
    "clamped": hp.clamped_bilaplacian,
    "oblique_n3": lambda: oblique_laplacian(3, 0.5),
}


def _grids(p):
    return (TangentialGrid(n_axes=p.n - 1, N=8, L=2 * math.pi),
            UniformHalfGrid(X=12.0, N=128))


def _ls_violating_laplacian():
    """-Delta with B = D_n - 2i D_1: LS fails on lambda = 3 xi_1^2."""
    base = hp.dirichlet_laplacian()
    return hp.ModelProblem(
        n=2, m=1, interior_coeffs=base.interior_coeffs,
        boundary_ops=[hp.BoundaryOperator(1, {(0, 1): 1.0, (1, 0): -2j})],
        phi_prime=base.phi_prime, phi=base.phi)


@pytest.mark.parametrize("name", PROBLEMS)
def test_per_row_lambda_batch_equals_scalar_batches(name):
    p = PROBLEMS[name]()
    tg, _ = _grids(p)
    M = tg.n_modes
    x = np.array([0.0, 0.3, 1.1, 2.5])
    batch = poi.kernel_batch(p, np.repeat(LAMS, M), np.tile(tg.xi_modes, (len(LAMS), 1)))
    singles = [poi.kernel_batch(p, lam, tg.xi_modes) for lam in LAMS]
    assert np.array_equal(batch.taus, np.concatenate([b.taus for b in singles]))
    assert np.array_equal(batch.coeff, np.concatenate([b.coeff for b in singles], axis=1))
    for k in (0, 1):
        full = kernel_table(batch, x, k)
        assert np.array_equal(full, np.concatenate([kernel_table(b, x, k) for b in singles],
                                                   axis=1))
        rows = np.array([3, M + 1, 4 * M + 6])
        assert np.array_equal(kernel_table(batch, x, k, rows), full[:, rows])


@pytest.mark.parametrize("name", PROBLEMS)
def test_vector_lambda_resolvent_equals_scalar_calls(name):
    """A datum with several active rows; the other rows stay exactly zero."""
    p = PROBLEMS[name]()
    tg, ug = _grids(p)
    f = np.zeros((tg.n_modes, ug.N), dtype=complex)
    active = [1, 4, 6]
    for i, q in enumerate(active):
        f[q] = (1.0 + 0.5j * i) * ug.x ** i * np.exp(-(1.0 + 0.2 * i) * ug.x)
    sol = res.halfspace_resolvent(p, LAMS, f, tg, ug)
    assert sol.rows.tolist() == active
    singles = [res.halfspace_resolvent(p, lam, f, tg, ug) for lam in LAMS]
    assert sol.u.shape == (len(LAMS), tg.n_modes, ug.N)
    assert np.array_equal(sol.u, np.stack([s.u for s in singles]))
    inactive = np.setdiff1d(np.arange(tg.n_modes), active)
    assert not np.any(sol.u[:, inactive])


def _semigroup_per_node(p, u0, t, tg, ug):
    """Reference: the contour as one scalar resolvent solve per node."""
    mu = 0.25 * res._N_C / t
    ch = (1.0 + res._TAIL / (mu * t)) / math.sin(res._ALPHA)
    thetas = np.linspace(math.acosh(ch), -math.acosh(ch), res._N_C)
    acc = np.zeros_like(u0)
    for th in thetas:
        z = mu * (1.0 - cmath.sin(res._ALPHA + 1j * th))
        dz = -1j * mu * cmath.cos(res._ALPHA + 1j * th)
        acc += (cmath.exp(z * t) * dz) * res.halfspace_resolvent(
            p, z + res._SIGMA, u0, tg, ug).u
    return math.exp(res._SIGMA * t) * ((thetas[1] - thetas[0]) / (2.0j * math.pi)) * acc


@pytest.mark.parametrize("name", PROBLEMS)
def test_semigroup_equals_one_solve_per_node(name):
    p = PROBLEMS[name]()
    tg, ug = _grids(p)
    u0 = np.zeros((tg.n_modes, ug.N), dtype=complex)
    u0[1] = ug.x ** 2 * np.exp(-ug.x)
    u0[5] = (0.5 - 1.0j) * ug.x ** 3 * np.exp(-2.0 * ug.x)
    assert np.array_equal(res.semigroup_apply(p, u0, 0.15, tg, ug),
                          _semigroup_per_node(p, u0, 0.15, tg, ug))


def _parabolic_per_frequency(p, g, tgt, tg, x):
    """Reference: one kernel batch per temporal frequency with data."""
    ghat = np.stack([np.fft.fft(gj, axis=0) / tgt.N_t for gj in g])
    out = np.zeros((tgt.N_t, tg.n_modes, len(x)), dtype=complex)
    for k, tau in enumerate(tgt.taus):
        if np.any(ghat[:, k]):
            batch = poi.kernel_batch(p, tgt.sigma + 1j * tau, tg.xi_modes)
            out[k] = batch.eval(x, ghat[:, k])
    return out


@pytest.mark.parametrize("name", PROBLEMS)
def test_parabolic_equals_one_batch_per_frequency(name):
    p = PROBLEMS[name]()
    tg, _ = _grids(p)
    tgt = pb.TimeGrid(N_t=16, T_per=2 * math.pi, sigma=1.0)
    x = np.linspace(0.0, 4.0, 9)
    g = []
    for j in range(p.m):
        gj = np.zeros((tgt.N_t, tg.n_modes), dtype=complex)
        gj[:, 2 + j] = np.exp(1j * tgt.taus[1 + j] * tgt.times)
        gj[:, 6] = np.cos(tgt.times) ** (2 + j)
        g.append(gj)
    sol = pb.parabolic_boundary_solve(p, g, tgt, tg, x)
    assert np.array_equal(sol.freq_data, _parabolic_per_frequency(p, g, tgt, tg, x))


def test_ls_failure_on_a_mode_without_data_still_raises():
    # the data sit on xi' = 2; LS fails only at xi' = 1 (lambda = 3 xi_1^2)
    p = _ls_violating_laplacian()
    tg, ug = _grids(p)
    f = np.zeros((tg.n_modes, ug.N), dtype=complex)
    f[tg.mode_index(2.0)] = np.exp(-ug.x)
    with pytest.raises(hp.LopatinskiiError):
        res.halfspace_resolvent(p, 3.0, f, tg, ug)


def test_ill_conditioned_multiplier_on_a_mode_without_data_still_raises():
    # lambda = -1 meets A = -(xi'^2 + xi_n^2) at xi' = +-1, xi_n = 0 only
    p = hp.dirichlet_laplacian()
    tg, ug = _grids(p)
    f = np.zeros((tg.n_modes, ug.N), dtype=complex)
    f[tg.mode_index(2.0)] = np.exp(-ug.x)
    with pytest.raises(ValueError, match="ill conditioned"):
        res.halfspace_resolvent(p, -1.0, f, tg, ug)


def test_multiplier_check_agrees_with_the_full_test():
    """The sorted pre-screen raises exactly where the test on every entry
    does: lambdas on, next to and away from symbol values of every row."""
    p = hp.clamped_bilaplacian()
    tg, ug = _grids(p)
    symbol = p.interior_symbol(tg.xi_modes, ug.xi_normal)
    weight = (1.0 + tg.xi_sq[:, None] + ug.xi_normal ** 2) ** p.m
    f = np.ones((1, ug.N * 2), dtype=complex)
    rng = np.random.default_rng(5)
    picks = symbol.reshape(-1)[rng.choice(symbol.size, 40)]
    lams = np.concatenate([picks, picks * (1 + 1e-15), picks * (1 + 1e-12),
                           picks + 1e-3j, 4.0 + 2.0j + rng.standard_normal(20)])
    outcomes = set()
    for lam in lams:
        full = np.any(np.abs(lam - symbol) < 1e-14 * (abs(lam) + weight))
        outcomes.add(bool(full))
        try:
            res.whole_space_resolvent(p, lam, f, tg, ug.xi_normal, [3])
        except ValueError:
            assert full, lam
        else:
            assert not full, lam
    assert outcomes == {True, False}
    with pytest.raises(ValueError, match="ill conditioned"):
        res.whole_space_resolvent(p, np.array([4.0 + 2.0j, picks[0]]), f, tg,
                                  ug.xi_normal, [3])


def test_semigroup_of_zero_data_is_exactly_zero():
    p = hp.clamped_bilaplacian()
    tg, ug = _grids(p)
    u0 = np.zeros((tg.n_modes, ug.N), dtype=complex)
    out = res.semigroup_apply(p, u0, 0.1, tg, ug)
    assert out.shape == u0.shape
    assert not np.any(out)


def _count_calls(monkeypatch, module):
    calls = []
    real = module.kernel_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "kernel_batch", counted)
    return calls


def test_one_kernel_batch_per_semigroup_apply(monkeypatch):
    p = hp.clamped_bilaplacian()
    tg, ug = _grids(p)
    u0 = np.zeros((tg.n_modes, ug.N), dtype=complex)
    u0[tg.mode_index(1.0)] = ug.x ** 2 * np.exp(-ug.x)
    calls = _count_calls(monkeypatch, res)
    res.semigroup_apply(p, u0, 0.1, tg, ug)
    assert len(calls) == 1


def test_one_kernel_batch_per_parabolic_boundary_solve(monkeypatch):
    p = hp.clamped_bilaplacian()
    tg, _ = _grids(p)
    tgt = pb.TimeGrid(N_t=16, T_per=2 * math.pi, sigma=1.0)
    g0 = np.zeros((tgt.N_t, tg.n_modes), dtype=complex)
    g0[:, tg.mode_index(1.0)] = np.exp(1j * tgt.taus[1] * tgt.times)
    g = [g0, np.zeros_like(g0)]
    calls = _count_calls(monkeypatch, pb)
    pb.parabolic_boundary_solve(p, g, tgt, tg, np.linspace(0.0, 4.0, 9))
    assert len(calls) == 1
