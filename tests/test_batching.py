"""Batching over lambda and over the modes.

A batch must give the same bits as the calls it replaces, its checks must
still see the modes without data, and the contour and the parabolic solver
must not fall back to one kernel batch per lambda.
"""

import math

import numpy as np
import pytest

import halfpoisson as hp
from halfpoisson import cli
from halfpoisson import parabolic as pb
from halfpoisson import poisson as poi
from halfpoisson import resolvent as res
from halfpoisson.grids import TangentialGrid, UniformHalfGrid
from kernel_table import kernel_table
from test_apply import _counted_propagate
from test_oblique import oblique_laplacian

LAMS = np.array([4.0 + 2.0j, 50.0 * np.exp(0.6j), 0.5 - 3.0j, 1.0 + 0.0j,
                 1e3 * np.exp(-1.2j)])

PROBLEMS = {
    "dirichlet": hp.dirichlet_laplacian,
    "neumann": hp.neumann_laplacian,
    "clamped": hp.clamped_bilaplacian,
    "oblique_n3": lambda n=3: oblique_laplacian(n, 0.5),
}


def _grids(p):
    return (TangentialGrid(n_axes=p.n - 1, N=8, L=2 * math.pi),
            UniformHalfGrid(X=12.0, N=128))


# the time torus of 16 nodes and period 2 pi, and its node times
_TIME_TORUS = (TangentialGrid(n_axes=1, N=16, L=2 * math.pi),
               2 * math.pi / 16 * np.arange(16))


def _ls_violating_laplacian():
    """-Delta with B = D_n - 2i D_1: LS fails on lambda = 3 xi_1^2."""
    base = hp.dirichlet_laplacian()
    return hp.ModelProblem(
        n=2, m=1, interior_coeffs=base.interior_coeffs,
        boundary_ops=[hp.BoundaryOperator(1, {(0, 1): 1.0, (1, 0): -2j})],
        phi_prime=base.phi_prime, phi=base.phi)


@pytest.mark.parametrize("name", PROBLEMS)
def test_per_row_lambda_batch_equals_scalar_batches(name):
    """A batch over a lambda list (with a repeat) x the modes, and over the
    same lambda as a 2-D array, gives the bits of one batch per lambda; a
    batch on modes picked with repeats and out of order gives the bits of
    those modes' columns."""
    p = PROBLEMS[name]()
    tg, _ = _grids(p)
    x = np.array([0.0, 0.3, 1.1, 2.5])
    lams = np.append(LAMS, LAMS[1])
    batch = poi.kernel_batch(p, lams, tg.xi_modes)
    assert batch.shape == (len(lams), tg.n_modes)
    singles = [poi.kernel_batch(p, lam, tg.xi_modes) for lam in lams]
    assert np.array_equal(batch.taus, np.concatenate([b.taus for b in singles]))
    assert np.array_equal(batch.coeff, np.concatenate([b.coeff for b in singles], axis=1))
    grid = poi.kernel_batch(p, lams.reshape(3, 2), tg.xi_modes)
    assert grid.shape == (3, 2, tg.n_modes)
    modes = np.array([6, 3, 1, 6])
    picked = poi.kernel_batch(p, lams, tg.xi_modes[modes])
    for k in (0, 1):
        full = kernel_table(batch, x, k)
        assert np.array_equal(full, np.stack([kernel_table(b, x, k) for b in singles],
                                             axis=1))
        assert np.array_equal(kernel_table(grid, x, k),
                              full.reshape(full.shape[:1] + (3, 2) + full.shape[2:]))
        assert np.array_equal(kernel_table(picked, x, k), full[:, :, modes])


@pytest.mark.parametrize("name", PROBLEMS)
def test_vector_lambda_resolvent_equals_scalar_calls(name, monkeypatch):
    """A datum with several rows of data: those rows carry the bits of one
    scalar-lambda call each, and the rows without data come out exactly
    zero without reaching the basis functions."""
    p = PROBLEMS[name]()
    tg, ug = _grids(p)
    f = np.zeros((tg.n_modes, ug.N), dtype=complex)
    active = [1, 4, 6]
    for i, q in enumerate(active):
        f[q] = (1.0 + 0.5j * i) * ug.x ** i * np.exp(-(1.0 + 0.2 * i) * ug.x)
    calls = _counted_propagate(monkeypatch)
    u = res.halfspace_resolvent(p, LAMS, f, tg.xi_modes, ug)
    assert calls == [(len(LAMS) * len(active), ug.N)]
    assert u.shape == (len(LAMS), tg.n_modes, ug.N)
    inactive = np.setdiff1d(np.arange(tg.n_modes), active)
    assert not np.any(u[:, inactive])
    singles = np.stack([res.halfspace_resolvent(p, lam, f, tg.xi_modes, ug)
                        for lam in LAMS])
    assert np.array_equal(u[:, active], singles[:, active])


def _semigroup_per_node(p, u0, t, tg, ug, pairs=False):
    """Reference: the contour as one scalar resolvent solve per node.  With
    ``pairs``, the solves on the N_C / 2 nodes with theta > 0 only, each
    weighted term with its exact conjugate, negated, standing for the term
    of the mirrored node (weight -conj w, solve conj R)."""
    lam, weights, c = res._contour(t)
    nodes = len(lam) // 2 if pairs else len(lam)
    acc = np.zeros_like(u0)
    for lam_k, w_k in zip(lam[:nodes], weights[:nodes]):
        term = w_k * res.halfspace_resolvent(p, lam_k, u0, tg.xi_modes, ug)
        acc += term - term.conj() if pairs else term
    return c * acc


@pytest.mark.parametrize("name", PROBLEMS)
def test_semigroup_equals_one_solve_per_node(name):
    """The contour sum taken on the frequency data and the weighted traces
    equals the sum of per-node solves to rounding (it read at most 2.1e-14
    of the largest entry), and the rows without data stay exactly zero.
    The real row takes the nodes with theta > 0 and their conjugates, the
    complex row all nodes."""
    p = PROBLEMS[name]()
    tg, ug = _grids(p)
    u0 = np.zeros((tg.n_modes, ug.N), dtype=complex)
    u0[1] = ug.x ** 2 * np.exp(-ug.x)
    u0[5] = (0.5 - 1.0j) * ug.x ** 3 * np.exp(-2.0 * ug.x)
    assert res._conjugate_rows(p, tg.xi_modes, u0)[[1, 5]].tolist() == [True, False]
    got = res.semigroup_apply(p, u0, 0.15, tg.xi_modes, ug)
    want = np.stack([_semigroup_per_node(p, u0, 0.15, tg, ug, pairs=True)[1],
                     _semigroup_per_node(p, u0, 0.15, tg, ug)[5]])
    assert np.abs(got[[1, 5]] - want).max() <= 1e-12 * np.abs(want).max()
    assert not np.any(got[np.setdiff1d(np.arange(tg.n_modes), [1, 5])])


@pytest.mark.parametrize("name", PROBLEMS)
def test_weighted_resolvent_equals_the_weighted_sum_of_rows(name):
    """``weights`` returns sum_k w_k R(lambda_k) f: within 1e-13 of the
    largest sum_k |w_k| |R(lambda_k) f| (it read at most 6e-15), for
    weights of one size and of four decades; rows without data stay
    exactly zero."""
    p = PROBLEMS[name]()
    tg, ug = _grids(p)
    f = np.zeros((tg.n_modes, ug.N), dtype=complex)
    active = [1, 4, 6]
    for i, q in enumerate(active):
        f[q] = (1.0 + 0.5j * i) * ug.x ** i * np.exp(-(1.0 + 0.2 * i) * ug.x)
    u = res.halfspace_resolvent(p, LAMS, f, tg.xi_modes, ug)
    inactive = np.setdiff1d(np.arange(tg.n_modes), active)
    for w in (np.array([1.0, -2.0 + 1.0j, 0.3j, 5.0, -0.7]),
              np.exp(1j * np.arange(5)) * 10.0 ** np.arange(-4, 1)):
        got = res.halfspace_resolvent(p, LAMS, f, tg.xi_modes, ug, weights=w)
        assert got.shape == f.shape
        scale = np.einsum("k,kmx->mx", np.abs(w), np.abs(u)).max()
        assert np.abs(got - np.einsum("k,kmx->mx", w, u)).max() <= 1e-13 * scale
        assert not np.any(got[inactive])


def test_weights_of_the_wrong_shape_are_rejected():
    p = hp.dirichlet_laplacian()
    tg, ug = _grids(p)
    f = np.zeros((tg.n_modes, ug.N), dtype=complex)
    for lam, w in ((LAMS, np.ones(len(LAMS) - 1)), (LAMS, np.ones((len(LAMS), 1))),
                   (LAMS[0], np.ones(1))):
        with pytest.raises(ValueError, match="weights have shape"):
            res.halfspace_resolvent(p, lam, f, tg.xi_modes, ug, weights=w)


def test_semigroup_takes_one_inverse_fft_and_one_resolvent_call(monkeypatch):
    """On one row at N_z = 2048 the contour is one weighted resolvent call
    and one inverse FFT, not one inverse FFT per block of nodes (12)."""
    calls = {"ifft": 0, "resolvent": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "ifft", counted("ifft", np.fft.ifft))
    monkeypatch.setattr(res, "halfspace_resolvent",
                        counted("resolvent", res.halfspace_resolvent))
    ug = UniformHalfGrid(X=30.0, N=2048)
    u = res.semigroup_apply(hp.clamped_bilaplacian(), (ug.x ** 2 * np.exp(-ug.x))[None],
                            0.15, np.array([[1.0]]), ug)
    assert u.shape == (1, ug.N)
    assert calls == {"ifft": 1, "resolvent": 1}


def _parabolic_per_frequency(p, g, sigma, tgt, tg, x):
    """Reference: one kernel batch per temporal frequency with data."""
    ghat = np.stack([np.fft.fft(gj, axis=0) / tgt.N for gj in g])
    out = np.zeros((tgt.N, tg.n_modes, len(x)), dtype=complex)
    for k, tau in enumerate(tgt.xi_axis):
        if np.any(ghat[:, k]):
            batch = poi.kernel_batch(p, sigma + 1j * tau, tg.xi_modes)
            out[k] = batch.eval(x, ghat[:, k])
    return out


@pytest.mark.parametrize("name", PROBLEMS)
def test_parabolic_equals_one_batch_per_frequency(name):
    p = PROBLEMS[name]()
    tg, _ = _grids(p)
    tgt, times = _TIME_TORUS
    x = np.linspace(0.0, 4.0, 9)
    g = []
    for j in range(p.m):
        gj = np.zeros((tgt.N, tg.n_modes), dtype=complex)
        gj[:, 2 + j] = np.exp(1j * tgt.xi_axis[1 + j] * times)
        gj[:, 6] = np.cos(times) ** (2 + j)
        g.append(gj)
    sol = pb.parabolic_boundary_solve(p, g, 1.0, tgt, tg.xi_modes, x)
    assert np.array_equal(sol.freq_data, _parabolic_per_frequency(p, g, 1.0, tgt, tg, x))


def test_ls_failure_on_a_mode_without_data_still_raises():
    # the data sit on xi' = 2; LS fails only at xi' = 1 (lambda = 3 xi_1^2)
    p = _ls_violating_laplacian()
    tg, ug = _grids(p)
    f = np.zeros((tg.n_modes, ug.N), dtype=complex)
    f[tg.mode_index(2.0)] = np.exp(-ug.x)
    with pytest.raises(hp.LopatinskiiError):
        res.halfspace_resolvent(p, 3.0, f, tg.xi_modes, ug)


def test_ill_conditioned_multiplier_on_a_mode_without_data_still_raises():
    # lambda = -1 meets A = -(xi'^2 + xi_n^2) at xi' = +-1, xi_n = 0 only
    p = hp.dirichlet_laplacian()
    tg, ug = _grids(p)
    f = np.zeros((tg.n_modes, ug.N), dtype=complex)
    f[tg.mode_index(2.0)] = np.exp(-ug.x)
    with pytest.raises(ValueError, match="ill conditioned"):
        res.halfspace_resolvent(p, -1.0, f, tg.xi_modes, ug)


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
            res.whole_space_resolvent(p, lam, f, tg.xi_modes, ug.xi_normal)
        except ValueError:
            assert full, lam
        else:
            assert not full, lam
    assert outcomes == {True, False}
    with pytest.raises(ValueError, match="ill conditioned"):
        res.whole_space_resolvent(p, np.array([4.0 + 2.0j, picks[0]]), f, tg.xi_modes,
                                  ug.xi_normal)


def test_semigroup_of_zero_data_is_exactly_zero():
    p = hp.clamped_bilaplacian()
    tg, ug = _grids(p)
    u0 = np.zeros((tg.n_modes, ug.N), dtype=complex)
    out = res.semigroup_apply(p, u0, 0.1, tg.xi_modes, ug)
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
    res.semigroup_apply(p, u0, 0.1, tg.xi_modes, ug)
    assert len(calls) == 1


def test_one_kernel_batch_per_parabolic_boundary_solve(monkeypatch):
    p = hp.clamped_bilaplacian()
    tg, _ = _grids(p)
    tgt, times = _TIME_TORUS
    g0 = np.zeros((tgt.N, tg.n_modes), dtype=complex)
    g0[:, tg.mode_index(1.0)] = np.exp(1j * tgt.xi_axis[1] * times)
    g = [g0, np.zeros_like(g0)]
    calls = _count_calls(monkeypatch, pb)
    pb.parabolic_boundary_solve(p, g, 1.0, tgt, tg.xi_modes, np.linspace(0.0, 4.0, 9))
    assert len(calls) == 1


def _torus_and_datum_row(name, n):
    """The problem at dimension n, the N_x = 8 torus, its mode of xi' =
    (0, ..., 0, 1), and that mode as the one-row ``xi_modes`` that the
    one-mode commands pass."""
    p = PROBLEMS[name](n)
    tg = TangentialGrid(n_axes=n - 1, N=8, L=2 * math.pi)
    q = tg.mode_index(1.0)
    one = cli._datum_mode(n)
    assert one.shape == (1, n - 1)
    assert np.array_equal(one, tg.xi_modes[[q]])
    return p, tg, q, one


def _on_mode(tg, q, a, axis):
    """``a`` with its one-mode axis ``axis`` widened to the torus's modes,
    zero off the mode q."""
    shape = list(a.shape)
    shape[axis] = tg.n_modes
    out = np.zeros(shape, dtype=complex)
    np.moveaxis(out, axis, 0)[q] = np.moveaxis(a, axis, 0)[0]
    return out


ONE_ROW_CASES = [(name, n) for name in PROBLEMS if name != "oblique_n3" for n in (2, 3)]
ONE_ROW = pytest.mark.parametrize("name,n", ONE_ROW_CASES)


@ONE_ROW
def test_one_row_resolvent_equals_the_torus_row(name, n):
    p, tg, q, one = _torus_and_datum_row(name, n)
    ug = UniformHalfGrid(X=12.0, N=128)
    row = np.exp(-ug.x)[None] * (1.0 + 0.5j)
    torus = res.halfspace_resolvent(p, LAMS, _on_mode(tg, q, row, 0), tg.xi_modes, ug)
    alone = res.halfspace_resolvent(p, LAMS, row, one, ug)
    assert alone.shape == (len(LAMS), 1, ug.N)
    assert np.array_equal(alone[:, 0], torus[:, q])


@pytest.mark.parametrize("name,n", ONE_ROW_CASES + [("oblique_n3", 3)])
def test_one_row_semigroup_equals_the_torus_row(name, n):
    """Also where the torus splits between the two contour routes: on the
    oblique Laplacian the datum row xi' = (0, 1) takes conjugate pairs,
    the rows with xi_1 != 0 all nodes."""
    p, tg, q, one = _torus_and_datum_row(name, n)
    ug = UniformHalfGrid(X=30.0, N=256)
    row = (ug.x ** 2 * np.exp(-ug.x))[None]
    data = _on_mode(tg, q, row, 0)
    pair = res._conjugate_rows(p, tg.xi_modes, data)
    assert pair[q] and pair.all() == (name != "oblique_n3")
    torus = res.semigroup_apply(p, data, 0.15, tg.xi_modes, ug)
    assert np.array_equal(res.semigroup_apply(p, row, 0.15, one, ug)[0], torus[q])


@ONE_ROW
def test_one_row_parabolic_solve_equals_the_torus_row(name, n):
    p, tg, q, one = _torus_and_datum_row(name, n)
    tgt, times = _TIME_TORUS
    g = np.stack([(j + 1) * np.exp(1j * tgt.xi_axis[1 + j] * times)[:, None]
                  for j in range(p.m)])
    x = np.linspace(0.0, 4.0, 9)
    torus = pb.parabolic_boundary_solve(p, _on_mode(tg, q, g, -1), 1.0, tgt,
                                        tg.xi_modes, x)
    alone = pb.parabolic_boundary_solve(p, g, 1.0, tgt, one, x)
    assert np.array_equal(alone.freq_data[:, 0], torus.freq_data[:, q])


@ONE_ROW
def test_one_row_ibvp_equals_the_torus_row(name, n):
    p, tg, q, one = _torus_and_datum_row(name, n)
    ug = UniformHalfGrid(X=30.0, N=256)
    N_t, T = 8, 0.5
    g = np.zeros((p.m, N_t + 1, 1), dtype=complex)
    g[0, :, 0] = np.sin(math.pi * np.arange(N_t + 1) / N_t / 2.0) ** 2
    u0 = (ug.x ** 2 * np.exp(-ug.x))[None]
    torus = pb.ibvp_solve(p, _on_mode(tg, q, u0, 0), _on_mode(tg, q, g, -1), T,
                          tg.xi_modes, ug, [T / 2, T])
    alone = pb.ibvp_solve(p, u0, g, T, one, ug, [T / 2, T])
    assert np.array_equal(alone.values[:, 0], torus.values[:, q])
    assert alone.compatibility_defect == torus.compatibility_defect
