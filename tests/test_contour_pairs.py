"""The semigroup contour in conjugate pairs.

The contour is symmetric about the real axis: the node at -theta is the
conjugate of the node at theta.  On a row whose operator commutes with
conjugation and whose data are real, ``semigroup_apply`` solves only the
nodes with theta > 0 and takes the others as conjugates; every other row
keeps all nodes and the bits of one call on them.
"""

import math

import numpy as np
import pytest

import halfpoisson as hp
from halfpoisson import companion as comp
from halfpoisson import model as mdl
from halfpoisson import poisson as poi
from halfpoisson import resolvent as res
from halfpoisson.grids import TangentialGrid, UniformHalfGrid
from test_batching import _semigroup_per_node
from test_oblique import oblique_laplacian

BUNDLED = {
    "dirichlet": hp.dirichlet_laplacian,
    "neumann": hp.neumann_laplacian,
    "clamped": hp.clamped_bilaplacian,
}
T = 0.15
HALF = res._N_C // 2
EPS = np.finfo(float).eps


def _grids(n):
    return (TangentialGrid(n_axes=n - 1, N=4, L=2 * math.pi),
            UniformHalfGrid(X=12.0, N=128))


def _profiles(tg, ug, scale=1.0):
    """Data on every row but the first, each row its own profile."""
    q = np.arange(tg.n_modes)[:, None]
    u0 = scale * (1.0 + 0.25 * q) * ug.x ** (1 + q % 3) * np.exp(-(1.0 + 0.1 * q) * ug.x)
    u0[0] = 0.0
    return u0.astype(complex)


def _node_counts(monkeypatch):
    """The number of nodes of each halfspace_resolvent call, in call order."""
    counts = []
    solve = res.halfspace_resolvent

    def counted(problem, lam, *args, **kwargs):
        counts.append(np.size(lam))
        return solve(problem, lam, *args, **kwargs)

    monkeypatch.setattr(res, "halfspace_resolvent", counted)
    return counts


def _one_call_on_all_nodes(p, u0, xi_modes, ug):
    lam, weights, c = res._contour(T)
    return c * res.halfspace_resolvent(p, lam, u0, xi_modes, ug, weights=weights)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", BUNDLED)
def test_real_data_take_the_upper_nodes_and_their_conjugates(name, n, monkeypatch):
    """On real data every row pairs: one call on the N_C / 2 nodes with
    theta > 0, a result within 1e-12 of the largest entry of the per-node
    sum over those nodes and the conjugates of their terms, and an
    imaginary part that is exactly zero."""
    p = BUNDLED[name](n)
    tg, ug = _grids(n)
    u0 = _profiles(tg, ug)
    counts = _node_counts(monkeypatch)
    got = res.semigroup_apply(p, u0, T, tg.xi_modes, ug)
    assert counts == [HALF]
    monkeypatch.undo()
    want = _semigroup_per_node(p, u0, T, tg, ug, pairs=True)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.all(got.imag == 0.0) and not np.any(got[0])


COMPLEX_CASES = [(name, 2) for name in BUNDLED] + [("oblique", 2), ("oblique", 3)]


def _problem(name, n):
    return oblique_laplacian(n, 0.5) if name == "oblique" else BUNDLED[name](n)


@pytest.mark.parametrize("name,n", COMPLEX_CASES)
def test_complex_data_keep_one_call_on_all_nodes(name, n, monkeypatch):
    """Data with an imaginary part: no row pairs, the row without data
    joins the call on all nodes, and the result has the bits of one
    weighted call on all N_C nodes."""
    p = _problem(name, n)
    tg, ug = _grids(n)
    u0 = _profiles(tg, ug, 1.0 - 0.5j)
    counts = _node_counts(monkeypatch)
    got = res.semigroup_apply(p, u0, T, tg.xi_modes, ug)
    assert counts == [res._N_C]
    monkeypatch.undo()
    assert np.array_equal(got, _one_call_on_all_nodes(p, u0, tg.xi_modes, ug))


@pytest.mark.parametrize("n", [2, 3])
def test_oblique_rows_keep_all_nodes_and_their_bits(n, monkeypatch):
    """B = D_n + a D_1, a = 0.5, on real data: the rows with xi_1 = 0 pair
    and come out real; the rows with xi_1 != 0 keep the bits of one
    weighted call on all N_C nodes over all rows.  Two calls in all."""
    p = oblique_laplacian(n, 0.5)
    tg, ug = _grids(n)
    u0 = _profiles(tg, ug)
    u0[0] = u0[1]      # at n = 2, xi' = 0 is the one row with xi_1 = 0
    pair = res._conjugate_rows(p, tg.xi_modes, u0)
    assert np.array_equal(pair, tg.xi_modes[:, 0] == 0.0)
    counts = _node_counts(monkeypatch)
    got = res.semigroup_apply(p, u0, T, tg.xi_modes, ug)
    assert counts == [HALF, res._N_C]
    monkeypatch.undo()
    full = _one_call_on_all_nodes(p, u0, tg.xi_modes, ug)
    assert np.array_equal(got[~pair], full[~pair])
    assert np.all(got[pair].imag == 0.0)
    want = _semigroup_per_node(p, u0, T, tg, ug, pairs=True)[pair]
    assert np.abs(got[pair] - want).max() <= 1e-12 * np.abs(want).max()


def _with(base, interior=None, boundary=None):
    return mdl.ModelProblem(
        n=base.n, m=base.m, interior_coeffs=interior or base.interior_coeffs,
        boundary_ops=boundary or base.boundary_ops,
        phi_prime=base.phi_prime, phi=base.phi)


def test_the_row_test_rejects_each_of_its_three_conditions():
    """A row pairs only if its interior table is tau-even and real, its
    boundary rows times (-i)^l are real up to one scalar each, and its
    data are real; each condition alone sends a row to all nodes."""
    tg, ug = _grids(2)
    xi = tg.xi_modes
    real = _profiles(tg, ug)
    base = hp.dirichlet_laplacian()
    assert res._conjugate_rows(base, xi, real).all()
    # the data: one imaginary entry
    one = real.copy()
    one[2, 5] += 1e-300j
    assert res._conjugate_rows(base, xi, one).tolist() == [q != 2 for q in range(len(xi))]
    # the interior: a D_1 D_n term is tau-odd where xi_1 != 0; a complex
    # coefficient makes every row's even entries complex
    odd = {**base.interior_coeffs, (1, 1): 0.5}
    assert np.array_equal(res._conjugate_rows(_with(base, interior=odd), xi, real),
                          xi[:, 0] == 0.0)
    rotated = {k: v * (1.0 + 1e-3j) for k, v in base.interior_coeffs.items()}
    assert not res._conjugate_rows(_with(base, interior=rotated), xi, real).any()
    # the boundary: D_n + 2i D_1 has the row (2i xi_1, -i) = i (2 xi_1, -1)
    # and pairs; D_n + 2 D_1 pairs only where xi_1 = 0; one complex scalar
    # times D_n pairs
    for coeffs, pairs in (({(0, 1): 1.0, (1, 0): 2.0j}, xi[:, 0] == xi[:, 0]),
                          ({(0, 1): 1.0, (1, 0): 2.0}, xi[:, 0] == 0.0),
                          ({(0, 1): np.exp(1j * math.pi / 3)}, xi[:, 0] == xi[:, 0])):
        oblique = _with(base, boundary=[hp.BoundaryOperator(1, coeffs)])
        assert np.array_equal(res._conjugate_rows(oblique, xi, real), pairs), coeffs


def _conditioning(p, lam, xi):
    """Stable roots, root margin, root count and LS measure at lam x xi."""
    char, rows, rho = comp._frequency_rows(p, lam, xi)
    taus, margin, counts = comp.build_companion(char, rho)
    svals = comp.boundary_map_conditioning(taus / rho[:, None], rows)[0]
    return taus, margin, counts, svals[:, -1]


@pytest.mark.parametrize("name,n,xi", [
    *[(name, n, [0.0] * (n - 2) + [1.0]) for name in BUNDLED for n in (2, 3)],
    ("oblique", 3, [0.0, 1.0])])
def test_the_skipped_nodes_checks_are_implied(name, n, xi):
    """On a row that pairs, the checks kernel_batch would make at the
    skipped nodes conj(lambda) read what they read at lambda: the stable
    roots -conj(tau), the same root margin and root count, and the same LS
    measure, each to rounding."""
    p = _problem(name, n)
    xi = np.array([xi])
    lam = res._contour(T)[0][:HALF]
    assert res._conjugate_rows(p, xi, np.ones((1, 4)))[0]
    taus = poi.kernel_batch(p, lam, xi).taus
    mirrored = poi.kernel_batch(p, lam.conj(), xi).taus
    assert np.all(np.abs(mirrored + taus.conj()) <= 4 * EPS * np.abs(taus))
    here, there = _conditioning(p, lam, xi), _conditioning(p, lam.conj(), xi)
    assert np.array_equal(here[2], there[2])
    for a, b in ((here[1], there[1]), (here[3], there[3])):
        assert np.all(np.abs(a - b) <= 4 * EPS * a)


def test_an_oblique_row_s_mirrored_nodes_are_not_implied():
    """The row test can fail where it must: at xi' = (1, 2) the oblique
    condition's LS measure at conj(lambda) differs from that at lambda (by
    about 7 %), so the row keeps all nodes."""
    p = oblique_laplacian(3, 0.5)
    xi = np.array([[1.0, 2.0]])
    lam = res._contour(T)[0][:HALF]
    here, there = _conditioning(p, lam, xi)[3], _conditioning(p, lam.conj(), xi)[3]
    assert np.max(np.abs(here - there) / here) > 1e-2
    assert not res._conjugate_rows(p, xi, np.ones((1, 4)))[0]
