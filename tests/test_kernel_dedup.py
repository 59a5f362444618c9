"""Each distinct kernel row is solved and evaluated once.

Rows whose inputs (the row of lambda - A(xi', .), the boundary rows at
xi'/rho and rho) agree byte for byte share one solve and one evaluation of
the basis.
Whatever lambda and modes a batch repeats, and in whatever order ``eval``
is asked for the modes, the results must be the bits of one
``kernel_batch`` per (lambda, mode) pair.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import halfpoisson as hp
from halfpoisson import companion as comp
from halfpoisson import poisson as poi
from halfpoisson.grids import TangentialGrid
from kernel_table import kernel_table
from test_oblique import oblique_laplacian

PROBLEMS = {
    "dirichlet": hp.dirichlet_laplacian,
    "neumann": hp.neumann_laplacian,
    "clamped": hp.clamped_bilaplacian,
    # B = D_n + 0.5 D_1: the rows at xi' and -xi' differ
    "oblique": lambda: oblique_laplacian(2, 0.5),
    "oblique_n3": lambda: oblique_laplacian(3, 0.5),
    "dirichlet_n3": lambda: hp.dirichlet_laplacian(3),
}
LAMS = np.array([4.0 + 2.0j, 50.0 * np.exp(0.6j), 1.0 + 0.0j])
X = np.array([0.0, 0.3, 1.1, 2.5])


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(PROBLEMS)), data=st.data())
def test_repeated_shuffled_rows_equal_one_batch_per_row(name, data):
    """lambda and modes drawn with repeats and in any order, then modes
    asked of ``eval`` with repeats and in any order."""
    p = PROBLEMS[name]()
    xi = TangentialGrid(n_axes=p.n - 1, N=4, L=2 * math.pi).xi_modes
    lam_picks = data.draw(st.lists(st.integers(0, len(LAMS) - 1), min_size=1,
                                   max_size=5), label="lam_picks")
    mode_picks = data.draw(st.lists(st.integers(0, len(xi) - 1), min_size=1,
                                    max_size=8), label="mode_picks")
    lam, xi = LAMS[lam_picks], xi[mode_picks]
    batch = poi.kernel_batch(p, lam, xi)
    singles = [[poi.kernel_batch(p, v, xi[k:k + 1]) for k in range(len(xi))]
               for v in lam]
    flat = [s for row in singles for s in row]
    assert np.array_equal(batch.taus, np.concatenate([s.taus for s in flat]))
    assert np.array_equal(batch.coeff, np.concatenate([s.coeff for s in flat], axis=1))
    modes = data.draw(st.lists(st.integers(0, len(xi) - 1), min_size=1,
                               max_size=2 * len(xi)), label="modes")
    for k in (0, 1):
        want = np.stack([np.stack([kernel_table(row[r], X, k)[:, 0] for r in modes],
                                  axis=1) for row in singles], axis=1)
        assert np.array_equal(kernel_table(batch, X, k, modes), want)
        if k == 0:
            full = np.stack([np.concatenate([kernel_table(s, X, k) for s in row], axis=1)
                             for row in singles], axis=1)
            assert np.array_equal(kernel_table(batch, X, k), full)


def test_symmetric_rows_share_a_solve():
    """On the 8-mode torus the Laplacian with Dirichlet data sees xi'^2 only:
    5 distinct rows of 8.  The oblique operator's rows all differ."""
    tg = TangentialGrid(n_axes=1, N=8, L=2 * math.pi)
    batch = poi.kernel_batch(hp.dirichlet_laplacian(), 3.0 + 1.0j, tg.xi_modes)
    assert batch.first.tolist() == [0, 1, 2, 3, 4, 3, 2, 1]
    oblique = poi.kernel_batch(oblique_laplacian(2, 0.5), 3.0 + 1.0j, tg.xi_modes)
    assert oblique.first.tolist() == list(range(8))


def test_key_is_bytes_not_values():
    """-0.0 and 0.0 are different bytes, and so are values one ulp apart;
    only bitwise repeats share a row, numbered by first occurrence."""
    one_up = np.nextafter(1.0, 2.0)
    c = np.array([[1.0, 0.0], [1.0, -0.0], [2.0, 0.0], [1.0, 0.0], [one_up, 0.0]])
    rho = np.array([3.0, 3.0, 3.0, 3.0, 3.0])
    first, inverse = poi._distinct_rows(c, rho)
    assert first.tolist() == [0, 1, 2, 4]
    assert inverse.tolist() == [0, 1, 2, 0, 3]
    xi = np.array([[1.0], [one_up], [-1.0], [-one_up]])
    batch = poi.kernel_batch(hp.clamped_bilaplacian(), 2.0 + 0.5j, xi)
    assert batch.first.tolist() == [0, 1, 0, 1]


MARGIN_LAMS = [-4.0, -5.0, 2.0 + 1.0j, 1.0, 3.0]
MARGIN_XI = [0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0]


@settings(max_examples=30, deadline=None)
@given(lam_order=st.permutations(MARGIN_LAMS), xi_order=st.permutations(MARGIN_XI))
def test_margin_error_names_the_first_offending_row(lam_order, xi_order):
    """A real lambda <= -xi'^2 puts the Dirichlet roots on the real axis: at
    lambda = -4 and -5 every mode but +-3 is bad.  The rows at xi' and -xi'
    share a solve; the error still names whichever offending pair comes
    first in the caller's lambda-major order."""
    lam_bad, xi_bad = next((lam, xi) for lam in lam_order for xi in xi_order
                           if complex(lam).imag == 0 and lam + xi ** 2 <= 0)
    with pytest.raises(comp.EllipticityMarginError) as err:
        poi.kernel_batch(hp.dirichlet_laplacian(), lam_order,
                         np.array(xi_order)[:, None])
    msg = str(err.value)
    assert f"xi'={np.array([xi_bad])}" in msg
    assert f"lambda={complex(lam_bad)}" in msg


def test_propagate_runs_once_per_distinct_row(monkeypatch):
    """On the clamped problem the rows at xi' and -xi' share a solve: the
    batch finds the roots of each distinct row once, eval evaluates the
    basis on each distinct row once, and every row of a pair gets the same
    values."""
    xi = np.array([[1.0], [-1.0], [2.0], [-2.0], [1.0]])
    seen = {}

    def counted(name):
        stage = getattr(comp, name)

        def run(rows_in, *args, **kwargs):
            seen[name] = rows_in.copy()
            return stage(rows_in, *args, **kwargs)
        return run

    for name in ("build_companion", "propagate"):
        monkeypatch.setattr(comp, name, counted(name))
    batch = poi.kernel_batch(hp.clamped_bilaplacian(), 3.0 + 1.0j, xi)
    assert len(seen["build_companion"]) == 2
    vals = kernel_table(batch, X)
    assert np.array_equal(seen["propagate"], batch.taus[[0, 2]])
    assert np.array_equal(vals[:, [0, 2]], vals[:, [1, 3]])
    assert np.array_equal(vals[:, 0], vals[:, 4])


def _undeduplicated(batch, x, data, d):
    """``eval`` on every row, all carrying data, without the pair dedup: the
    basis runs once per distinct kernel row, and every row takes its own
    contractions."""
    distinct, back = np.unique(batch.first, return_inverse=True)
    A, F = comp.propagate(batch.taus[distinct], x, d)
    w = np.einsum("jq,jqk,qki->qi", data, batch.coeff, A[back])
    return np.einsum("qi,qiz->qz", w, F[back]).reshape(batch.shape + (len(x),))


@pytest.mark.parametrize("name", ["dirichlet", "neumann", "clamped", "oblique",
                                  "dirichlet_n3"])
@pytest.mark.parametrize("even", [True, False], ids=["even", "uneven"])
def test_pair_dedup_keeps_the_bits_of_every_row(name, even):
    """Data equal at xi' and -xi' (as the saturating datum's are) share one
    evaluation per (kernel row, data column); data that differ there take
    one each.  Either way every row gets the bits of the undeduplicated
    path."""
    p = PROBLEMS[name]()
    tg = TangentialGrid(n_axes=p.n - 1, N=8, L=2 * math.pi)
    batch = poi.kernel_batch(p, LAMS, tg.xi_modes)
    rng = np.random.default_rng(5)
    if even:
        data = np.stack([(1.0 + tg.xi_sq) ** -(0.55 + j) for j in range(p.m)])
        data = np.broadcast_to(data[:, None], (p.m,) + batch.shape)
    else:
        data = rng.standard_normal((p.m,) + batch.shape + (2,)) @ np.array([1.0, 1.0j])
    flat = np.ascontiguousarray(data).reshape(p.m, -1)
    for d in (0, 1, 2):
        assert np.array_equal(batch.eval(X, data, d), _undeduplicated(batch, X, flat, d))


def test_equal_data_on_equal_kernel_rows_evaluate_once(monkeypatch):
    """On the 8-mode torus the Dirichlet rows at +-xi' share a kernel row:
    even data leave 5 pairs of 8 for the contractions, uneven data 8."""
    tg = TangentialGrid(n_axes=1, N=8, L=2 * math.pi)
    batch = poi.kernel_batch(hp.dirichlet_laplacian(), 3.0 + 1.0j, tg.xi_modes)
    pairs = []
    real = np.einsum

    def counted(spec, *ops, **kwargs):
        if spec == "qi,qiz->qz":
            pairs.append(len(ops[0]))
        return real(spec, *ops, **kwargs)
    monkeypatch.setattr(np, "einsum", counted)
    out = batch.eval(X, (1.0 + tg.xi_sq)[None])
    assert np.array_equal(out[1:], out[:0:-1])
    batch.eval(X, 10.0 + tg.xi_modes[:, 0][None])
    assert pairs == [5, 8]


def test_empty_row_set_is_an_empty_result():
    """No modes asked for: nothing to evaluate, and the shape says so."""
    p = hp.clamped_bilaplacian()
    tg = TangentialGrid(n_axes=1, N=4, L=2 * math.pi)
    batch = poi.kernel_batch(p, LAMS, tg.xi_modes)
    for data in (1.0, np.zeros((p.m, len(LAMS), 0))):
        got = batch.eval(X, data, 1, np.array([], dtype=int))
        assert got.shape == (len(LAMS), 0, len(X))


@pytest.mark.parametrize("lam,n_modes", [(np.array([], dtype=complex), 3),
                                         (np.zeros((2, 0), dtype=complex), 3),
                                         (LAMS, 0)],
                         ids=["no-lambda", "empty-lambda-grid", "no-mode"])
def test_empty_grid_is_an_empty_batch(lam, n_modes):
    """No lambda or no mode: an empty batch, whose eval is an empty array of
    the grid's shape."""
    p = hp.clamped_bilaplacian()
    batch = poi.kernel_batch(p, lam, 1.0 + np.arange(n_modes, dtype=float)[:, None])
    assert batch.shape == lam.shape + (n_modes,)
    assert batch.taus.shape == (0, p.m) and batch.coeff.shape == (p.m, 0, p.m)
    assert batch.eval(X, 1.0, 1).shape == batch.shape + (len(X),)
    first, inverse = poi._distinct_rows(np.zeros((0, 3)), np.zeros(0))
    assert first.size == inverse.size == 0
