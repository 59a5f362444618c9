"""Each distinct kernel row is solved and evaluated once.

Rows whose inputs (the row of lambda - A(xi', .), the boundary rows at
xi'/rho and rho) agree byte for byte share one solve and one evaluation of
the basis.
Whatever rows a batch repeats, and in whatever order ``eval`` is asked for
them, the results must be the bits of one ``kernel_batch`` per row.
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


def _base_rows(p):
    """Every (lambda, mode) pair of a small grid."""
    tg = TangentialGrid(n_axes=p.n - 1, N=4, L=2 * math.pi)
    M = tg.n_modes
    return np.repeat(LAMS, M), np.tile(tg.xi_modes, (len(LAMS), 1))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(PROBLEMS)), data=st.data())
def test_repeated_shuffled_rows_equal_one_batch_per_row(name, data):
    p = PROBLEMS[name]()
    lam, xi = _base_rows(p)
    picks = data.draw(st.lists(st.integers(0, len(lam) - 1), min_size=1,
                               max_size=24), label="picks")
    batch = poi.kernel_batch(p, lam[picks], xi[picks])
    singles = [poi.kernel_batch(p, lam[q], xi[q:q + 1]) for q in picks]
    assert np.array_equal(batch.taus, np.concatenate([s.taus for s in singles]))
    assert np.array_equal(batch.coeff, np.concatenate([s.coeff for s in singles], axis=1))
    rows = data.draw(st.lists(st.integers(0, len(picks) - 1), min_size=1,
                              max_size=2 * len(picks)), label="rows")
    for k in (0, 1):
        want = np.stack([kernel_table(singles[r], X, k)[:, 0] for r in rows], axis=1)
        assert np.array_equal(kernel_table(batch, X, k, np.array(rows)), want)
        if k == 0:
            full = np.concatenate([kernel_table(s, X, k) for s in singles], axis=1)
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


BAD = [(np.array([0.0]), -4.0), (np.array([1.0]), -5.0), (np.array([-1.0]), -5.0)]
GOOD = [(np.array([0.5]), 2.0 + 1.0j), (np.array([-0.5]), 2.0 + 1.0j),
        (np.array([-2.0]), 1.0), (np.array([0.0]), 3.0)]


@settings(max_examples=30, deadline=None)
@given(order=st.permutations(range(len(BAD) + len(GOOD))))
def test_margin_error_names_the_first_offending_row(order):
    """lambda = -4 - xi'^2 puts the Dirichlet roots on the real axis.  The
    rows at xi' = 1 and -1 share a solve, as do the good rows at 0.5 and
    -0.5; the error still names whichever offending row comes first in the
    caller's order."""
    pairs = [(BAD + GOOD)[i] for i in order]
    xi_bad, lam_bad = BAD[next(i for i in order if i < len(BAD))]
    with pytest.raises(comp.EllipticityMarginError) as err:
        poi.kernel_batch(hp.dirichlet_laplacian(), [lam for _, lam in pairs],
                         np.stack([x for x, _ in pairs]))
    msg = str(err.value)
    assert f"xi'={xi_bad}" in msg
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
