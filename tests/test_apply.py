"""Applying the Poisson operators to boundary data: ``KernelBatch.eval``.

``eval(x, data, d, modes)`` returns ``sum_j D^d Poi_j data[j]`` at every
lambda of the batch on ``modes``; it is linear in the data, and a
(lambda, mode) pair whose data all vanish is exactly zero and never reaches
the basis functions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import halfpoisson as hp
from halfpoisson import cli
from halfpoisson import companion as comp
from halfpoisson import poisson as poi
from halfpoisson.grids import TangentialGrid
from kernel_table import kernel_table
from test_oblique import oblique_laplacian

PROBLEMS = {
    "dirichlet": hp.dirichlet_laplacian,
    "neumann": hp.neumann_laplacian,
    "clamped": hp.clamped_bilaplacian,
    "oblique": lambda: oblique_laplacian(2, 0.5),
    "oblique_n3": lambda: oblique_laplacian(3, 0.5),
}
LAMS = np.array([4.0 + 2.0j, 50.0 * np.exp(0.6j)])
X = np.array([0.0, 0.3, 1.1, 2.5])


def _batch(p):
    """One batch over the lambda x mode grid of a small torus."""
    tg = TangentialGrid(n_axes=p.n - 1, N=4, L=2 * math.pi)
    return poi.kernel_batch(p, LAMS, tg.xi_modes)


def _counted_propagate(monkeypatch):
    """Record (rows, points) of every call of ``companion.propagate``."""
    calls = []
    real = comp.propagate

    def run(taus, x, *args, **kwargs):
        calls.append((len(taus), np.size(x)))
        return real(taus, x, *args, **kwargs)
    monkeypatch.setattr(comp, "propagate", run)
    return calls


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(PROBLEMS)), draw=st.data())
def test_eval_is_the_data_weighted_sum_of_the_unit_kernels(name, draw):
    """Modes drawn with repeats and in any order; data zero on some pairs."""
    p = PROBLEMS[name]()
    batch = _batch(p)
    modes = np.array(draw.draw(st.lists(st.integers(0, batch.shape[-1] - 1),
                                        min_size=1, max_size=8)))
    d = draw.draw(st.integers(0, 2))
    rng = np.random.default_rng(draw.draw(st.integers(0, 2 ** 32 - 1)))
    pairs = (len(LAMS), len(modes))
    data = rng.standard_normal((p.m,) + pairs + (2,)) @ np.array([1.0, 1.0j])
    zero = rng.random(pairs) < draw.draw(st.sampled_from([0.0, 0.5, 1.0]))
    data[:, zero] = 0.0
    table = kernel_table(batch, X, d, modes)             # (m, lam, modes, x)
    want = np.einsum("jlr,jlrx->lrx", data, table)
    scale = np.einsum("jlr,jlr->lr", np.abs(data), np.abs(table).max(axis=-1))
    got = batch.eval(X, data, d, modes)
    assert got.shape == pairs + (len(X),)
    assert np.all(np.abs(got - want) <= 1e-14 * scale[..., None])
    assert not np.any(got[zero])


def test_row_without_data_is_exact_zero_and_not_evaluated(monkeypatch):
    p = hp.clamped_bilaplacian()
    batch = _batch(p)
    calls = _counted_propagate(monkeypatch)
    data = np.zeros((p.m,) + batch.shape, dtype=complex)
    got = batch.eval(X, data, 1)
    assert calls == [] and got.shape == batch.shape + (len(X),)
    assert np.array_equal(got, np.zeros_like(got))
    # one pair with data: only it is evaluated, every other pair stays 0
    data[1, 1, 2] = 2.0 - 1.0j
    got = batch.eval(X, data, 1)
    assert calls == [(1, len(X))]
    want = (2.0 - 1.0j) * kernel_table(batch, X, 1, [2])[1, 1, 0]
    assert np.abs(got[1, 2] - want).max() <= 1e-14 * np.abs(want).max()
    got[1, 2] = 0.0
    assert not np.any(got)


def test_mode_outside_the_grid_is_rejected():
    """Mode M at the first lambda would be row M, the second lambda's mode 0."""
    batch = _batch(hp.dirichlet_laplacian())
    M = batch.shape[-1]
    for modes in ([M], [0, -1]):
        with pytest.raises(IndexError, match="modes must lie in"):
            batch.eval(X, 1.0, 0, modes)


def test_poisson_eval_evaluates_only_the_mode_with_data(monkeypatch, tmp_path):
    """Default poisson-eval on Dirichlet: the datum sits on one of 16 modes
    (9 distinct rows), so the solution takes one row; the boundary
    reproduction check still covers every distinct row at x = 0."""
    calls = _counted_propagate(monkeypatch)
    assert cli.main(["poisson-eval", "--out", str(tmp_path)]) == cli.EXIT_OK
    solution = [rows for rows, points in calls if points > 1]
    assert solution == [1]
    assert max(rows for rows, points in calls if points == 1) == 9
