"""The closed-form square integrals of kernel rows and the decay-sweep route
that takes them.

* ``companion.gram`` against an mpmath quadrature at 30 digits, entry by
  entry within 1e-12 relative: m = 1 and 2, r in {-0.5, 0, 1.5} and
  relative root gaps from 1e-1 down to 1e-9, where the four-term difference
  of K loses about 2 log10(1/gap) digits; roots near the real axis, far
  apart against their decay, against K summed in 60 digits; an exact tie
  against the confluent limit.
* ``KernelBatch.sq_norms`` against the same quadrature of the kernel rows
  in the root basis, within 1e-12 relative: the Dirichlet Laplacian (m = 1),
  the clamped plate (m = 2) at the same root gaps, one oblique n = 3 row,
  d in {0, 1}; a pair without data reads exactly 0.
* ``decay_sweep``'s closed-form route (p = 2, m <= 2) against the grid
  route on every decay-sweep config of the benchmark's ``sweep`` deck,
  within 1e-5 relative.  The grid freezes its integrand on [0, 1e-6], which
  costs up to 1.5e-6 at r = 0; at r = 1.5 the routes agree to 1e-9.
"""

import importlib.util
import json
import math
import sys
from itertools import product
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import halfpoisson as hp
from halfpoisson import cli
from halfpoisson import companion as comp
from halfpoisson import poisson as poi
from test_newton_route import _mp_poly, _mp_stable_roots
from test_oblique import oblique_laplacian
from test_sweep_threads import _grid_norms

GAPS = [1e-1, 1e-3, 1e-5, 1e-7, 1e-9]
WEIGHTS = [-0.5, 0.0, 1.5]


def _mpc(z):
    return mp.mpc(complex(z).real, complex(z).imag)


def _quad(f, decay, r):
    """int_0^inf f(x) x^r dx for f decaying like e^{-decay x}."""
    scale = 1 / mp.mpf(decay)
    return mp.quad(lambda x: f(x) * x ** r, [0, 10 * scale, mp.inf])


def _mp_gram(taus, r):
    """int F_a conj(F_b) x^r dx of propagate's basis on the double roots
    ``taus``, by quadrature at 30 digits; the entries below the diagonal
    are the conjugates of those above."""
    with mp.workdps(30):
        t = [_mpc(v) for v in taus]

        def entry(a, b, x):
            f = [mp.exp(1j * tau * x) for tau in t]
            f[1:] = [fk - f[0] for fk in f[1:]]
            return f[a] * mp.conj(f[b])
        G = np.empty((len(t), len(t)), dtype=complex)
        for a, b in product(range(len(t)), repeat=2):
            G[a, b] = (G[b, a].conjugate() if a > b else
                       complex(_quad(lambda x: entry(a, b, x), taus[0].imag, r)))
        return G


def _assert_entrywise(got, want, rel=1e-12):
    assert np.all(np.abs(got - want) <= rel * np.abs(want)), np.abs(got / want - 1).max()


@pytest.mark.parametrize("r", WEIGHTS)
@pytest.mark.parametrize("gap", [None] + GAPS)
def test_gram_against_quadrature(gap, r):
    """``gap`` None: one root (m = 1); else |tau_2 - tau_1| = gap |tau_1|."""
    t1 = 0.7 + 1.2j
    taus = np.array([t1] if gap is None else [t1, t1 + gap * abs(t1) * np.exp(0.9j)])
    got = comp.gram(taus[None], r)[0]
    _assert_entrywise(got, _mp_gram(taus, r))
    assert np.array_equal(got, got.conj().T)


@pytest.mark.parametrize("r", WEIGHTS)
@pytest.mark.parametrize("taus", [(1 + 1e-6j, 1.1 + 1e-6j), (1 + 1e-6j, 1.1 + 2e-6j),
                                  (0.5 + 1e-3j, -0.5 + 1e-3j), (1 + 1e-9j, 1.001 + 1.5e-9j)])
def test_gram_where_roots_sit_far_apart_against_their_decay(taus, r):
    """|tau_2 - tau_1| is below |tau_2| / 8 in three of these, yet many
    times Im tau_1: then |1 + a|^2 - |a|^2 cancels unless formed apart."""
    with mp.workdps(60):
        t1, t2 = (_mpc(v) for v in taus)

        def K(z):
            return mp.gamma(1 + r) * (-1j * z) ** (-(1 + r))
        s = t1 - mp.conj(t1)
        g01 = K(t1 - mp.conj(t2)) - K(s)
        g11 = K(t2 - mp.conj(t2)) - K(t2 - mp.conj(t1)) - K(t1 - mp.conj(t2)) + K(s)
        want = np.array([[K(s), g01], [mp.conj(g01), g11]], dtype=complex)
    _assert_entrywise(comp.gram(np.array([taus]), r)[0], want)


@pytest.mark.parametrize("r", WEIGHTS)
def test_gram_at_an_exact_tie_takes_the_confluent_limit(r):
    """On [tau, tau] the second basis function is D^d (t^d e^{i t x})'(tau),
    whose square integral the Gram form gives through A's division by the
    tie's gap."""
    tau = 2.0 + 3.0j
    taus = np.array([[tau, tau]])
    for d in range(2):
        A = comp._basis_coeffs(taus, d)[0]
        got = (A @ comp.gram(taus, r)[0] @ A.conj().T)[1, 1].real
        with mp.workdps(30):
            t = _mpc(tau)
            want = float(_quad(lambda x: abs((d * t ** (d - 1) if d else 0)
                                             + 1j * x * t ** d) ** 2
                                         * mp.exp(-2 * t.imag * x), tau.imag, r))
        assert abs(got - want) <= 1e-12 * want, d


def test_gram_takes_m_at_most_2_and_r_above_minus_1():
    with pytest.raises(ValueError, match="m <= 2"):
        comp.gram(np.array([[1j, 2j, 3j]]), 0.0)
    with pytest.raises(ValueError, match="'r' must exceed -1"):
        comp.gram(np.array([[1j]]), -1.0)


def _mp_sq_norm(p, lam, xi, data, d, r):
    """int |D^d sum_j Poi_j data_j|^2 x^r dx at (lam, xi) by quadrature at
    30 digits of the kernel in the root basis, its roots and boundary solve
    taken in that precision from the problem data."""
    with mp.workdps(30):
        taus = _mp_stable_roots(p, lam, xi)
        L = mp.matrix(p.m, p.m)
        for j, bop in enumerate(p.boundary_ops):
            b = _mp_poly(bop.coeffs, xi, p.order - 1)
            for k, tau in enumerate(taus):
                L[j, k] = sum(bl * tau ** l for l, bl in enumerate(b))
        C = L ** -1
        c = [sum(C[k, j] * _mpc(data[j]) for j in range(p.m)) * taus[k] ** d
             for k in range(p.m)]
        return float(_quad(lambda x: abs(sum(ck * mp.exp(1j * tau * x)
                                             for ck, tau in zip(c, taus))) ** 2,
                           min(t.imag for t in taus), r))


def _check_sq_norms(p, lam, xi, data, r):
    batch = poi.kernel_batch(p, lam, np.array([xi], dtype=float))
    for d in range(2):
        got = batch.sq_norms(r, np.reshape(data, (p.m, 1)), d)
        assert got.shape == (1,)
        want = _mp_sq_norm(p, lam, xi, data, d, r)
        assert abs(got[0] - want) <= 1e-12 * want, d


@pytest.mark.parametrize("r", WEIGHTS)
def test_sq_norms_m1_against_quadrature(r):
    _check_sq_norms(hp.dirichlet_laplacian(), 50.0 * np.exp(0.6j), [7.0], [1.0], r)


@pytest.mark.parametrize("r", WEIGHTS)
@pytest.mark.parametrize("gap", GAPS)
def test_sq_norms_m2_against_quadrature(gap, r):
    """The clamped plate at lambda = 4 e^{0.5 i}: its stable roots
    sqrt(-xi'^2 +- lambda^{1/2}) lie ``gap`` = 2 / xi'^2 apart, relative.
    The double roots find a gap below about 1.5e-8 only to that size (a
    near-double eigenvalue of the companion in tau^2 is found to about
    sqrt(eps)), so at gap 1e-9 they read 1.5e-8 apart."""
    p, lam = hp.clamped_bilaplacian(), 4.0 * np.exp(0.5j)
    xi = math.sqrt(2.0 / gap)
    taus = poi.kernel_batch(p, lam, np.array([[xi]])).taus[0]
    assert abs(taus[1] - taus[0]) / abs(taus[1]) < 2 * max(gap, 1e-8)
    _check_sq_norms(p, lam, [xi], [1.0, 0.3 - 0.2j], r)


def test_sq_norms_oblique_n3_row():
    _check_sq_norms(oblique_laplacian(3, -1.5), 4.0 + 2.0j, [1.0, 2.0], [1.0], 0.4)


def test_sq_norms_without_data_read_exactly_zero():
    """Data on the first of three modes and the first of two lambda: every
    other pair reads 0.0, as :meth:`KernelBatch.eval` leaves it."""
    p = hp.clamped_bilaplacian()
    batch = poi.kernel_batch(p, np.array([4.0, 9.0 + 1.0j]), np.array([[1.0], [2.0], [3.0]]))
    data = np.zeros((2, 2, 3), dtype=complex)
    data[:, 0, 0] = 1.0, 0.5
    got = batch.sq_norms(0.0, data, 1)
    assert got.shape == (2, 3) and got[0, 0] > 0
    assert np.count_nonzero(got) == 1
    assert np.array_equal(batch.sq_norms(0.0, np.zeros((2, 1, 1)), 0), np.zeros((2, 3)))


def _deck_decay_sweeps():
    """(problem, config) of every decay-sweep job of the benchmark's
    ``sweep`` deck, from its job module loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look themselves up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    jobs = module.deck("sweep", 1)
    return sorted({(job.problem, job.config) for job in jobs if job.command == "decay-sweep"})


@pytest.mark.parametrize("problem,config", _deck_decay_sweeps())
def test_closed_form_route_against_the_grid_route_on_the_deck(problem, config,
                                                              tmp_path, monkeypatch):
    p = hp.BUNDLED[problem]()
    calls, real = [], poi.decay_sweep

    def recorded(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]
    monkeypatch.setattr(poi, "decay_sweep", recorded)
    cli.cmd_decay_sweep(tmp_path, problem=p, **json.loads(config))
    (args, result), = calls
    q = args[1]
    assert q.p == 2 and p.m <= 2
    grid = _grid_norms(*args)
    assert np.all(np.abs(result.norms - grid) <= 1e-5 * grid)
