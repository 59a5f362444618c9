"""``decay_sweep`` solves its sector points in chunks of one kernel batch,
one chunk after another on the calling thread.  At p = 2 and m <= 2 (the
closed-form route) a chunk holds up to ``_SWEEP_ROWS`` rows of lambda x
datum mode, on the grid route (p != 2 or m >= 3) up to ``_GRID_ROWS``,
whatever the size of the datum's torus, and at least one lambda.

Each lambda's norm goes into its own slot, so the chunks do not change a
bit of the norms: they equal those of one serial loop over the sample, one
kernel batch per lambda, ray by ray, on either route.  The first chunk to
fail, in sample order, raises, and no later chunk is solved.  On the grid
route each chunk's profiles are freed before the next chunk's kernel batch.
"""

import cmath
import math
import threading
import tracemalloc

import numpy as np
import pytest

import halfpoisson as hp
from halfpoisson import cli
from halfpoisson import poisson as poi
from halfpoisson import spaces as sp
from halfpoisson.grids import HalfLineGrid, TangentialGrid
from halfpoisson.model import SectorSample
from test_newton_route import polyharmonic_dirichlet


def _sample():
    return SectorSample.default(0.7 * math.pi, sigma_floor=1e2, n_rays=3,
                                n_moduli=5, mod_max=1e6)


def _normal_grid(p, sample):
    """The normal grid of ``decay_sweep``."""
    return HalfLineGrid.for_decay(poi.decay_rate(
        p, min(sample.moduli) * cmath.exp(1j * sample.rays[len(sample.rays) // 2])))


def _grid_norms(p, q, sample, g, tg):
    """The norms of ``decay_sweep``'s grid route from one loop over the
    rays and moduli."""
    data = np.eye(p.m)[:, [q.j]] * np.ravel(g)
    xg = _normal_grid(p, sample)
    mods = np.asarray(sample.moduli, dtype=float)
    norms = np.empty((len(sample.rays), len(mods)))
    for i, ray in enumerate(sample.rays):
        for col, mod in enumerate(mods):
            batch = poi.kernel_batch(p, mod * cmath.exp(1j * ray), tg.xi_modes)
            profiles = np.stack([batch.eval(xg.x, data, l) for l in range(q.k + 1)])
            norms[i, col] = sp.sobolev_mixed_norm(profiles, q.p, q.r, q.t, tg, xg)
    return norms


def _serial_norms(p, q, sample, g, tg):
    """The norms of ``decay_sweep`` from one loop over the rays and moduli:
    at p = 2 and m <= 2 from the square integrals of each mode's profile,
    otherwise on the normal grid."""
    if not (q.p == 2 and p.m <= 2):
        return _grid_norms(p, q, sample, g, tg)
    data = np.eye(p.m)[:, [q.j]] * np.ravel(g)
    mods = np.asarray(sample.moduli, dtype=float)
    norms = np.empty((len(sample.rays), len(mods)))
    for i, ray in enumerate(sample.rays):
        for col, mod in enumerate(mods):
            batch = poi.kernel_batch(p, mod * cmath.exp(1j * ray), tg.xi_modes)
            norms[i, col] = math.sqrt(sum(
                sp.space_norm(np.sqrt(batch.sq_norms(q.r, data, l)), q.t, tg) ** 2
                for l in range(q.k + 1)))
    return norms


def _unit_datum(n_axes, N):
    tg = TangentialGrid(n_axes=n_axes, N=N, L=2 * math.pi)
    g = np.zeros(tg.n_modes, dtype=complex)
    g[tg.mode_index(1.0)] = 1.0
    return tg, g


def _full_datum(N):
    """<xi'>^-2 on every mode of the N-mode torus."""
    tg = TangentialGrid(n_axes=1, N=N, L=2 * math.pi)
    return tg, (1.0 + tg.xi_sq) ** -1.0 + 0j


# modes of a small grid, and of the grid on which a grid-route chunk holds
# one lambda under a datum on every mode
SMALL, LARGE = 16, poi._GRID_ROWS
CASES = {
    "dirichlet": (hp.dirichlet_laplacian, {}),
    "neumann": (hp.neumann_laplacian, {"k": 1, "r": 1.5}),
    "clamped": (hp.clamped_bilaplacian, {}),
    "dirichlet-bracket": (hp.dirichlet_laplacian, {"t": 1.0, "r": 1.5}),
    "neumann-bracket": (hp.neumann_laplacian, {"t": 1.0}),
    "clamped-bracket": (hp.clamped_bilaplacian, {"t": 0.5, "r": 1.5}),
    "dirichlet_n3": (lambda: hp.dirichlet_laplacian(3), {"k": 1, "r": 1.5}),
    # p != 2 or m >= 3: the grid route
    "polyharmonic_m3": (polyharmonic_dirichlet, {}),
    "dirichlet-p1.5": (hp.dirichlet_laplacian, {"p": 1.5}),
    "clamped-p1.5": (hp.clamped_bilaplacian, {"k": 1, "r": 1.5, "p": 1.5}),
    "neumann-bracket-p1.5": (hp.neumann_laplacian, {"t": 1.0, "p": 1.5}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_threads_give_the_bits_of_the_serial_loop(name):
    """Bracket-active sweeps, under the saturating datum on every mode of
    the large grid, take several chunks; the others, whose datum has one
    mode (16 x 16 modes at n = 3), one."""
    make, keys = CASES[name]
    p = make()
    q = poi.ExponentQuery.for_problem(p, **{"k": 0, "p": 2.0, "r": 0.0, "t": 0.0,
                                            "s": 0.0, "j": 0, **keys})
    sample = _sample()
    if q.t > q.s:
        ximax = 1.2 * max(sample.moduli) ** (1.0 / p.order)
        tg, g = cli._saturating_datum(p, LARGE, ximax, q.s)
    else:
        tg, g = _unit_datum(p.n - 1, SMALL)
    want = _serial_norms(p, q, sample, g, tg)
    got = poi.decay_sweep(p, q, sample, g, tg)
    assert np.array_equal(got.norms, want)


@pytest.mark.parametrize("name", ["dirichlet", "neumann", "clamped",
                                  "dirichlet-p1.5", "clamped-p1.5"])
def test_batch_on_the_datums_modes_gives_the_bits_of_the_whole_torus(name, monkeypatch):
    """On the 16-mode torus (t <= s) each chunk's kernel batch holds the
    datum's one mode, and the norms are those of one batch on every mode,
    evaluated with the datum's zeros off its mode.  The grid route takes
    one more batch, ``decay_rate``'s at xi' = 0."""
    make, keys = CASES[name]
    p = make()
    q = poi.ExponentQuery.for_problem(p, **{"k": 0, "p": 2.0, "r": 0.0, "t": 0.0,
                                            "s": 0.0, "j": 0, **keys})
    sample = _sample()
    tg, g = _unit_datum(1, SMALL)
    lams = sample.points()
    batch = poi.kernel_batch(p, lams, tg.xi_modes)
    data = np.eye(p.m)[:, q.j, None, None] * g
    if q.p == 2:
        sq = [batch.sq_norms(q.r, data, l) for l in range(q.k + 1)]
        want = [math.sqrt(sum(sp.space_norm(np.sqrt(I[c]), q.t, tg) ** 2 for I in sq))
                for c in range(len(lams))]
    else:
        xg = _normal_grid(p, sample)
        profiles = [batch.eval(xg.x, data, l) for l in range(q.k + 1)]
        want = [sp.sobolev_mixed_norm([prof[c] for prof in profiles], q.p, q.r, q.t, tg, xg)
                for c in range(len(lams))]
    real, modes = poi.kernel_batch, []

    def counted(problem, lam, xi_modes):
        modes.append(len(xi_modes))
        return real(problem, lam, xi_modes)
    monkeypatch.setattr(poi, "kernel_batch", counted)
    got = poi.decay_sweep(p, q, sample, g, tg)
    assert modes == ([1] if q.p == 2 else [1, 1])
    assert np.array_equal(got.norms.ravel(), want)


@pytest.mark.parametrize("exponent", [2.0, 1.5])
def test_every_chunk_runs_on_the_caller(exponent, monkeypatch):
    """Under a datum on every mode of the large grid both routes take
    several chunks, and each chunk's kernel batch is solved on the calling
    thread."""
    p = hp.dirichlet_laplacian()
    q = poi.ExponentQuery.for_problem(p, k=0, p=exponent, r=0.0, t=0.0, s=0.0, j=0)
    real, seen = poi.kernel_batch, []

    def recorded(problem, lam, xi_modes):
        seen.append(threading.get_ident())
        return real(problem, lam, xi_modes)
    monkeypatch.setattr(poi, "kernel_batch", recorded)
    tg, g = _full_datum(LARGE)
    poi.decay_sweep(p, q, _sample(), g, tg)
    assert len(seen) > 1
    assert set(seen) == {threading.get_ident()}


@pytest.mark.parametrize("exponent", [2.0, 1.5])
def test_a_zero_datum_gives_zero_norms(exponent):
    p = hp.dirichlet_laplacian()
    q = poi.ExponentQuery.for_problem(p, k=0, p=exponent, r=0.0, t=0.0, s=0.0, j=0)
    tg, _ = _full_datum(SMALL)
    got = poi.decay_sweep(p, q, _sample(), np.zeros(tg.n_modes, dtype=complex), tg)
    assert not got.norms.any()


def test_first_failure_in_sample_order_raises_and_no_thread_survives(monkeypatch):
    """A lambda of the first chunk and one of the second fail; the message
    names the first, and the second chunk is never solved."""
    p = hp.dirichlet_laplacian()
    q = poi.ExponentQuery.for_problem(p, k=0, p=2.0, r=0.0, t=0.0, s=0.0, j=0)
    tg, g = _full_datum(LARGE)
    sample = _sample()
    size = poi._SWEEP_ROWS // LARGE
    first, second = sample.points()[[2, size + 1]]
    real, calls = poi.kernel_batch, []

    def failing(problem, lam, xi_modes):
        calls.append(lam)
        for bad in (first, second):
            if bad in np.atleast_1d(lam):
                raise ValueError(f"failed at lambda={bad}")
        return real(problem, lam, xi_modes)

    monkeypatch.setattr(poi, "kernel_batch", failing)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="failed at") as err:
        poi.decay_sweep(p, q, sample, g, tg)
    assert str(err.value) == f"failed at lambda={first}"
    assert len(calls) == 1
    assert threading.active_count() == threads


@pytest.mark.parametrize("datum", [lambda: _unit_datum(1, SMALL),
                                   lambda: _unit_datum(1, LARGE),
                                   lambda: _full_datum(LARGE),
                                   lambda: _full_datum(LARGE // 2)],
                         ids=["small", "sparse", "large", "half"])
def test_one_kernel_batch_per_chunk(datum, monkeypatch):
    """At p = 2 a datum on one mode takes one batch for the whole sample,
    on the small grid and on the large one alike, and a datum on every mode
    of a larger grid one per ``_SWEEP_ROWS`` rows (8 lambda at 256 modes,
    16 at 128).  At p = 1.5 ``decay_rate`` takes one batch first; then a
    datum on one mode takes one for the whole sample, and a datum on every
    mode of a larger grid one per ``_GRID_ROWS`` rows (1 lambda at 256
    modes, 2 at 128)."""
    p = hp.dirichlet_laplacian()
    real, sizes = poi.kernel_batch, []

    def counted(problem, lam, xi_modes):
        sizes.append(np.size(lam))
        return real(problem, lam, xi_modes)
    monkeypatch.setattr(poi, "kernel_batch", counted)
    tg, g = datum()
    sample = _sample()
    lams = len(sample.points())

    def chunks(rows):
        per_chunk = max(1, rows // np.count_nonzero(g))
        return [min(per_chunk, lams - i) for i in range(0, lams, per_chunk)]
    for exponent, want in ((2.0, chunks(poi._SWEEP_ROWS)),
                           (1.5, [1] + chunks(poi._GRID_ROWS))):
        q = poi.ExponentQuery.for_problem(p, k=0, p=exponent, r=0.0, t=0.0, s=0.0, j=0)
        sizes.clear()
        poi.decay_sweep(p, q, sample, g, tg)
        assert sizes == want


@pytest.mark.parametrize("k", [0, 1])
def test_a_closed_form_chunk_keys_its_rows_once(k, monkeypatch):
    """At p = 2 each chunk's rows are keyed by their bytes once, in its
    kernel batch: ``sq_norms`` evaluates every row with data, so no
    derivative order keys them again.  A datum on every mode of the large
    grid takes two chunks, whose rows at xi' and -xi' repeat."""
    p = hp.dirichlet_laplacian()
    q = poi.ExponentQuery.for_problem(p, k=k, p=2.0, r=1.5, t=0.0, s=0.0, j=0)
    calls = {"kernel_batch": 0, "_distinct_rows": 0}
    for name in calls:
        def counted(*args, real=getattr(poi, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(poi, name, counted)
    tg, g = _full_datum(LARGE)
    poi.decay_sweep(p, q, _sample(), g, tg)
    assert calls == {"kernel_batch": 2, "_distinct_rows": 2}


def test_each_chunks_profiles_are_freed_before_the_next():
    """The grid route's 256-mode saturating sweep at p = 1.5 has a traced
    peak of 1.642-1.646 profiles (a profile: the complex values on every
    mode and normal node); at p = 2, before that sweep took the closed-form
    route, it read 1.638-1.642.  A profile kept alive into the next chunk's
    kernel batch adds a whole one (2.56)."""
    p = hp.neumann_laplacian()
    q = poi.ExponentQuery.for_problem(p, k=0, p=1.5, r=0.0, t=1.0, s=0.0, j=0)
    sample = _sample()
    tg, g = cli._saturating_datum(p, LARGE, 1.2 * max(sample.moduli) ** 0.5, q.s)
    poi.decay_sweep(p, q, sample, g, tg)       # the grids' caches are formed
    tracemalloc.start()
    try:
        poi.decay_sweep(p, q, sample, g, tg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    profile = tg.n_modes * _normal_grid(p, sample).n_points * np.dtype(complex).itemsize
    assert peak <= 1.65 * profile
