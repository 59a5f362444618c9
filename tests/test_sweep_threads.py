"""``decay_sweep`` solves its sector points in chunks of one kernel batch.
When the datum has fewer than ``_THREADED_MODES`` nonzero modes, whatever
the size of its torus, one chunk holds every lambda, on the calling thread
alone; otherwise each lambda is a chunk, and the chunks run on one thread
per available CPU.

Each lambda's norm goes into its own slot, so neither the chunks nor the
threads change a bit of the norms: they equal those of one serial loop over
the sample, one kernel batch per lambda, ray by ray, whatever the number of
threads.  The first chunk to fail, in sample order, raises, and no thread
outlives the call.  Each chunk's profiles are freed before the next chunk's
kernel batch.
"""

import cmath
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

import halfpoisson as hp
from halfpoisson import cli
from halfpoisson import poisson as poi
from halfpoisson import spaces as sp
from halfpoisson.grids import HalfLineGrid, TangentialGrid
from halfpoisson.model import SectorSample


def _sample():
    return SectorSample.default(0.7 * math.pi, sigma_floor=1e2, n_rays=3,
                                n_moduli=5, mod_max=1e6)


def _normal_grid(p, sample):
    """The normal grid of ``decay_sweep``."""
    return HalfLineGrid.for_decay(poi.decay_rate(
        p, min(sample.moduli) * cmath.exp(1j * sample.rays[len(sample.rays) // 2])))


def _serial_norms(p, q, sample, g, tg):
    """The norms of ``decay_sweep`` from one loop over the rays and moduli."""
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


def _unit_datum(n_axes, N):
    tg = TangentialGrid(n_axes=n_axes, N=N, L=2 * math.pi)
    g = np.zeros(tg.n_modes, dtype=complex)
    g[tg.mode_index(1.0)] = 1.0
    return tg, g


def _full_datum(N):
    """<xi'>^-2 on every mode of the N-mode torus."""
    tg = TangentialGrid(n_axes=1, N=N, L=2 * math.pi)
    return tg, (1.0 + tg.xi_sq) ** -1.0 + 0j


# modes of the grids that run on one thread and, under a datum on every
# mode, on several
SMALL, LARGE = 16, poi._THREADED_MODES
CASES = {
    "dirichlet": (hp.dirichlet_laplacian, {}),
    "neumann": (hp.neumann_laplacian, {"k": 1, "r": 1.5}),
    "clamped": (hp.clamped_bilaplacian, {}),
    "dirichlet-bracket": (hp.dirichlet_laplacian, {"t": 1.0, "r": 1.5}),
    "neumann-bracket": (hp.neumann_laplacian, {"t": 1.0}),
    "clamped-bracket": (hp.clamped_bilaplacian, {"t": 0.5, "r": 1.5}),
    "dirichlet_n3": (lambda: hp.dirichlet_laplacian(3), {"k": 1, "r": 1.5}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_threads_give_the_bits_of_the_serial_loop(name, monkeypatch):
    """Bracket-active sweeps run on two threads, the others, whose datum
    has one mode (16 x 16 modes at n = 3), on one."""
    monkeypatch.setattr(poi, "sweep_workers", lambda: 2)
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


@pytest.mark.parametrize("name", ["dirichlet", "neumann", "clamped"])
def test_batch_on_the_datums_modes_gives_the_bits_of_the_whole_torus(name, monkeypatch):
    """On the 16-mode torus (t <= s) each chunk's kernel batch holds the
    datum's one mode, and the norms are those of one batch on every mode,
    evaluated with the datum's zeros off its mode."""
    make, keys = CASES[name]
    p = make()
    q = poi.ExponentQuery.for_problem(p, **{"k": 0, "p": 2.0, "r": 0.0, "t": 0.0,
                                            "s": 0.0, "j": 0, **keys})
    sample = _sample()
    tg, g = _unit_datum(1, SMALL)
    lams = sample.points()
    xg = _normal_grid(p, sample)
    batch = poi.kernel_batch(p, lams, tg.xi_modes)
    data = np.eye(p.m)[:, q.j, None, None] * g
    profiles = [batch.eval(xg.x, data, l) for l in range(q.k + 1)]
    want = [sp.sobolev_mixed_norm([prof[c] for prof in profiles], q.p, q.r, q.t, tg, xg)
            for c in range(len(lams))]
    real, modes = poi.kernel_batch, []

    def counted(problem, lam, xi_modes):
        modes.append(len(xi_modes))
        return real(problem, lam, xi_modes)
    monkeypatch.setattr(poi, "kernel_batch", counted)
    got = poi.decay_sweep(p, q, sample, g, tg)
    assert modes == [1, 1]         # decay_rate's batch at xi' = 0, then the chunk
    assert np.array_equal(got.norms.ravel(), want)


def test_threads_only_on_large_grids(monkeypatch):
    """Under a datum on every mode of the large grid the first two lambda
    wait for each other, which takes two threads; on the small one every
    lambda runs on the caller."""
    p = hp.dirichlet_laplacian()
    q = poi.ExponentQuery.for_problem(p, k=0, p=2.0, r=0.0, t=0.0, s=0.0, j=0)
    monkeypatch.setattr(poi, "sweep_workers", lambda: 2)
    first_two = _sample().points()[:2]
    meet = threading.Barrier(2, timeout=10)
    real, seen, large = poi.kernel_batch, set(), []

    def recorded(problem, lam, xi_modes):
        seen.add(threading.get_ident())
        if large and lam in first_two:
            meet.wait()
        return real(problem, lam, xi_modes)
    monkeypatch.setattr(poi, "kernel_batch", recorded)
    tg, g = _unit_datum(1, SMALL)
    poi.decay_sweep(p, q, _sample(), g, tg)
    assert seen == {threading.get_ident()}
    large.append(True)
    tg, g = _full_datum(LARGE)
    poi.decay_sweep(p, q, _sample(), g, tg)
    assert len(seen) == 2


def test_thread_count_does_not_change_the_norms(monkeypatch):
    p = hp.neumann_laplacian()
    q = poi.ExponentQuery.for_problem(p, k=0, p=2.0, r=0.0, t=0.0, s=0.0, j=0)
    tg, g = _full_datum(LARGE)
    runs = []
    for workers in (1, 3):
        monkeypatch.setattr(poi, "sweep_workers", lambda: workers)
        runs.append(poi.decay_sweep(p, q, _sample(), g, tg).norms)
    assert np.array_equal(runs[0], runs[1])


def test_first_failure_in_sample_order_raises_and_no_thread_survives(monkeypatch):
    """lambda 2 fails late, lambda 3 at once, so 3 fails first in time; the
    message names lambda 2 all the same.  (lambda 5, the first of the middle
    ray, also fixes the normal grid before the threads start.)"""
    p = hp.dirichlet_laplacian()
    q = poi.ExponentQuery.for_problem(p, k=0, p=2.0, r=0.0, t=0.0, s=0.0, j=0)
    monkeypatch.setattr(poi, "sweep_workers", lambda: 2)
    tg, g = _full_datum(LARGE)
    sample = _sample()
    late, early = sample.points()[2:4]
    real = poi.kernel_batch

    def failing(problem, lam, xi_modes):
        # lam: the lambda of one chunk, or decay_rate's one scalar
        if late in np.atleast_1d(lam):
            time.sleep(0.2)
            raise ValueError(f"failed at lambda={late}")
        if early in np.atleast_1d(lam):
            raise ValueError(f"failed at lambda={early}")
        return real(problem, lam, xi_modes)

    monkeypatch.setattr(poi, "kernel_batch", failing)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="failed at") as err:
        poi.decay_sweep(p, q, sample, g, tg)
    assert str(err.value) == f"failed at lambda={late}"
    assert threading.active_count() == threads


@pytest.mark.parametrize("datum", [lambda: _unit_datum(1, SMALL),
                                   lambda: _unit_datum(1, LARGE),
                                   lambda: _full_datum(LARGE)],
                         ids=["small", "sparse", "large"])
def test_one_kernel_batch_per_chunk(datum, monkeypatch):
    """``decay_rate`` takes one batch; then a datum on one mode takes one
    for the whole sample, on the small grid and on the large one alike, and
    a datum on every mode of the large grid one per lambda."""
    p = hp.dirichlet_laplacian()
    q = poi.ExponentQuery.for_problem(p, k=0, p=2.0, r=0.0, t=0.0, s=0.0, j=0)
    monkeypatch.setattr(poi, "sweep_workers", lambda: 2)
    real, sizes = poi.kernel_batch, []

    def counted(problem, lam, xi_modes):
        sizes.append(np.size(lam))
        return real(problem, lam, xi_modes)
    monkeypatch.setattr(poi, "kernel_batch", counted)
    tg, g = datum()
    sample = _sample()
    poi.decay_sweep(p, q, sample, g, tg)
    lams = len(sample.points())
    assert sizes == ([1] * (lams + 1) if np.all(g) else [1, lams])


def test_each_chunks_profiles_are_freed_before_the_next(monkeypatch):
    """On one thread the 256-mode saturating sweep's traced peak is
    1.638-1.641 profiles (a profile: the complex values on every mode and
    normal node); with one kernel batch per lambda, before chunks, it was
    1.635-1.637.  A profile kept alive into the next chunk's kernel batch
    adds a whole one (2.56)."""
    monkeypatch.setattr(poi, "sweep_workers", lambda: 1)
    p = hp.neumann_laplacian()
    q = poi.ExponentQuery.for_problem(p, k=0, p=2.0, r=0.0, t=1.0, s=0.0, j=0)
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
