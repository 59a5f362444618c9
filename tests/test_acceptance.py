"""End-to-end acceptance gate.

Each test checks one headline claim at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest -s`` to see them live).
"""

import cmath
import math
import time

import numpy as np
from scipy.integrate import trapezoid

import halfpoisson as hp
from halfpoisson import model as mdl
from halfpoisson import parabolic as pb
from halfpoisson import poisson as poi
from halfpoisson import rbound as rb
from halfpoisson import resolvent as res
from halfpoisson import spaces as sp
from halfpoisson.grids import HalfLineGrid, TangentialGrid, UniformHalfGrid
from kernel_table import kernel_table


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _random_sector_triples(rng, count):
    """(xi', lambda, x_n) samples with lambda inside the verified sector."""
    xi = rng.uniform(-5.0, 5.0, count)
    mods = 10.0 ** rng.uniform(-1.0, 4.0, count)
    args = rng.uniform(-0.7 * math.pi, 0.7 * math.pi, count)
    lam = mods * np.exp(1j * args)
    x = rng.uniform(0.0, 3.0, count)
    return xi, lam, x


def test_criterion_1_closed_form_kernels():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for problem, oracle in (
        (hp.dirichlet_laplacian(), lambda kap, x: np.exp(-kap * x)),
        (hp.neumann_laplacian(), lambda kap, x: -1j / kap * np.exp(-kap * x)),
    ):
        for _ in range(50):
            xi, lam_s, x = _random_sector_triples(rng, 10)
            lam = complex(lam_s[0])
            batch = poi.kernel_batch(problem, lam, xi[:, None])
            got = np.diagonal(kernel_table(batch, x, 0)[0])
            kap = np.sqrt(lam + xi ** 2 + 0j)
            kap = np.where(kap.real > 0, kap, -kap)
            want = oracle(kap, x)
            worst = max(worst, float(np.abs(got - want).max()
                                     / np.abs(want).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(1, "closed-form kernel oracles",
            ok, f"rel err {worst:.2e}, {elapsed:.1f}s over 1000 triples x 2")


def _boundary_trace_of_kernel(problem, batch, xi_modes, k):
    """tr B_k of every kernel of the batch, shape (m, modes)."""
    sym = problem.boundary_symbols[k]
    return sym.contract(sym.table(xi_modes)[None],
                        lambda l: kernel_table(batch, np.array([0.0]), l)[:, :, 0])


def test_criterion_2_boundary_reproduction():
    worst = 0.0
    for factory in mdl.BUNDLED.values():
        problem = factory()
        sample = mdl.SectorSample.default(min(problem.phi, 0.7 * math.pi),
                                          n_rays=5, n_moduli=12)
        tgrid = TangentialGrid(n_axes=problem.n - 1, N=16, L=2.0 * math.pi)
        for lam in sample.points():
            batch = poi.kernel_batch(problem, lam, tgrid.xi_modes)
            for k in range(problem.m):
                tr = _boundary_trace_of_kernel(problem, batch,
                                               tgrid.xi_modes, k)
                for j in range(problem.m):
                    target = 1.0 if k == j else 0.0
                    worst = max(worst, float(np.abs(tr[j] - target).max()))
    ok = worst <= 1e-8
    _report(2, "boundary reproduction tr B_k Poi_j = delta_kj",
            ok, f"worst defect {worst:.2e}")


def _decay_query_sweep(problem, q):
    sample = mdl.SectorSample.default(min(problem.phi, 0.7 * math.pi),
                                      sigma_floor=1e2, n_rays=3,
                                      n_moduli=13, mod_max=1e6)
    if q.t > q.s:
        N = 512
        ximax = 1.2 * 1e6 ** (1.0 / problem.order)
        tgrid = TangentialGrid(n_axes=problem.n - 1, N=N,
                               L=2.0 * math.pi * (N / 2) / ximax)
        # datum saturating the s-indexed trace ball (the operator-order
        # offset m_j is already part of the predicted exponent)
        g = (1.0 + tgrid.xi_sq) ** (-(q.s + 0.5 + 0.05) / 2.0)
    else:
        tgrid = TangentialGrid(n_axes=problem.n - 1, N=16, L=2.0 * math.pi)
        g = np.zeros(tgrid.n_modes, dtype=complex)
        g[tgrid.mode_index(1.0)] = 1.0
    return poi.decay_sweep(problem, q, sample, g, tgrid)


def test_criterion_3_decay_exponents():
    dir_, neu, bil = (hp.dirichlet_laplacian(), hp.neumann_laplacian(),
                      hp.clamped_bilaplacian())
    queries = [
        # (problem, k, p, r, t, s, j)   bracket inactive
        (dir_, 0, 2.0, 0.0, 0.0, 0.0, 0),
        (dir_, 1, 2.0, 1.5, 0.0, 0.0, 0),
        (dir_, 0, 4.0, 0.0, 0.0, 0.0, 0),
        (dir_, 0, 2.0, 1.0, 0.0, 0.0, 0),
        (neu, 0, 2.0, 0.0, 0.0, 0.0, 0),
        (neu, 1, 2.0, 0.0, 0.0, 0.0, 0),
        (neu, 2, 2.0, 1.5, 0.0, 0.0, 0),
        (bil, 0, 2.0, 0.0, 0.0, 0.0, 0),
        (bil, 0, 2.0, 0.0, 0.0, 0.0, 1),
        # bracket active (t > s)
        (dir_, 0, 2.0, 0.0, 0.25, 0.0, 0),
        (dir_, 0, 2.0, 1.2, 0.5, 0.0, 0),
        (neu, 1, 2.0, 0.0, 0.25, 0.0, 0),
        (bil, 0, 2.0, 0.0, 0.25, 0.0, 0),
    ]
    start = time.perf_counter()
    worst = 0.0
    for problem, k, p, r, t, s, j in queries:
        q = poi.ExponentQuery.for_problem(problem, k=k, p=p, r=r, t=t, s=s, j=j)
        result = _decay_query_sweep(problem, q)
        worst = max(worst, result.max_deviation)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.05 and elapsed < 300.0
    _report(3, "sector decay exponents",
            ok, f"{len(queries)} queries, worst slope deviation {worst:.4f}, "
                f"{elapsed:.0f}s")


def test_criterion_4_boundary_singularity():
    worst = 0.0
    details = []
    for problem in (hp.dirichlet_laplacian(), hp.neumann_laplacian()):
        result = poi.singularity_sweep(problem, 0, 4.0 + 0j, 1.0, 0.0,
                                       np.logspace(-4, -1, 40))
        worst = max(worst, result.max_deviation)
        slopes = ", ".join(f"{v:+.3f}" for v in result.slopes)
        details.append(f"{problem.name} fitted_slopes {slopes}")
    ok = worst <= 0.1
    _report(4, "boundary singularity exponent",
            ok, "; ".join(details) + f"; target -1, worst dev {worst:.3f}")


def test_criterion_5_halfspace_resolvent():
    problem = hp.dirichlet_laplacian()
    tgrid = TangentialGrid(n_axes=1, N=8, L=2.0 * math.pi)
    lam = 4.0 + 2.0j
    residuals, traces = [], []
    for N in (128, 256, 512):
        ug = UniformHalfGrid(X=12.0, N=N)
        f = np.zeros((tgrid.n_modes, ug.N), dtype=complex)
        f[tgrid.mode_index(1.0)] = np.exp(-ug.x)
        u = res.halfspace_resolvent(problem, lam, f, tgrid.xi_modes, ug)
        residuals.append(res.interior_residual_fd(problem, lam, u, f,
                                                  tgrid.xi_modes, ug))
        traces.append(float(np.abs(
            res.boundary_trace_fd(problem, u, tgrid.xi_modes, ug)).max()))
    order = math.log2(residuals[0] / residuals[2]) / 2.0
    # sectoriality: |lambda| ||R(lambda) f|| / ||f|| stays within 2x of its
    # per-ray median across three modulus decades
    ug = UniformHalfGrid(X=12.0, N=128)
    f = np.zeros((tgrid.n_modes, ug.N), dtype=complex)
    f[tgrid.mode_index(1.0)] = np.exp(-ug.x)
    spread_ok = True
    for ray in np.linspace(-0.6 * math.pi, 0.6 * math.pi, 5):
        vals = []
        for mod in np.logspace(1, 4, 7):
            lam_s = mod * cmath.exp(1j * ray)
            u = res.halfspace_resolvent(problem, lam_s, f, tgrid.xi_modes, ug)
            vals.append(mod * float(np.linalg.norm(u))
                        / float(np.linalg.norm(f)))
        med = float(np.median(vals))
        if max(vals) > 2.0 * med or min(vals) < med / 2.0:
            spread_ok = False
    ok = (residuals[-1] <= 1e-4 and traces[-1] <= 1e-4 and order >= 2.0
          and spread_ok)
    _report(5, "half-space resolvent",
            ok, f"residual {residuals[-1]:.2e}, trace {traces[-1]:.2e}, "
                f"order {order:.2f}, sectorial spread ok: {spread_ok}")


def test_criterion_6_weighted_hilbert_operator():
    grid = HalfLineGrid(x_min=1e-16, ratio=1.08, n_points=1000)
    fine = grid.refined(2)
    est = sp.hardy_norm(2.0, 0.0, fine)
    pi_err = abs(est - math.pi) / math.pi
    # grid stability at the two interior weights
    stable = True
    for p in (2.0,):
        for r in (0.4 * (p - 1.0), 0.8 * (p - 1.0)):
            a = sp.hardy_norm(p, r, grid)
            b = sp.hardy_norm(p, r, fine)
            if abs(a - b) / b > 0.01:
                stable = False
    # fixed-grid monotonicity in the weight exponent
    p = 2.0
    ests = [sp.hardy_norm(p, fr * (p - 1.0), grid)
            for fr in (0.0, 0.2, 0.4, 0.6, 0.8)]
    monotone = all(ests[i] < ests[i + 1] for i in range(len(ests) - 1))
    ok = pi_err <= 0.02 and stable and monotone
    _report(6, "weighted Hilbert operator norm",
            ok, f"p=2 estimate {est:.5f} (err {pi_err:.3%}), "
                f"grid-stable: {stable}, monotone in r: {monotone}")


def test_criterion_7_parameter_norm_equivalence():
    rng = np.random.default_rng(0)
    tgrid = TangentialGrid(n_axes=1, N=128, L=2.0 * math.pi)
    s, s0 = 2.0, 0.0
    mus = np.logspace(0, 4, 9)
    ratios = []
    for _ in range(100):
        fhat = rng.standard_normal(tgrid.N) + 1j * rng.standard_normal(tgrid.N)
        fhat[tgrid.N // 4: 3 * tgrid.N // 4] = 0.0
        for mu in mus:
            lhs = sp.param_norm(fhat, s, s0, mu, tgrid)
            rhs = (sp.space_norm(fhat, s, tgrid)
                   + (1.0 + mu ** 2) ** ((s - s0) / 2.0)
                   * sp.space_norm(fhat, s0, tgrid))
            ratios.append(lhs / rhs)
    C_equiv = max(max(ratios), 1.0 / min(ratios))
    xi_n = 2.0 * math.pi * np.fft.fftfreq(64, d=2.0 * math.pi / 64)
    lift = []
    for _ in range(100):
        f2 = (rng.standard_normal((tgrid.N, 64))
              + 1j * rng.standard_normal((tgrid.N, 64)))
        lift.append(sp.mixed_lifting_check(f2, 2.0, tgrid, xi_n))
    C_lift = max(max(lift), 1.0 / min(lift))
    ok = C_equiv <= 4.0 and C_lift <= 4.0
    _report(7, "parameter-dependent norm equivalence",
            ok, f"C_equivalence {C_equiv:.3f}, C_lifting {C_lift:.3f} (<= 4)")


def test_criterion_8_non_r_boundedness():
    ratios, stderrs = rb.dirichlet_nonrbound_experiment(
        p=1.2, N_list=(4, 8, 16, 32, 64), trials=1024, seed=0)
    flat, flat_stderrs = rb.dirichlet_nonrbound_experiment(
        p=2.0, N_list=(4, 8, 16, 32, 64), trials=1024, seed=0)
    growth = ratios[-1] / ratios[0]
    plateau = flat.max() / flat.min()
    stderr_ok = bool(np.all(np.concatenate([stderrs / ratios, flat_stderrs / flat])
                            <= 0.03))
    ok = growth >= 1.5 and plateau <= 1.3 and stderr_ok
    _report(8, "non-R-boundedness signature",
            ok, f"p=1.2 growth {growth:.2f}x (>= 1.5), "
                f"p=2 spread {plateau:.3f}x (<= 1.3), stderr ok: {stderr_ok}")


def test_criterion_9_parabolic_solvers():
    problem = hp.dirichlet_laplacian()
    tgrid = TangentialGrid(n_axes=1, N=8, L=2.0 * math.pi)
    # single space-time mode against the elliptic kernel
    tgrid_t = TangentialGrid(n_axes=1, N=16, L=2.0 * math.pi)
    times = 2.0 * math.pi / 16 * np.arange(16)
    x_nodes = np.linspace(0.0, 4.0, 17)
    q0 = tgrid.mode_index(1.0)
    tau0 = tgrid_t.xi_axis[2]
    g = [np.zeros((16, tgrid.n_modes), dtype=complex)]
    g[0][:, q0] = np.exp(1j * tau0 * times)
    sol = pb.parabolic_boundary_solve(problem, g, 1.0, tgrid_t, tgrid.xi_modes, x_nodes)
    batch = poi.kernel_batch(problem, 1.0 + 1j * tau0, tgrid.xi_modes)
    oracle = (np.exp(1j * tau0 * times)[:, None]
              * kernel_table(batch, x_nodes, 0)[0, q0][None, :])
    mode_dev = (float(np.abs(sol.values[:, q0, :] - oracle).max())
                / float(np.abs(oracle).max()))
    # initial-boundary value problem: splitting self-consistency at the wall
    ug = UniformHalfGrid(X=30.0, N=1024)
    T, N_t = 0.5, 16
    # g_0 = sin^2(pi/2 t/T) on the mode q0, sampled at T k / N_t
    g = np.zeros((1, N_t + 1, tgrid.n_modes), dtype=complex)
    g[0, :, q0] = np.sin(math.pi * np.arange(N_t + 1) / N_t / 2.0) ** 2
    u0 = np.zeros((tgrid.n_modes, ug.N), dtype=complex)
    ib = pb.ibvp_solve(problem, u0, g, T, tgrid.xi_modes, ug, [T / 2, T])
    # the data at T/2 and T are the samples k = N_t/2 and N_t
    target = g[0, [N_t // 2, N_t]]
    tr = res.boundary_trace_fd(problem, ib.values, tgrid.xi_modes, ug)[0]
    trace_dev = float(np.max(np.abs(tr - target).max(axis=1)
                             / np.abs(target).max(axis=1)))
    # pure initial-value run against the reflection (images) heat kernel
    u0i = np.zeros((tgrid.n_modes, ug.N), dtype=complex)
    u0i[q0] = (ug.x ** 2) * np.exp(-ug.x)
    t_eval = 0.25
    iv = pb.ibvp_solve(problem, u0i, np.zeros((1, 9, tgrid.n_modes)), T,
                       tgrid.xi_modes, ug, [t_eval])
    y = np.linspace(0.0, 60.0, 24001)
    w0 = (y ** 2) * np.exp(-y)

    def G(z):
        return np.exp(-z ** 2 / (4 * t_eval)) / math.sqrt(4 * math.pi * t_eval)

    oracle_iv = np.array([
        trapezoid((G(x - y) - G(x + y)) * w0, y) for x in ug.x
    ]) * math.exp(-t_eval)
    images_dev = (float(np.abs(iv.values[0, q0] - oracle_iv).max())
                  / float(np.abs(oracle_iv).max()))
    ok = mode_dev <= 1e-8 and trace_dev <= 1e-3 and images_dev <= 1e-3
    _report(9, "parabolic solvers",
            ok, f"single-mode {mode_dev:.2e} (<= 1e-8), "
                f"boundary trace {trace_dev:.2e} (<= 1e-3), "
                f"images oracle {images_dev:.2e} (<= 1e-3)")
