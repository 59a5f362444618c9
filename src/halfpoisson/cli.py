"""Command-line front end: experiment orchestration and serialization.

Every subcommand reads a problem JSON (``--problem``, defaulting to the
bundled Dirichlet Laplacian), runs one verification experiment, writes CSV
and JSON artifacts into ``--out``, and exits 0 when all declared tolerances
hold, 2 on a tolerance failure, 1 on input errors.  CSV bodies are
deterministic for a fixed seed (full double precision, shortest round-trip
formatting); timestamps live in a sidecar ``metadata.json`` only.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import model as mdl
from . import companion as comp
from . import parabolic as pb
from . import poisson as poi
from . import rbound as rb
from . import resolvent as res
from . import spaces as sp
from .grids import HalfLineGrid, TangentialGrid, UniformHalfGrid

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_TOLERANCE = 2


def _fmt(x) -> str:
    """Shortest round-trip decimal representation."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_metadata(outdir: Path, args, extra=None) -> None:
    doc = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "seed": args.seed,
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "problem": str(args.problem) if args.problem else None,
    }
    if extra:
        doc.update(extra)
    _write_json(outdir / "metadata.json", doc)


# BLAS thread settings take effect only if set before NumPy loads, so they
# are recorded as found, never set here
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


_SVG_COLOURS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _write_svg_loglog(path: Path, series, xlabel: str, ylabel: str) -> None:
    """Write ``series`` ({label: (xs, ys)}) as a log-log SVG line plot.

    One ``<polyline>`` per series on axes spanning whole decades; axis and
    series labels are ``<text>``.  Points with a non-finite or non-positive
    coordinate are left out.  Coordinates are printed to 0.01 px, so the
    same data always give the same bytes.
    """
    from xml.sax.saxutils import escape

    W, H, L, R, T, B = 480, 320, 64, 112, 16, 48  # canvas and margins, px
    logs = {label: [(math.log10(x), math.log10(y)) for x, y in zip(xs, ys)
                    if 0 < x < math.inf and 0 < y < math.inf]
            for label, (xs, ys) in series.items()}
    pts = [p for line in logs.values() for p in line]

    def decades(k):
        lo = math.floor(min((p[k] for p in pts), default=0.0))
        hi = math.ceil(max((p[k] for p in pts), default=1.0))
        return lo, max(hi, lo + 1)

    (x0, x1), (y0, y1) = decades(0), decades(1)

    def px(lx):
        return L + (lx - x0) / (x1 - x0) * (W - L - R)

    def py(ly):
        return H - B - (ly - y0) / (y1 - y0) * (H - T - B)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}"'
           f' font-family="sans-serif" font-size="11">',
           f'<rect x="{L}" y="{T}" width="{W - L - R}" height="{H - T - B}"'
           f' fill="none" stroke="black"/>']
    for d in range(x0, x1 + 1, max(1, (x1 - x0) // 8)):
        out.append(f'<text x="{px(d):.2f}" y="{H - B + 14}"'
                   f' text-anchor="middle">1e{d}</text>')
    for d in range(y0, y1 + 1, max(1, (y1 - y0) // 8)):
        out.append(f'<text x="{L - 4}" y="{py(d) + 4:.2f}"'
                   f' text-anchor="end">1e{d}</text>')
    out.append(f'<text x="{(L + W - R) / 2:.2f}" y="{H - 8}"'
               f' text-anchor="middle">{escape(xlabel)}</text>')
    out.append(f'<text transform="translate(14 {(T + H - B) / 2:.2f}) rotate(-90)"'
               f' text-anchor="middle">{escape(ylabel)}</text>')
    for i, (label, line) in enumerate(logs.items()):
        colour = _SVG_COLOURS[i % len(_SVG_COLOURS)]
        coords = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in line)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{colour}"/>')
        out.append(f'<text x="{W - R + 8}" y="{T + 12 + 14 * i}"'
                   f' fill="{colour}">{escape(label)}</text>')
    out.append("</svg>")
    path.write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")


def _maybe_plot(args, outdir: Path, name: str, series,
                xlabel: str, ylabel: str) -> None:
    if not args.plot:
        return
    try:
        _write_svg_loglog(outdir / f"{name}.svg", series, xlabel, ylabel)
    except OSError as exc:  # plotting never changes the numeric exit status
        print(f"plot skipped: {exc}", file=sys.stderr)


def _load_problem(args) -> mdl.ModelProblem:
    if args.problem is None:
        return mdl.dirichlet_laplacian()
    path = Path(args.problem)
    if not path.exists() and path.stem in mdl.BUNDLED:
        return mdl.BUNDLED[path.stem]()
    return mdl.load_problem(path)


def _load_config(args) -> dict:
    if not args.config:
        return {}
    with open(args.config, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _default_tgrid(problem, N=64, L=2.0 * math.pi) -> TangentialGrid:
    return TangentialGrid(n_axes=problem.n - 1, N=N, L=L)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_check_ls(args, outdir: Path) -> int:
    problem = _load_problem(args)
    cfg = _load_config(args)
    ell = mdl.check_ellipticity(problem)
    report = {
        "problem": problem.name,
        "ellipticity_pass": bool(ell.passed),
        "worst_margin": ell.worst_margin,
        "worst_direction": list(ell.worst_direction) if ell.worst_direction else None,
    }
    if ell.passed:
        sample = mdl.SectorSample.default(problem.phi,
                                          n_moduli=cfg.get("n_moduli", 8),
                                          n_rays=cfg.get("n_rays", 5))
        ls = mdl.check_lopatinskii_shapiro(problem, sample)
        report.update({
            "ls_pass": bool(ls.passed),
            "ls_min_singular_value": ls.min_singular_value,
            "ls_worst_point": repr(ls.worst_point),
            "ls_condition_number": ls.condition_number,
        })
        ok = ell.passed and ls.passed
    else:
        ok = False
    _write_json(outdir / "check_ls.json", report)
    print(json.dumps(report, indent=2))
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_poisson_eval(args, outdir: Path) -> int:
    problem = _load_problem(args)
    cfg = _load_config(args)
    lam = complex(*cfg.get("lambda", [4.0, 1.0]))
    j = cfg.get("j", 0)
    tgrid = _default_tgrid(problem, N=cfg.get("N_x", 16))
    rate = poi.decay_rate(problem, lam)
    xgrid = HalfLineGrid.for_decay(rate)
    grid = poi.GridSpec(tangential=tgrid, normal=xgrid)
    g = np.zeros(tgrid.n_modes, dtype=complex)
    g[tgrid.mode_index(cfg.get("xi0", 1.0))] = 1.0
    u = poi.poisson_apply(problem, lam, j, g, grid)
    rows = []
    for q in range(tgrid.n_modes):
        if not np.any(u.values[q]):
            continue
        for i, x in enumerate(xgrid.x):
            rows.append((q, x, u.values[q, i].real, u.values[q, i].imag))
    _write_csv(outdir / "poisson_eval.csv", ("mode", "x_n", "re", "im"), rows)
    # boundary reproduction at the evaluated point
    worst = 0.0
    batch = poi.kernel_batch(problem, lam, tgrid.xi_modes)
    for k in range(problem.m):
        # evaluate tr B_k of the kernel from the exact root basis
        tr = np.zeros(tgrid.n_modes, dtype=complex)
        for beta, bco in problem.boundary_ops[k].coeffs.items():
            tang = np.full(tgrid.n_modes, bco, dtype=complex)
            for ax, e in enumerate(beta[:-1]):
                if e:
                    tang = tang * tgrid.xi_modes[:, ax] ** e
            tr += tang * np.einsum("ql,ql->q", batch.coeff[j],
                                   batch.taus ** beta[-1])
        target = 1.0 if k == j else 0.0
        worst = max(worst, float(np.abs(tr - target).max()))
    _write_json(outdir / "poisson_eval.json",
                {"lambda": [lam.real, lam.imag], "j": j,
                 "boundary_reproduction_defect": worst})
    print(f"boundary reproduction defect: {worst:.3e}")
    return EXIT_OK if worst <= 1e-8 else EXIT_TOLERANCE


def _default_query(problem, cfg) -> poi.ExponentQuery:
    return poi.ExponentQuery.for_problem(
        problem,
        k=cfg.get("k", 0), p=cfg.get("p", 2.0), r=cfg.get("r", 0.0),
        t=cfg.get("t", 0.0), s=cfg.get("s", 0.0), j=cfg.get("j", 0),
    )


def cmd_decay_sweep(args, outdir: Path) -> int:
    problem = _load_problem(args)
    cfg = _load_config(args)
    q = _default_query(problem, cfg)
    sample = mdl.SectorSample.default(
        min(problem.phi, 0.7 * math.pi), sigma_floor=cfg.get("sigma_floor", 1e2),
        n_rays=cfg.get("n_rays", 5), n_moduli=cfg.get("n_moduli", 13),
        mod_max=cfg.get("mod_max", 1e6))
    tgrid = _default_tgrid(problem, N=cfg.get("N_x", 16))
    bracket_active = q.t > q.s
    if bracket_active:
        ximax = 1.2 * max(sample.moduli) ** (1.0 / problem.order)
        tgrid = TangentialGrid(n_axes=problem.n - 1, N=cfg.get("N_x", 512),
                               L=2.0 * math.pi * (cfg.get("N_x", 512) / 2) / ximax)
        # datum saturating the s-indexed trace ball; the operator-order
        # offset m_j is already part of the predicted exponent
        xi_abs = np.sqrt(np.atleast_1d(tgrid.xi_sq).reshape(-1))
        g = (1.0 + xi_abs ** 2) ** (-(q.s + 0.5 + 0.05) / 2.0)
    else:
        g = np.zeros(tgrid.n_modes, dtype=complex)
        g[tgrid.mode_index(1.0)] = 1.0
    spec_t = sp.SpaceSpec(scale="H", s=q.t, p=2)
    result = poi.decay_sweep(problem, q.j, q, sample, g, spec_t, tgrid)
    rows = [
        (rec.ray_arg, rec.lambda_mod, rec.norm, result.predicted,
         result.fitted_slopes.get(rec.ray_arg, math.nan))
        for rec in result.records
    ]
    _write_csv(outdir / "decay_sweep.csv",
               ("ray_arg", "lambda_mod", "norm", "predicted", "fitted_slope"),
               rows)
    _write_json(outdir / "decay_sweep.json", {
        "predicted": result.predicted,
        "fitted_slopes": {repr(k): v for k, v in result.fitted_slopes.items()},
        "max_deviation": result.max_deviation,
    })
    by_ray = {}
    for rec in result.records:
        by_ray.setdefault(rec.ray_arg, ([], []))
        by_ray[rec.ray_arg][0].append(rec.lambda_mod)
        by_ray[rec.ray_arg][1].append(rec.norm)
    _maybe_plot(args, outdir, "decay_sweep",
                {f"arg={k:.3f}": v for k, v in by_ray.items()},
                "|lambda|", "norm")
    print(f"predicted slope {result.predicted:+.4f}, "
          f"max deviation {result.max_deviation:.4f}")
    return EXIT_OK if result.max_deviation <= 0.05 else EXIT_TOLERANCE


def cmd_singularity_sweep(args, outdir: Path) -> int:
    problem = _load_problem(args)
    cfg = _load_config(args)
    t, s = cfg.get("t", 1.0), cfg.get("s", 0.0)
    lam = complex(*cfg.get("lambda", [4.0, 0.0]))
    N_x = cfg.get("N_x", 2048)
    ximax = cfg.get("xi_max", 2.0e4)
    tgrid = TangentialGrid(n_axes=problem.n - 1, N=N_x,
                           L=2.0 * math.pi * (N_x / 2) / ximax)
    s_eff = s - problem.boundary_ops[cfg.get("j", 0)].order
    xi_abs = np.sqrt(np.atleast_1d(tgrid.xi_sq).reshape(-1))
    g = (1.0 + xi_abs ** 2) ** (-(s_eff + 0.5 + 0.05) / 2.0)
    x_range = np.logspace(-4, -1, cfg.get("n_x_pts", 40))
    result = poi.singularity_sweep(problem, cfg.get("j", 0), lam, g, t, s,
                                   x_range, tgrid)
    slope = next(iter(result.fitted_slopes.values()), math.nan)
    rows = [(rec.ray_arg, rec.lambda_mod, rec.norm, result.predicted, slope)
            for rec in result.records]
    _write_csv(outdir / "singularity_sweep.csv",
               ("ray_arg", "x_n", "norm", "predicted", "fitted_slope"), rows)
    _maybe_plot(args, outdir, "singularity_sweep",
                {"profile": (x_range, [rec.norm for rec in result.records])},
                "x_n", "tangential norm")
    print(f"predicted slope {result.predicted:+.4f}, fitted {slope:+.4f}")
    return EXIT_OK if result.max_deviation <= 0.1 else EXIT_TOLERANCE


def cmd_hardy_norm(args, outdir: Path) -> int:
    cfg = _load_config(args)
    p = cfg.get("p", 2.0)
    grid = HalfLineGrid(x_min=cfg.get("x_min", 1e-16), ratio=cfg.get("ratio", 1.08),
                        n_points=cfg.get("n_points", 1000))
    rows = []
    # reference run at p = 2, r = 0 with one refinement
    est_pi = sp.hardy_norm(2.0, 0.0, grid)
    est_pi_f = sp.hardy_norm(2.0, 0.0, grid.refined(2))
    rows.append((2.0, 0.0, grid.n_points, est_pi, abs(est_pi - math.pi) / math.pi))
    rows.append((2.0, 0.0, grid.refined(2).n_points, est_pi_f,
                 abs(est_pi_f - math.pi) / math.pi))
    r_list = [0.0, 0.4 * (p - 1.0), 0.8 * (p - 1.0)]
    ests = []
    for r in r_list:
        e = sp.hardy_norm(p, r, grid)
        ests.append(e)
        rows.append((p, r, grid.n_points, e, math.nan))
    _write_csv(outdir / "hardy_norm.csv",
               ("p", "r", "n_points", "norm", "rel_err_vs_pi"), rows)
    monotone = all(ests[i] < ests[i + 1] for i in range(len(ests) - 1))
    ok = abs(est_pi_f - math.pi) / math.pi <= 0.02 and monotone
    print(f"p=2,r=0 refined estimate {est_pi_f:.6f} (pi = {math.pi:.6f}); "
          f"monotone in r: {monotone}")
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_norm_check(args, outdir: Path) -> int:
    cfg = _load_config(args)
    rng = np.random.default_rng(args.seed or 0)
    tgrid = TangentialGrid(n_axes=1, N=cfg.get("N_x", 128), L=2.0 * math.pi)
    s, s0 = cfg.get("s", 2.0), cfg.get("s0", 0.0)
    base = sp.SpaceSpec(scale="H", s=s0, p=2)
    mus = np.logspace(0, 4, cfg.get("n_mu", 9))
    ratios = []
    rows = []
    for trial in range(cfg.get("trials", 100)):
        fhat = (rng.standard_normal(tgrid.N) + 1j * rng.standard_normal(tgrid.N))
        fhat[tgrid.N // 4: 3 * tgrid.N // 4] = 0.0   # band-limit
        for mu in mus:
            lhs = sp.param_norm(fhat, s, s0, mu, base, tgrid)
            rhs = (sp.space_norm(fhat, sp.SpaceSpec(scale="H", s=s, p=2), tgrid)
                   + (1.0 + mu ** 2) ** ((s - s0) / 2.0)
                   * sp.space_norm(fhat, base, tgrid))
            ratio = lhs / rhs
            ratios.append(ratio)
            rows.append((trial, mu, lhs, rhs, ratio))
    C_equiv = max(max(ratios), 1.0 / min(ratios))
    # mixed lifting on a 2-D grid
    xi_n = 2.0 * math.pi * np.fft.fftfreq(64, d=2.0 * math.pi / 64)
    lift_ratios = []
    for trial in range(cfg.get("trials", 100)):
        f2 = rng.standard_normal((tgrid.N, 64)) + 1j * rng.standard_normal((tgrid.N, 64))
        rep = sp.mixed_lifting_check(f2, cfg.get("t", 2.0), tgrid, xi_n)
        lift_ratios.append(rep.ratio_min)
    C_lift = max(max(lift_ratios), 1.0 / min(lift_ratios))
    _write_csv(outdir / "norm_check.csv",
               ("trial", "mu", "param_norm", "split_norm", "ratio"), rows)
    _write_json(outdir / "norm_check.json",
                {"C_equivalence": C_equiv, "C_lifting": C_lift})
    print(f"equivalence constant {C_equiv:.3f}, lifting constant {C_lift:.3f}")
    return EXIT_OK if (C_equiv <= 4.0 and C_lift <= 4.0) else EXIT_TOLERANCE


def cmd_resolvent_test(args, outdir: Path) -> int:
    problem = _load_problem(args)
    cfg = _load_config(args)
    tgrid = _default_tgrid(problem, N=cfg.get("N_x", 8))
    lam = complex(*cfg.get("lambda", [4.0, 2.0]))
    rows = []
    residuals, traces_ = [], []
    grids = [UniformHalfGrid(X=cfg.get("X", 12.0), N=cfg.get("N_z", 128) * (2 ** i))
             for i in range(3)]
    data = []
    for ug in grids:
        f = np.zeros((tgrid.n_modes, ug.N), dtype=complex)
        f[tgrid.mode_index(1.0)] = np.exp(-ug.x)
        data.append((f, res.resolvent_source(problem, f, tgrid, ug)))
    for ug, (f, src) in zip(grids, data):
        sol = res.halfspace_resolvent(problem, lam, src, tgrid, ug)
        rres = res.interior_residual_fd(problem, lam, sol.u, f, tgrid, ug)
        tdef = max(
            float(np.abs(res.boundary_trace_fd(problem, sol.u, tgrid, ug, j)).max())
            for j in range(problem.m))
        residuals.append(rres)
        traces_.append(tdef)
        rows.append((ug.N, rres, tdef))
    order_res = math.log2(residuals[0] / residuals[2]) / 2 if residuals[2] > 0 else math.inf
    _write_csv(outdir / "resolvent_refine.csv",
               ("N_z", "interior_residual", "trace_defect"), rows)
    # sectoriality shadow over three decades per ray
    srows = []
    ratios_per_ray = {}
    ug, (f, src) = grids[0], data[0]
    f_norm = max(float(np.linalg.norm(f)), 1e-300)
    for ray in np.linspace(-0.6 * math.pi, 0.6 * math.pi, 5):
        for mod in np.logspace(1, 4, 7):
            lam_s = mod * cmath.exp(1j * ray)
            sol = res.halfspace_resolvent(problem, lam_s, src, tgrid, ug)
            nrm = float(np.linalg.norm(sol.u)) / f_norm
            ratios_per_ray.setdefault(ray, []).append(mod * nrm)
            srows.append((ray, mod, mod * nrm))
    _write_csv(outdir / "resolvent_sectoriality.csv",
               ("ray_arg", "lambda_mod", "lam_norm_ratio"), srows)
    spread_ok = True
    for ray, vals in ratios_per_ray.items():
        med = float(np.median(vals))
        if max(vals) > 2.0 * med or min(vals) < med / 2.0:
            spread_ok = False
    ok = (residuals[2] <= 1e-4 and traces_[2] <= 1e-4
          and order_res >= 2.0 and spread_ok)
    _write_json(outdir / "resolvent_test.json", {
        "residuals": residuals, "trace_defects": traces_,
        "order": order_res, "sectoriality_spread_ok": spread_ok,
    })
    print(f"residuals {residuals}, traces {traces_}, order {order_res:.2f}, "
          f"sectorial spread ok: {spread_ok}")
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_semigroup_test(args, outdir: Path) -> int:
    problem = _load_problem(args)
    cfg = _load_config(args)
    tgrid = _default_tgrid(problem, N=cfg.get("N_x", 8))
    # X large enough that the initial profile has fully decayed at the wrap
    ug = UniformHalfGrid(X=cfg.get("X", 30.0), N=cfg.get("N_z", 2048))
    # compatible initial state: one tangential mode, normal profile vanishing
    # at 0 together with its derivative (covers the bundled conditions)
    u0 = np.zeros((tgrid.n_modes, ug.N), dtype=complex)
    u0[tgrid.mode_index(1.0)] = (ug.x ** 2) * np.exp(-ug.x)
    t1, t2 = cfg.get("t1", 0.1), cfg.get("t2", 0.2)
    T1 = res.semigroup_apply(problem, u0, t1, tgrid, ug)
    T2 = res.semigroup_apply(problem, u0, t2, tgrid, ug)
    T12 = res.semigroup_apply(problem, T1, t2, tgrid, ug)
    Tsum = res.semigroup_apply(problem, u0, t1 + t2, tgrid, ug)
    semi_dev = (float(np.linalg.norm(T12 - Tsum))
                / max(float(np.linalg.norm(Tsum)), 1e-300))
    small = res.semigroup_apply(problem, u0, cfg.get("t_small", 1e-6), tgrid, ug)
    id_dev = float(np.linalg.norm(small - u0)) / float(np.linalg.norm(u0))
    _write_json(outdir / "semigroup_test.json",
                {"semigroup_property_dev": semi_dev, "identity_dev": id_dev})
    print(f"semigroup property deviation {semi_dev:.2e}, "
          f"t->0 deviation {id_dev:.2e}")
    ok = semi_dev <= 1e-4 and id_dev <= 0.01
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_parabolic_solve(args, outdir: Path) -> int:
    problem = _load_problem(args)
    cfg = _load_config(args)
    tgrid = _default_tgrid(problem, N=cfg.get("N_x", 8))
    tg = pb.TimeGrid(N_t=cfg.get("N_t", 16), T_per=cfg.get("T_per", 2.0 * math.pi),
                     sigma=cfg.get("sigma", 1.0))
    x_nodes = np.linspace(0.0, 4.0, cfg.get("n_x_pts", 33))
    q0 = tgrid.mode_index(1.0)
    tau0 = tg.taus[1]
    g = []
    for j in range(problem.m):
        gj = np.zeros((tg.N_t, tgrid.n_modes), dtype=complex)
        if j == 0:
            gj[:, q0] = np.exp(1j * tau0 * tg.times)
        g.append(gj)
    sol = pb.parabolic_boundary_solve(problem, g, tg, tgrid, x_nodes)
    # single-mode oracle: one elliptic solve at lambda = sigma + i tau0
    batch = poi.kernel_batch(problem, tg.sigma + 1j * tau0, tgrid.xi_modes)
    kern = batch.eval(x_nodes, 0)[0, q0]
    oracle = np.exp(1j * tau0 * tg.times)[:, None] * kern[None, :]
    dev = (float(np.abs(sol.values[:, q0, :] - oracle).max())
           / max(float(np.abs(oracle).max()), 1e-300))
    rows = [
        (t, x, sol.values[it, q0, ix].real, sol.values[it, q0, ix].imag)
        for it, t in enumerate(tg.times) for ix, x in enumerate(x_nodes)
    ]
    _write_csv(outdir / "parabolic_solve.csv", ("t", "x_n", "re", "im"), rows)
    _write_json(outdir / "parabolic_solve.json", {"single_mode_dev": dev})
    print(f"single-mode closed-form deviation {dev:.2e}")
    return EXIT_OK if dev <= 1e-8 else EXIT_TOLERANCE


def cmd_ibvp_solve(args, outdir: Path) -> int:
    problem = _load_problem(args)
    cfg = _load_config(args)
    tgrid = _default_tgrid(problem, N=cfg.get("N_x", 8))
    ug = UniformHalfGrid(X=cfg.get("X", 30.0), N=cfg.get("N_z", 1024))
    T = cfg.get("T", 0.5)
    sigma = cfg.get("sigma", 1.0)
    # boundary data: one space-time mode, smoothly switched on
    q0 = tgrid.mode_index(1.0)

    def g0(t):
        out = np.zeros(tgrid.n_modes, dtype=complex)
        out[q0] = math.sin(math.pi * min(t / T, 1.0) / 2.0) ** 2
        return out

    g = [g0] + [lambda t: np.zeros(tgrid.n_modes, dtype=complex)
                for _ in range(problem.m - 1)]
    u0 = np.zeros((tgrid.n_modes, ug.N), dtype=complex)
    out_times = np.array(cfg.get("out_times", [T / 2, T]))
    sol = pb.ibvp_solve(problem, u0, None, g, T, sigma, tgrid, ug, out_times,
                        N_t=cfg.get("N_t", 16))
    # consistency: boundary trace of u should match g at the output times
    worst = 0.0
    for it, t in enumerate(out_times):
        tr = res.boundary_trace_fd(problem, sol.values[it], tgrid, ug, 0)
        target = g0(t)
        scale = max(float(np.abs(target).max()), 1e-300)
        worst = max(worst, float(np.abs(tr - target).max()) / scale)
    rows = [
        (t, x, sol.values[it, q0, ix].real, sol.values[it, q0, ix].imag)
        for it, t in enumerate(out_times) for ix, x in enumerate(ug.x)
    ]
    _write_csv(outdir / "ibvp_solve.csv", ("t", "x_n", "re", "im"), rows)
    _write_json(outdir / "ibvp_solve.json", {
        "boundary_trace_dev": worst,
        "compatibility_defect": sol.compatibility_defect,
    })
    print(f"boundary trace deviation {worst:.2e}; "
          f"compatibility defect {sol.compatibility_defect:.2e}")
    return EXIT_OK if worst <= 1e-2 else EXIT_TOLERANCE


def cmd_rbound_sim(args, outdir: Path) -> int:
    cfg = _load_config(args)
    p = cfg.get("p", args.p if args.p else 1.2)
    rows = rb.dirichlet_nonrbound_experiment(
        p=p, sigma=cfg.get("sigma", 1.0),
        N_list=tuple(cfg.get("N_list", [4, 8, 16, 32, 64])),
        r=cfg.get("r", 0.0), trials=cfg.get("trials", 1024),
        seed=args.seed or 0)
    _write_csv(outdir / "rbound_sim.csv", ("p", "r", "N", "ratio", "stderr"),
               [(row.p, row.r, row.N, row.ratio, row.stderr) for row in rows])
    first, last = rows[0], rows[-1]
    growth = last.ratio / first.ratio
    if p < 2.0:
        ok = growth >= 1.5
    else:
        ratios = [row.ratio for row in rows]
        ok = max(ratios) / min(ratios) <= 1.3
    stderr_ok = all(row.stderr / row.ratio <= 0.03 for row in rows)
    print(f"p={p}: ratio growth N={first.N}->N={last.N}: {growth:.3f}x "
          f"(stderr ok: {stderr_ok})")
    return EXIT_OK if (ok and stderr_ok) else EXIT_TOLERANCE


COMMANDS = {
    "check-ls": cmd_check_ls,
    "poisson-eval": cmd_poisson_eval,
    "decay-sweep": cmd_decay_sweep,
    "singularity-sweep": cmd_singularity_sweep,
    "hardy-norm": cmd_hardy_norm,
    "norm-check": cmd_norm_check,
    "resolvent-test": cmd_resolvent_test,
    "semigroup-test": cmd_semigroup_test,
    "parabolic-solve": cmd_parabolic_solve,
    "ibvp-solve": cmd_ibvp_solve,
    "rbound-sim": cmd_rbound_sim,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfpoisson",
        description="Half-space Poisson-operator solvers and estimate checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp_ = sub.add_parser(name)
        sp_.add_argument("--problem", default=None,
                         help="problem JSON path or bundled name")
        sp_.add_argument("--config", default=None, help="config JSON path")
        sp_.add_argument("--out", default="out", help="output directory")
        sp_.add_argument("--plot", action="store_true", help="emit SVG plots")
        sp_.add_argument("--seed", type=int, default=0)
        if name == "rbound-sim":
            sp_.add_argument("--p", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        _write_metadata(outdir, args, extra={"command": args.command})
        return COMMANDS[args.command](args, outdir)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
