"""Command-line front end: experiment orchestration and serialization.

Every subcommand runs one verification experiment, writes CSV and JSON
artifacts into ``--out``, and exits 0 when all declared tolerances hold, 2 on
a tolerance failure, 1 on input errors (usage, config, problem file).  CSV
bodies are deterministic for a fixed seed (full double precision, shortest
round-trip formatting); timestamps live in a sidecar ``metadata.json`` only.

A subcommand is one function ``cmd_*(out, [flag=default, ...,] *, key=default,
...)`` that returns its gates, ``(name, value, kind, bound)`` with ``kind``
one of ``"le"``, ``"ge"``, ``"gt"`` or ``"bool"`` (bound None); its signature
is its interface.  After the ``--out`` directory come its flags, typed by
their defaults (``problem=None``, ``plot=False``, ``seed=0``), then the config
keys it accepts.  :func:`main` does the rest once for all: it parses the
command line, loads the problem (default: the Dirichlet Laplacian), checks the
``--config`` JSON object against the declared keys and the types of their
defaults, then prints each gate, records them in ``metadata.json`` as
``gates`` and exits 2 unless every gate holds.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import inspect
import json
import math
import operator
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import model as mdl
from . import parabolic as pb
from . import poisson as poi
from . import rbound as rb
from . import resolvent as res
from . import spaces as sp
from .grids import HalfLineGrid, TangentialGrid, UniformHalfGrid

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_TOLERANCE = 2


def _write_csv(path: Path, columns) -> None:
    """Write ``columns``, an ordered mapping from header to column, as CSV.

    A column is an array, or a scalar repeated down the column.  Every cell
    is the repr of its ``.tolist()`` value, the bytes ``csv.writer`` writes:
    a float by its shortest round-trip repr, an int by ``str``, a bool as
    1/0.  The headers are plain names, written as given.  Columns of
    unequal length raise ValueError.
    """
    cols = [np.asarray(c) for c in columns.values()]
    cols = [c.astype(int) if c.dtype == bool else c for c in cols]
    n = max((len(c) for c in cols if c.ndim), default=1)
    if any(c.ndim and c.shape != (n,) for c in cols):
        raise ValueError(f"CSV columns of unequal shapes: "
                         f"{dict(zip(columns, (c.shape for c in cols)))}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n"
                      for row in zip(*(np.broadcast_to(c, n).tolist() for c in cols)))


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


_SVG_COLOURS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _write_svg_loglog(path: Path, series, xlabel: str, ylabel: str) -> None:
    """Write ``series`` ({label: (xs, ys)}) as a log-log SVG line plot.

    One ``<polyline>`` per series on axes spanning whole decades; axis and
    series labels are ``<text>``.  Points with a non-finite or non-positive
    coordinate are left out.  Coordinates are printed to 0.01 px, so the
    same data always give the same bytes.  A file that cannot be written is
    reported and skipped: plotting never changes the exit status.
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
    try:
        path.write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"plot skipped: {exc}", file=sys.stderr)


def _check_j(problem, j: int) -> None:
    """Reject a boundary index outside 0..m-1; a negative one would index
    from the end."""
    if not 0 <= j < problem.m:
        raise ValueError(f"config key 'j' must lie in 0..{problem.m - 1}, got {j}")


def _check_least(key: str, value, least) -> None:
    """Reject a config value below the smallest one that can work."""
    if value < least:
        raise ValueError(f"config key {key!r} must be >= {least}, got {value}")


def _check_positive(**values) -> None:
    """Reject a config value that must be positive and is not."""
    for key, value in values.items():
        if not value > 0:
            raise ValueError(f"config key {key!r} must be positive, got {value}")


def _check_nonzero(key: str, value) -> None:
    """Reject a spectral parameter lambda = 0, where xi' = 0 degenerates."""
    if value == 0:
        raise ValueError(f"config key {key!r} must be nonzero, got {value}")


def _check_power_of_two(key: str, value: int, least: int) -> None:
    """Reject a grid size that is not a power of two >= ``least``."""
    if value < least or value & (value - 1):
        raise ValueError(f"config key {key!r} must be a power of two >= {least}, "
                         f"got {value}")


# _fit_slopes keeps the points in the middle 80 % of a log-spaced range:
# two of four, one of three
_FIT_POINTS = 4


def _tgrid(n_axes: int, N_x: int, L: float = 2.0 * math.pi) -> TangentialGrid:
    _check_power_of_two("N_x", N_x, 2)
    return TangentialGrid(n_axes=n_axes, N=N_x, L=L)


def _saturating_datum(problem, N_x: int, xi_max: float, s: float):
    """Tangential grid of N_x modes per axis reaching |xi'| = xi_max, and the
    datum <xi'>^{-(s + 1/2 + 0.05)} on it, which saturates the s-indexed trace
    ball of a bracket-active decay sweep.  Its exponent 1/2 needs n = 2."""
    if problem.n != 2:
        raise ValueError(f"'n' must be 2 for the saturating datum, got {problem.n}")
    tgrid = _tgrid(problem.n - 1, N_x, L=2.0 * math.pi * (N_x / 2) / xi_max)
    return tgrid, (1.0 + tgrid.xi_sq) ** (-(s + 0.5 + 0.05) / 2.0)


def _datum_mode(n: int) -> np.ndarray:
    """xi' = (0, ..., 0, 1), the one-mode commands' datum, as a one-row ``xi_modes``."""
    return np.eye(1, n - 1, n - 2)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_check_ls(out, problem=None, *, n_moduli=8, n_rays=5) -> list:
    ell = mdl.check_ellipticity(problem)
    report = {
        "problem": problem.name,
        "ellipticity_pass": bool(ell.passed),
        "worst_margin": ell.worst_margin,
        "worst_direction": list(ell.worst_direction) if ell.worst_direction else None,
    }
    gates = [("ellipticity", ell.passed, "bool", None)]
    if ell.passed:
        sample = mdl.SectorSample.default(problem.phi, n_moduli=n_moduli, n_rays=n_rays)
        ls = mdl.check_lopatinskii_shapiro(problem, sample)
        report.update({
            "ls_pass": bool(ls.passed),
            "ls_min_singular_value": ls.min_singular_value,
            "ls_worst_point": {"xi_prime": [float(v) for v in ls.worst_point[0]],
                               "lambda": [ls.worst_point[1].real, ls.worst_point[1].imag]},
            "ls_condition_number": ls.condition_number,
        })
        # strict, as ls.passed: check_lopatinskii_shapiro's threshold
        gates.append(("ls_min_singular_value", ls.min_singular_value, "gt", 1e-8))
    _write_json(out / "check_ls.json", report)
    return gates


def cmd_poisson_eval(out, problem=None, *, lambda_=4.0 + 1.0j, j=0, N_x=16,
                     xi0=1.0) -> list:
    _check_j(problem, j)
    _check_nonzero("lambda", lambda_)
    tgrid = _tgrid(problem.n - 1, N_x)
    q = tgrid.mode_index(xi0)
    xgrid = HalfLineGrid.for_decay(poi.decay_rate(problem, lambda_))
    data = np.zeros((problem.m, tgrid.n_modes), dtype=complex)
    data[j, q] = 1.0
    batch = poi.kernel_batch(problem, lambda_, tgrid.xi_modes)
    u = batch.eval(xgrid.x, data)
    live = np.flatnonzero(np.any(u, axis=1))
    _write_csv(out / "poisson_eval.csv", {
        "mode": np.repeat(live, len(xgrid.x)), "x_n": np.tile(xgrid.x, len(live)),
        "re": u[live].real.ravel(), "im": u[live].imag.ravel()})
    # boundary reproduction: tr B_k of kernel j by the route that evaluated
    # it, with unit data on every mode, is delta_jk
    unit = np.eye(problem.m)[:, [j]]
    tr = problem.boundary_traces(tgrid.xi_modes,
                                 lambda l: batch.eval(np.zeros(1), unit, l)[:, 0])
    worst = float(np.abs(tr - unit).max())
    _write_json(out / "poisson_eval.json",
                {"lambda": [lambda_.real, lambda_.imag], "j": j,
                 "boundary_reproduction_defect": worst})
    return [("boundary_reproduction_defect", worst, "le", 1e-8)]


def cmd_decay_sweep(out, problem=None, plot=False, *, k=0, p=2.0, r=0.0, t=0.0,
                    s=0.0, j=0, sigma_floor=1e2, n_rays=5, n_moduli=13,
                    mod_max=1e6, N_x=0) -> list:
    _check_j(problem, j)
    _check_least("n_moduli", n_moduli, _FIT_POINTS)
    q = poi.ExponentQuery.for_problem(problem, k=k, p=p, r=r, t=t, s=s, j=j)
    sample = mdl.SectorSample.default(
        min(problem.phi, 0.7 * math.pi), sigma_floor=sigma_floor,
        n_rays=n_rays, n_moduli=n_moduli, mod_max=mod_max)
    if q.t > q.s:
        # bracket active: the datum saturates the s-indexed trace ball; the
        # operator-order offset m_j is already part of the predicted exponent
        ximax = 1.2 * max(sample.moduli) ** (1.0 / problem.order)
        tgrid, g = _saturating_datum(problem, N_x or 512, ximax, q.s)
    else:
        tgrid = _tgrid(problem.n - 1, N_x or 16)
        g = np.zeros(tgrid.n_modes, dtype=complex)
        g[tgrid.mode_index(1.0)] = 1.0
    result = poi.decay_sweep(problem, q, sample, g, tgrid)
    rays, n_mod = np.array(sample.rays), len(result.x)
    _write_csv(out / "decay_sweep.csv", {
        "ray_arg": np.repeat(rays, n_mod), "lambda_mod": np.tile(result.x, len(rays)),
        "norm": result.norms.ravel(), "predicted": result.predicted,
        "fitted_slope": np.repeat(result.slopes, n_mod)})
    _write_json(out / "decay_sweep.json", {
        "predicted": result.predicted,
        "fitted_slopes": {repr(ray): slope for ray, slope
                          in zip(rays.tolist(), result.slopes.tolist())
                          if not math.isnan(slope)},
        "max_deviation": result.max_deviation,
    })
    if plot:
        _write_svg_loglog(out / "decay_sweep.svg",
                          {f"arg={ray:.3f}": (result.x, norms)
                           for ray, norms in zip(rays, result.norms)},
                          "|lambda|", "norm")
    return [("max_deviation", result.max_deviation, "le", 0.05)]


def cmd_singularity_sweep(out, problem=None, plot=False, *, t=1.0, s=0.0,
                          lambda_=4.0 + 0.0j, j=0, n_x_pts=40) -> list:
    _check_j(problem, j)
    _check_least("n_x_pts", n_x_pts, _FIT_POINTS)
    _check_nonzero("lambda", lambda_)
    x_range = np.logspace(-4, -1, n_x_pts)
    result = poi.singularity_sweep(problem, j, lambda_, t, s, x_range)
    _write_csv(out / "singularity_sweep.csv", {
        "ray_arg": cmath.phase(lambda_), "x_n": result.x, "norm": result.norms[0],
        "predicted": result.predicted, "fitted_slope": result.slopes[0]})
    if plot:
        series = {"profile": (result.x, result.norms[0])}
        _write_svg_loglog(out / "singularity_sweep.svg", series, "x_n", "tangential norm")
    # nan where the sup was cut short and the profile has no slope
    return [("max_deviation", abs(result.slopes[0] - result.predicted), "le", 0.1)]


def cmd_hardy_norm(out, *, p=2.0, x_min=1e-16, ratio=1.08, n_points=1000) -> list:
    grid = HalfLineGrid(x_min=x_min, ratio=ratio, n_points=n_points)
    # the p = 2, r = 0 reference with one refinement, then p at three weights
    cases = [(2.0, 0.0, grid), (2.0, 0.0, grid.refined(2))] + [
        (p, r, grid) for r in (0.0, 0.4 * (p - 1.0), 0.8 * (p - 1.0))]
    norms = np.array([sp.hardy_norm(*case) for case in cases])
    rel_err = np.abs(norms - math.pi) / math.pi
    rel_err[2:] = math.nan
    ps, rs, grids = zip(*cases)
    _write_csv(out / "hardy_norm.csv", {
        "p": ps, "r": rs, "n_points": [g.n_points for g in grids], "norm": norms,
        "rel_err_vs_pi": rel_err})
    return [("refined_rel_err_vs_pi", rel_err[1], "le", 0.02),
            ("monotone_in_r", np.all(norms[3:] > norms[2:-1]), "bool", None)]


# lifting trials per draw: 8 trials of the default 128 x 64 complex data are
# 1 MB, which bounds the block's multiplier temporaries to a few MB however
# many trials run
_LIFT_BLOCK = 8


def cmd_norm_check(out, seed=0, *, N_x=128, s=2.0, s0=0.0, n_mu=9, trials=100,
                   t=2.0) -> list:
    _check_least("trials", trials, 1)
    _check_least("n_mu", n_mu, 1)
    rng = np.random.default_rng(seed)
    tgrid = _tgrid(1, N_x)
    mus = np.logspace(0, 4, n_mu)
    # every squared weight in the norms lies within (1 + max|xi'|^2)^|s0|
    # (1 + max|xi'|^2 + mu_max^2)^|s - s0| of 1; 8 decades inside the float
    # range leave room for the mode sums
    xi_sq_max = tgrid.xi_sq.max()
    decades = (abs(s0) * math.log10(1.0 + xi_sq_max)
               + abs(s - s0) * math.log10(1.0 + xi_sq_max + mus[-1] ** 2))
    if decades > math.log10(np.finfo(float).max) - 8:
        raise ValueError(f"config keys 's' = {s} and 's0' = {s0} put the lifted norms "
                         "out of floating-point range (a norm ratio is 0, inf or nan)")
    # one draw for every trial: trial i gets the numbers it would draw alone
    re, im = np.moveaxis(rng.standard_normal((trials, 2, tgrid.N)), 1, 0)
    fhat = re + 1j * im
    fhat[:, tgrid.N // 4: 3 * tgrid.N // 4] = 0.0   # band-limit
    # np.float64 ** y calls pow(), an array ** 2 squares: the mu terms are
    # scalars, as one (trial, mu) pair computes them
    mu_sq = np.array([abs(mu) ** 2 for mu in mus])
    mu_weight = np.array([(1.0 + m2) ** ((s - s0) / 2.0) for m2 in mu_sq])
    mult = (1.0 + tgrid.xi_sq + mu_sq[:, None]) ** ((s - s0) / 2.0)
    # transposed views keep the modes contiguous, so each norm sums its
    # modes in the order of a call on one function
    lifted = (mult * fhat[:, None]).reshape(-1, tgrid.N)
    lhs = sp.plancherel_norms(lifted.T, s0, tgrid).reshape(trials, n_mu)
    rhs = (sp.plancherel_norms(fhat.T, s, tgrid)[:, None]
           + mu_weight * sp.plancherel_norms(fhat.T, s0, tgrid)[:, None])
    ratios = lhs / rhs
    C_equiv = max(ratios.max(), 1.0 / ratios.min())
    # mixed lifting on a 2-D grid
    xi_n = TangentialGrid(n_axes=1, N=64, L=2.0 * math.pi).xi_axis
    # block by block: standard_normal fills in C order, so the blocks draw
    # the numbers of one draw for every trial, and mixed_lifting_check sums
    # each trial as a call on it alone
    lift_ratios = []
    for start in range(0, trials, _LIFT_BLOCK):
        size = min(_LIFT_BLOCK, trials - start)
        re, im = np.moveaxis(rng.standard_normal((size, 2, tgrid.N, 64)), 1, 0)
        lift_ratios.append(sp.mixed_lifting_check(re + 1j * im, t, tgrid, xi_n))
    lift_ratios = np.concatenate(lift_ratios)
    C_lift = max(lift_ratios.max(), 1.0 / lift_ratios.min())
    _write_csv(out / "norm_check.csv", {
        "trial": np.repeat(np.arange(trials), n_mu), "mu": np.tile(mus, trials),
        "param_norm": lhs.ravel(), "split_norm": rhs.ravel(), "ratio": ratios.ravel()})
    _write_json(out / "norm_check.json",
                {"C_equivalence": C_equiv, "C_lifting": C_lift})
    return [("C_equivalence", C_equiv, "le", 4.0), ("C_lifting", C_lift, "le", 4.0)]


def cmd_resolvent_test(out, problem=None, *, lambda_=4.0 + 2.0j, X=12.0,
                       N_z=128) -> list:
    # the residual leaves out 2 x order nodes at either end of the coarsest grid
    _check_power_of_two("N_z", N_z, 1 << (4 * problem.order).bit_length())
    _check_nonzero("lambda", lambda_)
    xi = _datum_mode(problem.n)
    residuals, traces_, data = [], [], []
    for i in range(3):
        ug = UniformHalfGrid(X=X, N=N_z * (2 ** i))
        f = np.exp(-ug.x)[None].astype(complex)
        data.append((ug, f))
        u = res.halfspace_resolvent(problem, lambda_, f, xi, ug)
        residuals.append(res.interior_residual_fd(problem, lambda_, u, f, xi, ug))
        traces_.append(float(np.abs(res.boundary_trace_fd(problem, u, xi, ug)).max()))
    order_res = math.log2(residuals[0] / residuals[2]) / 2 if residuals[2] > 0 else math.inf
    _write_csv(out / "resolvent_refine.csv", {
        "N_z": [ug.N for ug, _ in data], "interior_residual": residuals,
        "trace_defect": traces_})
    # sectoriality shadow over three decades per ray: |lambda| ||R(lambda) f||
    # / ||f|| on the coarsest grid, rays x moduli
    ug, f = data[0]
    f_norm = max(float(np.linalg.norm(f)), 1e-300)
    sample = mdl.SectorSample.default(0.6 * math.pi, sigma_floor=10, n_rays=5,
                                      n_moduli=7, mod_max=1e4)
    rays, mods = np.array(sample.rays), np.array(sample.moduli)
    sols = res.halfspace_resolvent(problem, sample.points(), f, xi, ug)
    norms = np.array([np.linalg.norm(u) for u in sols]).reshape(len(rays), len(mods))
    ratios = mods * (norms / f_norm)
    _write_csv(out / "resolvent_sectoriality.csv", {
        "ray_arg": np.repeat(rays, len(mods)), "lambda_mod": np.tile(mods, len(rays)),
        "lam_norm_ratio": ratios.ravel()})
    med = np.median(ratios, axis=1)
    spread_ok = bool(np.all((ratios.max(axis=1) <= 2.0 * med)
                            & (ratios.min(axis=1) >= med / 2.0)))
    _write_json(out / "resolvent_test.json", {
        "residuals": residuals, "trace_defects": traces_,
        "order": order_res, "sectoriality_spread_ok": spread_ok,
    })
    return [("interior_residual", residuals[2], "le", 1e-4),
            ("trace_defect", traces_[2], "le", 1e-4),
            ("refinement_order", order_res, "ge", 2.0),
            ("sectoriality_spread", spread_ok, "bool", None)]


def cmd_semigroup_test(out, problem=None, *, X=30.0, N_z=2048, t1=0.1, t2=0.2,
                       t_small=1e-6) -> list:
    _check_power_of_two("N_z", N_z, 4)
    _check_positive(t1=t1, t2=t2, t_small=t_small)
    xi = _datum_mode(problem.n)
    # X large enough that the initial profile has fully decayed at the wrap
    ug = UniformHalfGrid(X=X, N=N_z)
    # compatible initial state: one tangential mode, normal profile vanishing
    # at 0 together with its derivative (covers the bundled conditions)
    u0 = ((ug.x ** 2) * np.exp(-ug.x))[None].astype(complex)
    T1 = res.semigroup_apply(problem, u0, t1, xi, ug)
    T12 = res.semigroup_apply(problem, T1, t2, xi, ug)
    Tsum = res.semigroup_apply(problem, u0, t1 + t2, xi, ug)
    semi_dev = (float(np.linalg.norm(T12 - Tsum))
                / max(float(np.linalg.norm(Tsum)), 1e-300))
    small = res.semigroup_apply(problem, u0, t_small, xi, ug)
    id_dev = float(np.linalg.norm(small - u0)) / float(np.linalg.norm(u0))
    _write_json(out / "semigroup_test.json",
                {"semigroup_property_dev": semi_dev, "identity_dev": id_dev})
    return [("semigroup_property_dev", semi_dev, "le", 1e-4),
            ("identity_dev", id_dev, "le", 0.01)]


def cmd_parabolic_solve(out, problem=None, *, N_t=16, T_per=2.0 * math.pi,
                        sigma=1.0, n_x_pts=33) -> list:
    _check_least("n_x_pts", n_x_pts, 1)
    _check_power_of_two("N_t", N_t, 2)
    _check_positive(T_per=T_per)
    xi = _datum_mode(problem.n)
    tgrid_t = TangentialGrid(n_axes=1, N=N_t, L=T_per)
    times = T_per / N_t * np.arange(N_t)
    x_nodes = np.linspace(0.0, 4.0, n_x_pts)
    tau0 = tgrid_t.xi_axis[1]
    g = np.zeros((problem.m, N_t, 1), dtype=complex)
    g[0, :, 0] = np.exp(1j * tau0 * times)
    sol = pb.parabolic_boundary_solve(problem, g, sigma, tgrid_t, xi, x_nodes)
    # single-mode oracle: one elliptic solve at lambda = sigma + i tau0
    batch = poi.kernel_batch(problem, sigma + 1j * tau0, xi)
    kern = batch.eval(x_nodes, np.eye(problem.m)[:, [0]])[0]
    oracle = np.exp(1j * tau0 * times)[:, None] * kern[None, :]
    dev = (float(np.abs(sol.values[:, 0, :] - oracle).max())
           / max(float(np.abs(oracle).max()), 1e-300))
    vals = sol.values[:, 0, :].ravel()
    _write_csv(out / "parabolic_solve.csv", {
        "t": np.repeat(times, len(x_nodes)), "x_n": np.tile(x_nodes, N_t),
        "re": vals.real, "im": vals.imag})
    _write_json(out / "parabolic_solve.json", {"single_mode_dev": dev})
    return [("single_mode_dev", dev, "le", 1e-8)]


def cmd_ibvp_solve(out, problem=None, *, X=30.0, N_z=1024, T=0.5, N_t=16,
                   out_times=()) -> list:
    _check_power_of_two("N_z", N_z, 8)   # the boundary trace reads six normal nodes
    _check_power_of_two("N_t", N_t, 1)
    _check_positive(T=T)
    xi = _datum_mode(problem.n)
    ug = UniformHalfGrid(X=X, N=N_z)
    out_times = np.array(out_times or (T / 2, T))
    # boundary data: one space-time mode on g_0, smoothly switched on; the
    # ramp is sampled at the N_t + 1 data times, then at the output times
    times = np.concatenate([T * np.arange(N_t + 1) / N_t, out_times])
    ramp = np.array([math.sin(math.pi * min(t / T, 1.0) / 2.0) ** 2 for t in times])
    g = np.zeros((problem.m, N_t + 1, 1), dtype=complex)
    g[0, :, 0] = ramp[: N_t + 1]
    u0 = np.zeros((1, ug.N), dtype=complex)
    sol = pb.ibvp_solve(problem, u0, g, T, xi, ug, out_times)
    # consistency: the trace of B_0 u should match g_0 at the output times
    miss = res.boundary_trace_fd(problem, sol.values, xi, ug)[0, :, 0] - ramp[N_t + 1:]
    worst = float(np.max(np.abs(miss) / np.maximum(ramp[N_t + 1:], 1e-300)))
    vals = sol.values[:, 0, :].ravel()
    _write_csv(out / "ibvp_solve.csv", {
        "t": np.repeat(out_times, ug.N), "x_n": np.tile(ug.x, len(out_times)),
        "re": vals.real, "im": vals.imag})
    _write_json(out / "ibvp_solve.json", {
        "boundary_trace_dev": worst,
        "compatibility_defect": sol.compatibility_defect,
    })
    return [("boundary_trace_dev", worst, "le", 1e-2)]


def cmd_rbound_sim(out, seed=0, p=1.2, *, sigma=1.0, N_list=(4, 8, 16, 32, 64), r=0.0,
                   trials=1024) -> list:
    # out-of-range --p, sigma, N_list, r and trials reach the experiment's checks
    ratios, stderrs = rb.dirichlet_nonrbound_experiment(
        p=p, sigma=sigma, N_list=N_list, r=r, trials=trials, seed=seed)
    _write_csv(out / "rbound_sim.csv", {
        "p": p, "r": r, "N": N_list, "ratio": ratios, "stderr": stderrs})
    # a nan standard error (one batch) makes the largest one nan, and fails
    shape = (("ratio_growth", ratios[-1] / ratios[0], "ge", 1.5) if p < 2.0
             else ("plateau_spread", ratios.max() / ratios.min(), "le", 1.3))
    return [shape, ("relative_stderr", np.max(stderrs / ratios), "le", 0.03)]


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


# ---------------------------------------------------------------------------
# Skeleton: parser, problem, config, exit code
# ---------------------------------------------------------------------------

def config_params(command: str) -> dict:
    """The config keys a subcommand accepts: key -> keyword-only parameter
    of its function, which holds the default.  A trailing ``_`` is dropped
    from the parameter name: ``lambda_`` reads the key ``lambda``."""
    params = inspect.signature(COMMANDS[command]).parameters.values()
    return {p.name.rstrip("_"): p for p in params if p.kind is p.KEYWORD_ONLY}


def flag_params(command: str) -> dict:
    """Flag name -> default: the positional parameters after ``out``."""
    params = list(inspect.signature(COMMANDS[command]).parameters.values())[1:]
    return {p.name: p.default for p in params if p.kind is p.POSITIONAL_OR_KEYWORD}


def _conform(key: str, value, default):
    """``value`` if it has the type of ``default``, else ValueError naming
    ``key``.  An int default takes an integer, a float any finite number
    (not ``NaN`` or ``Infinity``), a complex an ``[re, im]`` pair of them
    (returned as complex), a tuple a list of items of its first item's
    type, or of finite numbers when it is empty (returned as a tuple)."""
    def number(v, like=0.0):
        kinds = int if isinstance(like, int) else (int, float)
        return (isinstance(v, kinds) and not isinstance(v, bool)
                and (isinstance(v, int) or math.isfinite(v)))

    if isinstance(default, complex):
        if isinstance(value, list) and len(value) == 2 and all(map(number, value)):
            return complex(*value)
        want = "an [re, im] pair of finite numbers"
    elif isinstance(default, tuple):
        like = default[0] if default else 0.0
        if isinstance(value, list) and all(number(v, like) for v in value):
            return tuple(value)
        want = "a list of " + ("integers" if isinstance(like, int) else "finite numbers")
    elif number(value, default):
        return value
    else:
        want = "an integer" if isinstance(default, int) else "a finite number"
    raise ValueError(f"config key {key!r} expects {want}, got {json.dumps(value)}")


def _load_config(command: str, path) -> dict:
    """Keyword arguments for the subcommand from the JSON object at ``path``:
    every key must be one it declares, every value of its default's type."""
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must be a JSON object, "
                         f"not {type(cfg).__name__}")
    params = config_params(command)
    kwargs = {}
    for key, value in cfg.items():
        if key not in params:
            raise ValueError(f"unknown config key {key!r} for {command}; "
                             f"accepted: {', '.join(params)}")
        kwargs[params[key].name] = _conform(key, value, params[key].default)
    return kwargs


def _load_problem(name) -> mdl.ModelProblem:
    if name is None:
        return mdl.dirichlet_laplacian()
    path = Path(name)
    if not path.exists() and path.stem in mdl.BUNDLED:
        return mdl.BUNDLED[path.stem]()
    return mdl.load_problem(path)


_HELP = {"problem": "problem JSON path or bundled name", "plot": "emit SVG plots"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfpoisson",
        description="Half-space Poisson-operator solvers and estimate checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp_ = sub.add_parser(name)
        sp_.add_argument("--config", default=None, help="config JSON path")
        sp_.add_argument("--out", type=Path, default="out", help="output directory")
        for flag, default in flag_params(name).items():
            if isinstance(default, bool):
                sp_.add_argument(f"--{flag}", action="store_true", help=_HELP.get(flag))
            else:
                sp_.add_argument(f"--{flag}", default=default, help=_HELP.get(flag),
                                 type=None if default is None else type(default))
    return parser


# BLAS thread settings take effect only if set before NumPy loads, so they
# are recorded as found, never set here
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# a gate's kind -> how its value must compare with its bound
_KINDS = {"le": ("<=", operator.le), "ge": (">=", operator.ge), "gt": (">", operator.gt)}


def _evaluate(name, value, kind, bound) -> dict:
    """One gate in plain JSON types, with its verdict."""
    value = bool(value) if kind == "bool" else float(value)
    return {"name": name, "value": value, "kind": kind, "bound": bound,
            "passed": value if kind == "bool" else bool(_KINDS[kind][1](value, bound))}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser` once per process: each call of :func:`main`
    parses into a new namespace, so nothing carries over between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage message; --help exits 0
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        kwargs = _load_config(args.command, args.config)
        kwargs.update({flag: getattr(args, flag) for flag in flag_params(args.command)})
        if hasattr(args, "problem"):
            kwargs["problem"] = _load_problem(args.problem)
        gates = [_evaluate(*gate) for gate in COMMANDS[args.command](args.out, **kwargs)]
        _write_json(args.out / "metadata.json", {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "seed": getattr(args, "seed", None),
            "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
            "workers": poi.sweep_workers(),
            "problem": getattr(args, "problem", None),
            "command": args.command,
            "gates": gates,
        })
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    for g in gates:
        claim = (g["value"] if g["kind"] == "bool"
                 else f"{g['value']:.4g} {_KINDS[g['kind']][0]} {g['bound']:g}")
        print(f"{'pass' if g['passed'] else 'FAIL'}  {g['name']} = {claim}")
    return EXIT_OK if all(g["passed"] for g in gates) else EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
