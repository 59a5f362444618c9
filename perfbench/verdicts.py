"""Recompute a job's verdict from its artifacts.

Each subcommand's gates are restated here with the tolerances that
``halfpoisson/cli.py`` declares, and evaluated on the CSV/JSON files the job
wrote, independently of the exit code.  The benchmark requires the two to
agree.  Numeric gates also give the job's headroom in decades:
``log10(tol / figure)`` for ``<=`` gates (figure floored at 1e-14) and
``log10(figure / tol)`` for ``>=`` gates; boolean gates only feed the
verdict.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

FIGURE_FLOOR = 1e-14
# a headroom outside +-16 decades only arises from 0/inf figures
HEADROOM_CLAMP = 16.0


@dataclass(frozen=True)
class Gate:
    name: str
    kind: str          # "le", "ge" or "bool"
    figure: float
    tol: float = math.nan

    @property
    def passed(self) -> bool:
        if self.kind == "bool":
            return bool(self.figure)
        if self.kind == "le":
            return self.figure <= self.tol
        return self.figure >= self.tol

    @property
    def headroom(self) -> float | None:
        if self.kind == "bool":
            return None
        if math.isnan(self.figure):
            return -HEADROOM_CLAMP
        if self.kind == "le":
            h = math.log10(self.tol / max(self.figure, FIGURE_FLOOR))
        elif self.figure <= 0:
            h = -HEADROOM_CLAMP
        else:
            h = math.log10(self.figure / self.tol)
        return max(-HEADROOM_CLAMP, min(HEADROOM_CLAMP, h))


@dataclass(frozen=True)
class Verdict:
    gates: tuple[Gate, ...]

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gates)

    @property
    def headroom(self) -> float | None:
        """The job's smallest numeric-gate headroom, in decades."""
        return min((h for g in self.gates if (h := g.headroom) is not None),
                   default=None)


def _json(outdir: Path, name: str) -> dict:
    return json.loads((outdir / name).read_text(encoding="utf-8"))


def _csv(outdir: Path, name: str) -> list[dict]:
    with open(outdir / name, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_ls(outdir):
    doc = _json(outdir, "check_ls.json")
    gates = [Gate("ellipticity", "bool", doc["ellipticity_pass"])]
    if doc["ellipticity_pass"]:
        # model.check_lopatinskii_shapiro's default threshold
        gates.append(Gate("ls_min_singular_value", "ge",
                          doc["ls_min_singular_value"], 1e-8))
    return gates


def _poisson_eval(outdir):
    doc = _json(outdir, "poisson_eval.json")
    return [Gate("boundary_reproduction_defect", "le",
                 doc["boundary_reproduction_defect"], 1e-8)]


def _decay_sweep(outdir):
    doc = _json(outdir, "decay_sweep.json")
    rows = _csv(outdir, "decay_sweep.csv")
    predicted = doc["predicted"]
    slopes = {float(r["fitted_slope"]) for r in rows}
    dev = max((abs(s - predicted) for s in slopes if not math.isnan(s)),
              default=math.inf)
    return [Gate("max_deviation", "le", dev, 0.05)]


def _singularity_sweep(outdir):
    row = _csv(outdir, "singularity_sweep.csv")[0]
    dev = abs(float(row["fitted_slope"]) - float(row["predicted"]))
    return [Gate("max_deviation", "le", dev, 0.1)]


def _hardy_norm(outdir):
    rows = _csv(outdir, "hardy_norm.csv")
    refined = float(rows[1]["rel_err_vs_pi"])
    ests = [float(r["norm"]) for r in rows[2:]]
    monotone = all(a < b for a, b in zip(ests, ests[1:]))
    return [Gate("refined_rel_err_vs_pi", "le", refined, 0.02),
            Gate("monotone_in_r", "bool", monotone)]


def _norm_check(outdir):
    doc = _json(outdir, "norm_check.json")
    return [Gate("C_equivalence", "le", doc["C_equivalence"], 4.0),
            Gate("C_lifting", "le", doc["C_lifting"], 4.0)]


def _resolvent_test(outdir):
    refine = _csv(outdir, "resolvent_refine.csv")
    res = [float(r["interior_residual"]) for r in refine]
    tr = [float(r["trace_defect"]) for r in refine]
    order = math.log2(res[0] / res[2]) / 2 if res[2] > 0 else math.inf
    by_ray: dict[str, list[float]] = {}
    for r in _csv(outdir, "resolvent_sectoriality.csv"):
        by_ray.setdefault(r["ray_arg"], []).append(float(r["lam_norm_ratio"]))
    spread_ok = True
    for vals in by_ray.values():
        med = statistics.median(vals)
        spread_ok &= max(vals) <= 2.0 * med and min(vals) >= med / 2.0
    return [Gate("interior_residual", "le", res[2], 1e-4),
            Gate("trace_defect", "le", tr[2], 1e-4),
            Gate("refinement_order", "ge", order, 2.0),
            Gate("sectoriality_spread", "bool", spread_ok)]


def _semigroup_test(outdir):
    doc = _json(outdir, "semigroup_test.json")
    return [Gate("semigroup_property_dev", "le", doc["semigroup_property_dev"], 1e-4),
            Gate("identity_dev", "le", doc["identity_dev"], 0.01)]


def _parabolic_solve(outdir):
    doc = _json(outdir, "parabolic_solve.json")
    return [Gate("single_mode_dev", "le", doc["single_mode_dev"], 1e-8)]


def _ibvp_solve(outdir):
    doc = _json(outdir, "ibvp_solve.json")
    return [Gate("boundary_trace_dev", "le", doc["boundary_trace_dev"], 1e-2)]


def _rbound_sim(outdir):
    rows = _csv(outdir, "rbound_sim.csv")
    p = float(rows[0]["p"])
    ratios = [float(r["ratio"]) for r in rows]
    if p < 2.0:
        gates = [Gate("ratio_growth", "ge", ratios[-1] / ratios[0], 1.5)]
    else:
        gates = [Gate("plateau_spread", "le", max(ratios) / min(ratios), 1.3)]
    worst = max(float(r["stderr"]) / float(r["ratio"]) for r in rows)
    return gates + [Gate("relative_stderr", "le", worst, 0.03)]


CHECKS = {
    "check-ls": _check_ls,
    "poisson-eval": _poisson_eval,
    "decay-sweep": _decay_sweep,
    "singularity-sweep": _singularity_sweep,
    "hardy-norm": _hardy_norm,
    "norm-check": _norm_check,
    "resolvent-test": _resolvent_test,
    "semigroup-test": _semigroup_test,
    "parabolic-solve": _parabolic_solve,
    "ibvp-solve": _ibvp_solve,
    "rbound-sim": _rbound_sim,
}


def verdict(command: str, outdir: Path) -> Verdict:
    """Gates of one finished job, recomputed from the files in ``outdir``."""
    return Verdict(tuple(CHECKS[command](outdir)))


def artifact_digest(outdir: Path) -> str:
    """SHA-256 over every artifact except the timestamped ``metadata.json``."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        if path.name == "metadata.json":
            continue
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()
