"""Wrong claims that the gates must reject.

Each row is (command, problem, config, mutation, delta): the mutation names
an in-process patch of :data:`PATCHES`, and ``delta`` is its size (None for
a patch that has none).  The commands that take no problem have None in its
place and run without ``--problem``.  With the patch in place the run must
exit 2.  Three kinds of patch make a wrong claim:

* a predicted exponent of :mod:`halfpoisson.poisson` off by ``delta``;
* a wrong kernel route: ``kernel_batch`` hands back the kernels of the
  other boundary condition (Neumann for Dirichlet and back), or
  ``KernelBatch.eval`` drops the Poisson correction (returns zero);
* a wrong estimate: ``spaces.hardy_norm`` or ``spaces.mixed_lifting_check``
  times the factor ``delta``, or an R-bounded Rademacher family in
  ``rbound-sim``, every member the first member's image.

A row that a gate accepts today is a known miss: it carries
``xfail(strict=True)`` and the figure the run measures under the wrong
claim, so a gate that starts catching it fails here until the row loses
its mark.  A caught row must also fail the gate :data:`GATE_HIT` names for
its command, as the run records it in ``metadata.json``: a run that exits 2
for another reason does not catch the claim.
"""

import json

import numpy as np
import pytest

from halfpoisson import cli
from halfpoisson import parabolic as pb
from halfpoisson import poisson as poi
from halfpoisson import rbound as rb
from halfpoisson import resolvent as res
from halfpoisson import spaces as sp
from halfpoisson.model import dirichlet_laplacian, neumann_laplacian

PROBLEMS = ("dirichlet_laplacian", "neumann_laplacian", "clamped_bilaplacian")
SINGULARITY = "predicted_singularity_exponent"
DECAY = "predicted_decay_exponent"
OTHER_CONDITION = "other_condition_kernels"
NO_CORRECTION = "no_poisson_correction"
HARDY_FACTOR = "hardy_norm_factor"
LIFT_FACTOR = "mixed_lifting_check_factor"
CONSTANT_FAMILY = "constant_family"
# the commands that evaluate Poisson kernels, one claim each
KERNEL_COMMANDS = ("poisson-eval", "resolvent-test", "semigroup-test", "ibvp-solve",
                   "parabolic-solve")
# the gate each command's wrong claims fail, as measured on every caught row:
# the kernel rows of resolvent-test, for one, pass the interior residual
# (the wrong kernel still solves the equation) and fail the trace
GATE_HIT = {
    "singularity-sweep": "max_deviation",
    "decay-sweep": "max_deviation",
    "poisson-eval": "boundary_reproduction_defect",
    "resolvent-test": "trace_defect",
    "semigroup-test": "semigroup_property_dev",
    "ibvp-solve": "boundary_trace_dev",
    "parabolic-solve": "single_mode_dev",
    "hardy-norm": "refined_rel_err_vs_pi",
    "norm-check": "C_lifting",
    "rbound-sim": "ratio_growth",
}


def _shifted(name):
    def patch(monkeypatch, delta):
        exact = getattr(poi, name)
        monkeypatch.setattr(poi, name, lambda *args: exact(*args) + delta)
    return patch


# the Laplacian with the other condition, by problem name
_OTHER = {"dirichlet_laplacian": neumann_laplacian,
          "neumann_laplacian": dirichlet_laplacian}


def _other_condition(monkeypatch, delta):
    exact = poi.kernel_batch

    def swapped(problem, lam, xi_modes):
        return exact(_OTHER[problem.name](problem.n), lam, xi_modes)
    for module in (poi, res, pb):
        monkeypatch.setattr(module, "kernel_batch", swapped)


def _no_correction(monkeypatch, delta):
    exact = poi.KernelBatch.eval
    monkeypatch.setattr(poi.KernelBatch, "eval",
                        lambda self, *args: 0 * exact(self, *args))


def _hardy_factor(monkeypatch, delta):
    exact = sp.hardy_norm
    monkeypatch.setattr(sp, "hardy_norm", lambda *args: delta * exact(*args))


def _lift_factor(monkeypatch, delta):
    exact = sp.mixed_lifting_check
    monkeypatch.setattr(sp, "mixed_lifting_check", lambda *args: delta * exact(*args))


def _constant_family(monkeypatch, delta):
    # every T_l x_l is T_1 x_1: the ratio cannot grow with the family size
    exact = rb.RademacherTrial
    monkeypatch.setattr(rb, "RademacherTrial", lambda images, **kw: exact(
        images=np.broadcast_to(images[:1], images.shape), **kw))


PATCHES = {SINGULARITY: _shifted(SINGULARITY), DECAY: _shifted(DECAY),
           OTHER_CONDITION: _other_condition, NO_CORRECTION: _no_correction,
           HARDY_FACTOR: _hardy_factor, LIFT_FACTOR: _lift_factor,
           CONSTANT_FAMILY: _constant_family}


def _miss(row, why):
    return pytest.param(*row, marks=pytest.mark.xfail(strict=True, reason=why))


# the decay deviations against the wrong claim, (+0.04, -0.04) per config
_DECAY_MISSES = {
    ("dirichlet_laplacian", "{}"): (0.0399, 0.0401),
    ("dirichlet_laplacian", '{"k": 1, "r": 1.5}'): (0.0401, 0.0401),
    ("neumann_laplacian", "{}"): (0.0400, 0.0402),
    ("neumann_laplacian", '{"k": 1, "r": 1.5}'): (0.0400, 0.0400),
    ("clamped_bilaplacian", "{}"): (0.0408, 0.0395),
    ("clamped_bilaplacian", '{"k": 1, "r": 1.5}'): (0.0424, 0.0395),
}


def _kernel_row(command, problem, mutation):
    row = (command, problem, {}, mutation, None)
    if command != "parabolic-solve":
        return row
    # its oracle is one more kernel_batch, which the patch reaches too
    return _miss(row, "the oracle takes the solver's own route: the single-mode "
                      "deviation reads at most 3.4e-16")


ROWS = (
    # the six singularity-sweep configs of the benchmark deck
    [("singularity-sweep", p, {"t": t}, SINGULARITY, d)
     for p in PROBLEMS for t in (1.0, 1.5) for d in (0.11, -0.11)]
    + [_miss(("singularity-sweep", p, {"t": t}, SINGULARITY, d),
             "the 0.1 tolerance accepts a claim 0.05 off (deviation 0.0493-0.0507)")
       for p in PROBLEMS for t in (1.0, 1.5) for d in (0.05, -0.05)]
    # the default and k = 1 decay sweeps measure one unit datum at xi' = 1
    + [_miss(("decay-sweep", p, json.loads(cfg), DECAY, d),
             f"the 0.05 tolerance accepts a claim 0.04 off (deviation {dev:.4f})")
       for (p, cfg), devs in _DECAY_MISSES.items() for d, dev in zip((0.04, -0.04), devs)]
    # the swap has a partner on the two Laplacians only
    + [_kernel_row(c, p, OTHER_CONDITION) for c in KERNEL_COMMANDS for p in _OTHER]
    + [_kernel_row(c, p, NO_CORRECTION) for c in KERNEL_COMMANDS for p in PROBLEMS]
    # the refined p = 2 Hardy estimate reads 3.1193, 0.71 % below pi
    + [("hardy-norm", None, {}, HARDY_FACTOR, f) for f in (1.03, 0.95)]
    + [_miss(("hardy-norm", None, {}, HARDY_FACTOR, f),
             f"the 2 % tolerance accepts a norm times {f} (estimate {est:.4f})")
       for f, est in ((1.01, 3.1505), (0.99, 3.0881))]
    # the lifting ratio lies in [1, 2^{t/2}] = [1, 2] at t = 2 for any data,
    # so the bound 4 cannot fail unless the ratio is off by more than 2x
    + [_miss(("norm-check", None, {}, LIFT_FACTOR, f),
             f"the bound 4 accepts a lifting ratio times {f} (C_lifting {c:.2f})")
       for f, c in ((2.0, 2.33), (3.0, 3.49))]
    # p = 1.2, where the true family grows 1.860x; the family that cannot
    # grow reads 1.000x against the 1.5x gate
    + [("rbound-sim", None, {}, CONSTANT_FAMILY, None)]
)


@pytest.mark.parametrize("command,problem,config,mutation,delta", ROWS,
                         ids=lambda v: json.dumps(v) if isinstance(v, dict) else None)
def test_wrong_claim_exits_2(command, problem, config, mutation, delta,
                             monkeypatch, tmp_path):
    PATCHES[mutation](monkeypatch, delta)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    flags = ["--problem", problem] if problem else []
    code = cli.main([command, *flags, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_TOLERANCE
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert GATE_HIT[command] in {gate["name"] for gate in meta["gates"] if not gate["passed"]}
