"""Wrong claims that the gates must reject.

Each row is (command, problem, config, mutation, delta): the mutation adds
``delta`` to one predicted exponent of :mod:`halfpoisson.poisson`, in
process, and the run must then exit 2.  A row that a gate accepts today is
a known miss: it carries ``xfail(strict=True)`` and the deviation the run
measures against the wrong claim, so a gate that starts catching it fails
here until the row loses its mark.
"""

import json

import pytest

from halfpoisson import cli
from halfpoisson import poisson as poi

PROBLEMS = ("dirichlet_laplacian", "neumann_laplacian", "clamped_bilaplacian")
SINGULARITY = "predicted_singularity_exponent"
DECAY = "predicted_decay_exponent"


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
)


@pytest.mark.parametrize("command,problem,config,mutation,delta", ROWS,
                         ids=lambda v: json.dumps(v) if isinstance(v, dict) else None)
def test_wrong_claim_exits_2(command, problem, config, mutation, delta,
                             monkeypatch, tmp_path):
    exact = getattr(poi, mutation)
    monkeypatch.setattr(poi, mutation, lambda *args: exact(*args) + delta)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = cli.main([command, "--problem", problem, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_TOLERANCE
