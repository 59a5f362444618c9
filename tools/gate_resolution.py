"""Smallest wrong claim that each sweep gate of the benchmark deck rejects.

    python3 tools/gate_resolution.py > resolution.json

For every ``decay-sweep`` and ``singularity-sweep`` config of the ``sweep``
deck (this repository's ``perfbench/jobs.py``; these configs do not depend on
the seed), runs the job through ``halfpoisson.cli.main`` (by
``tools/deck_hashes.run_job``) with its predicted exponent
(``poisson.predicted_decay_exponent`` or
``poisson.predicted_singularity_exponent``) shifted by +delta and by -delta,
in process, and bisects on [0, RANGE] for the smallest delta whose run exits
2, to within ``STEP``.  Prints one JSON object,
``{ident: {"+": delta, "-": delta}}`` with each ident less its deck number.
A delta is the upper end of the last bracket: 0 for a job that exits 2
unshifted, null where a claim RANGE off still passes.  The bisection takes a
claim further off to be rejected whenever a nearer one is.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
# the largest shift tried, and the width of the last bracket
RANGE = 0.2
STEP = 0.005
EXPONENTS = {"decay-sweep": "predicted_decay_exponent",
             "singularity-sweep": "predicted_singularity_exponent"}


def rejects(job, delta: float, scratch: Path) -> bool:
    """Whether ``job`` exits 2 with its predicted exponent shifted by ``delta``."""
    from deck_hashes import run_job
    from halfpoisson import cli
    from halfpoisson import poisson as poi

    name = EXPONENTS[job.command]
    exact = getattr(poi, name)
    setattr(poi, name, lambda *args: exact(*args) + delta)
    try:
        code = run_job(job, scratch / "out", scratch)
    finally:
        setattr(poi, name, exact)
    if code not in (cli.EXIT_OK, cli.EXIT_TOLERANCE):
        raise RuntimeError(f"{job.ident} with a shift of {delta} exits {code}")
    return code == cli.EXIT_TOLERANCE


def smallest_rejected(rejected) -> float | None:
    """The upper end of a bracket of width <= STEP in [0, RANGE] whose upper
    end ``rejected`` takes and whose lower end it does not; 0 if it takes 0,
    None if it does not take RANGE."""
    if rejected(0.0):
        return 0.0
    lo, hi = 0.0, RANGE
    if not rejected(hi):
        return None
    while hi - lo > STEP:
        mid = (lo + hi) / 2.0
        if rejected(mid):
            hi = mid
        else:
            lo = mid
    return round(hi, 6)    # drops the halving's float rounding, as in 0.053125000000000006


def sweeps() -> dict:
    """The deck's ``decay-sweep`` and ``singularity-sweep`` jobs, by ident
    less its deck number."""
    import jobs

    return {job.ident.split(":", 1)[1]: job for job in jobs.deck("sweep", 1)
            if job.command in EXPONENTS}


def resolution(job, scratch: Path) -> dict:
    """``{"+": delta, "-": delta}`` for one job."""
    return {sign: smallest_rejected(lambda d: rejects(job, factor * d, scratch))
            for sign, factor in (("+", 1.0), ("-", -1.0))}


def main(argv: list[str]) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench"), str(REPO / "tools")]
    with tempfile.TemporaryDirectory() as scratch:
        out = {ident: resolution(job, Path(scratch))
               for ident, job in sorted(sweeps().items())}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
