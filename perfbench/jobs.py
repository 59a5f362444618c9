"""Job decks: the verification runs each workload repeats.

A job is one ``halfpoisson`` CLI invocation (subcommand, problem, config,
extra flags).  A workload's deck is a list of jobs drawn from the seed; a run
repeats the deck ("a pass") until its time is used.  It first warms up on
one job of each kind; every job is then timed at least ``TIMED_PASSES``
times.  Timings are taken per deck job (the mean of its timed runs), so the
job mix of every metric is the mix of the deck.

Proportions are chosen so that ``job_s.p50`` lands inside one job kind's
block of the sorted job times, not in a gap between kinds (see README.md).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

PROBLEMS = ("dirichlet_laplacian", "neumann_laplacian", "clamped_bilaplacian")

# After its warm-up, every run times the deck at least this often.
TIMED_PASSES = 2


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``config`` is stored as canonical JSON text."""

    ident: str
    command: str
    problem: str | None = None
    config: str | None = None
    flags: tuple[str, ...] = ()
    known_defect: str | None = None

    def argv(self, outdir: str, config_path: str | None) -> list[str]:
        argv = [self.command, "--out", outdir]
        if self.problem:
            argv += ["--problem", self.problem]
        if config_path:
            argv += ["--config", config_path]
        return argv + list(self.flags)


def _job(command, problem=None, config=None, flags=(), known_defect=None) -> Job:
    cfg = json.dumps(config, sort_keys=True) if config is not None else None
    parts = [command, (problem or "").split("_")[0], cfg or "", " ".join(flags)]
    ident = "|".join(p for p in parts if p)
    return Job(ident=ident, command=command, problem=problem, config=cfg,
               flags=tuple(flags), known_defect=known_defect)


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _contour(rng: random.Random) -> list[Job]:
    # 2 semigroup-test : 1 ibvp-solve per problem puts the median job
    # inside the semigroup-test block.
    jobs = []
    for p in PROBLEMS:
        for _ in range(2):
            jobs.append(_job("semigroup-test", p,
                             {"t1": _u(rng, 0.05, 0.2), "t2": _u(rng, 0.1, 0.3)}))
        jobs.append(_job("ibvp-solve", p, {"T": _u(rng, 0.3, 0.8)}))
    return jobs


def _sweep(rng: random.Random) -> list[Job]:
    jobs = []
    # 3 poisson-eval per problem puts the median job inside the block of
    # default and k=1 decay sweeps
    for p in PROBLEMS:
        for _ in range(3):
            jobs.append(_job("poisson-eval", p,
                             {"lambda": [_u(rng, 1, 10), _u(rng, -5, 3)]}))
        jobs.append(_job("resolvent-test", p,
                         {"lambda": [_u(rng, 1, 10), _u(rng, -5, 3)]}))
        for t in (1.0, 1.5):
            jobs.append(_job("singularity-sweep", p, {"t": t}))
        jobs.append(_job("decay-sweep", p, {}))
        jobs.append(_job("decay-sweep", p, {"k": 1, "r": 1.5}))
        jobs.append(_job("decay-sweep", p, {"t": 0.5, "s": 0, "r": 1.5}))
        jobs.append(_job("parabolic-solve", p, {}))
        jobs.append(_job("check-ls", p, {}))
    # the same defect on the clamped problem is left out: one job per defect
    # is enough, and a second 1.3 s job would add a third to the pass time
    jobs.append(_job("decay-sweep", "dirichlet_laplacian", {"t": 1, "s": 0, "r": 1.5},
                     known_defect="bracket-active decay sweep deviates 0.076 "
                                  "against 0.05"))
    jobs.append(_job("decay-sweep", "neumann_laplacian", {"t": 1, "s": 0},
                     known_defect="Neumann decay sweep at t=1, s=0 deviates "
                                  "0.0519 against 0.05"))
    return jobs


def _estimate(rng: random.Random) -> list[Job]:
    seeds = iter(rng.sample(range(1, 10_000), 7))
    jobs = []
    for p in (1.2, 1.2, 2.0):
        jobs.append(_job("rbound-sim", None, None,
                         ("--p", str(p), "--seed", str(next(seeds)))))
    jobs.append(_job("rbound-sim", None, None, ("--p", "1.5", "--seed", "0"),
                     known_defect="rbound-sim growth gate 1.5x ignores p; "
                                  "p=1.5 grows 1.34x"))
    for _ in range(2):
        jobs.append(_job("hardy-norm", None, {"p": _u(rng, 1.3, 2.0)}))
    jobs.append(_job("hardy-norm", None, {"p": 3.0},
                     known_defect="hardy-norm 'monotone in r' gate is wrong for "
                                  "p > 2 (minimum at r = p/2 - 1)"))
    for _ in range(4):
        jobs.append(_job("norm-check", None, None,
                         ("--seed", str(next(seeds)))))
    return jobs


WORKLOADS = {"contour": _contour, "sweep": _sweep, "estimate": _estimate}


def deck(workload: str, seed: int) -> list[Job]:
    """The workload's job deck for ``seed``, in a seed-shuffled order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = [replace(j, ident=f"{i:02d}:{j.ident}")
            for i, j in enumerate(WORKLOADS[workload](rng))]
    rng.shuffle(jobs)
    return jobs
