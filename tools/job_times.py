"""Per-job wall times of one benchmark deck on two trees, in alternating rounds.

    python3 tools/job_times.py A B --workload W --seed S [--rounds R] [--only SUBSTR]

``A`` and ``B`` are source trees (each with ``src/halfpoisson``).  Every round
starts one fresh interpreter per tree, A first in even rounds and B first in
odd ones, each in the environment the benchmark gives its children
(``perfbench/run.py``'s ``child_env``: the tree's ``src`` first on the path
and the BLAS thread counts fixed before NumPy loads).  Each interpreter runs
every job of the workload's deck for ``S`` (this repository's
``perfbench/jobs.py``, so both trees run the same jobs; with ``--only``, the
jobs whose ident contains ``SUBSTR``) through ``halfpoisson.cli.main``:
once untimed, then ``TIMED`` times timed.  Before
the first of them it runs the first job of each (command, problem) kind of
the whole deck once, as the benchmark's worker warms up, so that the jobs
are timed in the allocator state of the benchmark's timed passes.  A job's
time in a round is the median of its timed runs; ``R`` must be at least 1.
The interpreter that times a job also counts the minor page faults of its
timed runs (``ru_minflt`` of ``getrusage``, a page first touched since the
allocator took it from the system), per timed run.
Prints, per job, the median over rounds of its time on A and on B, the
ratio B/A, the number of rounds in which B was faster, and the median over
rounds of its minor faults per timed run on A and on B (``A_minflt``,
``B_minflt``); then, in the same columns, the row ``ru_maxrss_mb``: each
tree's median over its interpreters of their peak resident set size
(``ru_maxrss``, in MB of 1024 KiB, as the benchmark's ``peak_rss_mb``), and
the rounds in which B's was lower (no fault columns); and last the row
``deck_s``: each tree's sum of its per-job medians, of times and of faults,
and the rounds in which B's jobs took less time in all.  The benchmark's
``jobs_per_s`` is the
deck's job count over its summed per-job times, so the deck sum's B/A
predicts the inverse of its ratio (the benchmark takes means, not medians,
and scales them to a nominal host).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
PERFBENCH = TOOLS.parent / "perfbench"
# timed runs of each job per interpreter
TIMED = 3
# the rows of the interpreters' peak resident set size and of the deck sum
RSS, DECK = "ru_maxrss_mb", "deck_s"


def job_times(workload: str, seed: int, only: str) -> dict[str, tuple[float, float]]:
    """Median seconds of ``TIMED`` runs of each selected job, after the
    deck's warm-up and one untimed run, in this interpreter, and the minor
    page faults per timed run."""
    import jobs
    from deck_hashes import run_job

    deck, first, out = jobs.deck(workload, seed), {}, {}
    for job in deck:
        first.setdefault((job.command, job.problem), job)
    with tempfile.TemporaryDirectory() as scratch:
        for job in first.values():
            run_job(job, Path(scratch, job.ident.split(":")[0]), Path(scratch))
        for job in deck:
            if only not in job.ident:
                continue
            outdir = Path(scratch, job.ident.split(":")[0])
            run_job(job, outdir, Path(scratch))
            runs = []
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(TIMED):
                start = time.perf_counter()
                run_job(job, outdir, Path(scratch))
                runs.append(time.perf_counter() - start)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            out[job.ident] = (statistics.median(runs), faults / TIMED)
    return out


def _child(tree: Path, workload: str, seed: int, only: str) -> dict:
    """Job times and faults of one fresh interpreter on ``tree`` (each job's
    ``[seconds, faults]``), and under ``RSS`` its peak resident set size in
    MB."""
    path = [str(tree / "src"), str(PERFBENCH), str(TOOLS)]
    code = (f"import json, resource, sys; sys.path[:0] = {path!r}; "
            f"from job_times import job_times; "
            f"times = job_times({workload!r}, {seed}, {only!r}); "
            f"times[{RSS!r}] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0; "
            f"print(json.dumps(times))")
    from run import child_env

    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=child_env(tree / "src"))
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--only", default="", metavar="SUBSTR")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, got {args.rounds}")
    sys.path.insert(0, str(PERFBENCH))
    trees = (args.a.resolve(), args.b.resolve())
    rounds = []
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        times = {}
        for side in order:
            times[side] = _child(trees[side], args.workload, args.seed, args.only)
        rounds.append((times[0], times[1]))
    jobs = [ident for ident in rounds[0][0] if ident != RSS]

    def median(side, ident, column):
        return statistics.median(t[side][ident][column] for t in rounds)

    print("job\tA_s\tB_s\tB/A\tB_won\tA_minflt\tB_minflt")
    for ident in jobs:
        won = sum(t[1][ident][0] < t[0][ident][0] for t in rounds)
        _row(ident, median(0, ident, 0), median(1, ident, 0), won, len(rounds),
             median(0, ident, 1), median(1, ident, 1))
    a, b = (statistics.median(t[side][RSS] for t in rounds) for side in (0, 1))
    _row(RSS, a, b, sum(t[1][RSS] < t[0][RSS] for t in rounds), len(rounds))
    a, b = (sum(median(side, ident, 0) for ident in jobs) for side in (0, 1))
    fa, fb = (sum(median(side, ident, 1) for ident in jobs) for side in (0, 1))
    won = sum(sum(t[1][ident][0] for ident in jobs) < sum(t[0][ident][0] for ident in jobs)
              for t in rounds)
    _row(DECK, a, b, won, len(rounds), fa, fb)
    return 0


def _row(name: str, a: float, b: float, won: int, rounds: int, *faults: float):
    cells = "".join(f"\t{f:.0f}" for f in faults)
    print(f"{name}\t{a:.4f}\t{b:.4f}\t{b / a:.3f}\t{won}/{rounds}{cells}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
