"""Peak resident memory of each job of one benchmark deck, on one or two trees.

    python3 tools/job_peaks.py A [B] --workload W --seed S [--only SUBSTR]

``A`` and ``B`` are source trees (each with ``src/halfpoisson``).  For every
job of the workload's deck for ``S`` (this repository's
``perfbench/jobs.py``, so both trees run the same jobs; with ``--only``, the
jobs whose ident contains ``SUBSTR``), in deck order, each tree gets one
fresh interpreter, in the environment the benchmark gives its children
(``perfbench/run.py``'s ``child_env``: the tree's ``src`` first on the path
and the BLAS thread counts fixed before NumPy loads).  It imports
``halfpoisson.cli``, reads its peak resident set size (``ru_maxrss``, in MB
of 1024 KiB, as the benchmark's ``peak_rss_mb``) as the import baseline,
runs the job once through ``halfpoisson.cli.main`` and reads the peak
again.  Prints, per job, the peak over the baseline on each tree (with B,
the ratio B/A); then the row ``import_mb``, each tree's median baseline;
and last the row ``deck_max``, each tree's largest job peak over its
baseline.  A deck's interpreter runs every job, so the benchmark's
``peak_rss_mb`` reads about the baseline plus ``deck_max`` (a few MB more:
that interpreter also holds the benchmark) and moves with it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
PERFBENCH = TOOLS.parent / "perfbench"
# the rows of the import baseline and of the deck maximum
IMPORT, DECK = "import_mb", "deck_max"


def job_peak(workload: str, seed: int, ident: str) -> tuple[float, float]:
    """This interpreter's peak in MB after the imports, and the growth of
    that peak over one run of the job ``ident``."""
    import resource

    import jobs
    from deck_hashes import run_job
    import halfpoisson.cli  # noqa: F401  (the baseline holds the package)

    def peak():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    job = next(j for j in jobs.deck(workload, seed) if j.ident == ident)
    with tempfile.TemporaryDirectory() as scratch:
        base = peak()
        run_job(job, Path(scratch, "out"), Path(scratch))
        return base, peak() - base


def _child(tree: Path, workload: str, seed: int, ident: str) -> tuple[float, float]:
    """``job_peak`` in a fresh interpreter on ``tree``."""
    path = [str(tree / "src"), str(PERFBENCH), str(TOOLS)]
    code = (f"import json, sys; sys.path[:0] = {path!r}; "
            f"from job_peaks import job_peak; "
            f"print(json.dumps(job_peak({workload!r}, {seed}, {ident!r})))")
    from run import child_env

    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=child_env(tree / "src"))
    return tuple(json.loads(done.stdout.splitlines()[-1]))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", type=Path, nargs="+", metavar="TREE")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--only", default="", metavar="SUBSTR")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two trees")
    sys.path.insert(0, str(PERFBENCH))
    import jobs

    trees = [tree.resolve() for tree in args.trees]
    idents = [job.ident for job in jobs.deck(args.workload, args.seed)
              if args.only in job.ident]
    if not idents:
        parser.error(f"no {args.workload} job matches {args.only!r}")
    bases, peaks = [[] for _ in trees], {}
    for ident in idents:
        peaks[ident] = []
        for side, tree in enumerate(trees):
            base, grown = _child(tree, args.workload, args.seed, ident)
            bases[side].append(base)
            peaks[ident].append(grown)
    names = "AB"[:len(trees)]
    print("\t".join(["job"] + [f"{n}_mb" for n in names]
                    + (["B/A"] if len(trees) == 2 else [])))
    for ident, row in peaks.items():
        _row(ident, row)
    _row(IMPORT, [statistics.median(b) for b in bases])
    _row(DECK, [max(row[side] for row in peaks.values()) for side in range(len(trees))])
    return 0


def _row(name: str, values: list[float]):
    cells = [f"{v:.1f}" for v in values]
    if len(values) == 2:
        cells.append(f"{values[1] / values[0]:.3f}" if values[0] else "nan")
    print("\t".join([name] + cells))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
