"""Exit codes and artifact digests of every benchmark deck job on one tree.

    python3 tools/deck_hashes.py <tree> <seed> [--workload W] [--keep DIR] > hashes.json

Runs every job of the ``contour``, ``sweep`` and ``estimate`` decks (with
``--workload W``, of deck W alone) of ``perfbench/jobs.py`` (this
repository's copy, so two trees run the same jobs) for ``seed`` through
``halfpoisson.cli.main``, importing
``halfpoisson`` from ``<tree>/src``.  Prints one JSON object,
``{workload: {job ident: {"exit": code, "artifacts": {name: sha256}}}}``;
``metadata.json`` (it holds a timestamp) and SVG plots are left out.  Two
trees whose outputs agree give equal objects, so comparing the parent and a
change is a ``diff`` of two runs.  With ``--keep DIR`` each job's artifacts
stay in ``DIR/<workload>/<NN>``, NN the number that leads the job's ident;
``tools/artifact_diff.py`` then states how far two kept runs deviate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path


def run_job(job, outdir: Path, scratch: Path) -> int:
    """Run one deck job through ``halfpoisson.cli.main`` into ``outdir``,
    its config (if any) written under ``scratch``; returns the exit code."""
    from halfpoisson import cli

    config = None
    if job.config is not None:
        config = Path(scratch, job.ident.split(":")[0] + ".json")
        config.write_text(job.config, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(job.argv(str(outdir), config and str(config)))


def deck_hashes(seed: int, keep: Path | None = None,
                workloads: list[str] | None = None) -> dict:
    """The printed object for the ``workloads`` decks (default: all)."""
    import jobs
    from halfpoisson import cli

    print(f"halfpoisson from {Path(cli.__file__).parent}", file=sys.stderr)
    out = {}
    with tempfile.TemporaryDirectory() as scratch:
        for workload in workloads or sorted(jobs.WORKLOADS):
            results = out[workload] = {}
            for job in jobs.deck(workload, seed):
                outdir = Path(keep or scratch, workload, job.ident.split(":")[0])
                code = run_job(job, outdir, Path(scratch))
                results[job.ident] = {"exit": code, "artifacts": {
                    f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                    for f in sorted(outdir.iterdir())
                    if f.name != "metadata.json" and f.suffix != ".svg"}}
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("seed", type=int)
    parser.add_argument("--workload", choices=("contour", "sweep", "estimate"),
                        help="hash this deck alone")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="keep each job's artifacts under DIR")
    args = parser.parse_args(argv)
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path[:0] = [str(args.tree.resolve() / "src"), str(perfbench)]
    keep = args.keep.resolve() if args.keep else None
    workloads = [args.workload] if args.workload else None
    json.dump(deck_hashes(args.seed, keep, workloads), sys.stdout, indent=1,
              sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
