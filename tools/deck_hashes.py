"""Exit codes and artifact digests of every benchmark deck job on one tree.

    python3 tools/deck_hashes.py <tree> <seed> > hashes.json

Runs every job of the ``contour``, ``sweep`` and ``estimate`` decks of
``perfbench/jobs.py`` (this repository's copy, so two trees run the same
jobs) for ``seed`` through ``halfpoisson.cli.main``, importing
``halfpoisson`` from ``<tree>/src``.  Prints one JSON object,
``{workload: {job ident: {"exit": code, "artifacts": {name: sha256}}}}``;
``metadata.json`` (it holds a timestamp) and SVG plots are left out.  Two
trees whose outputs agree give equal objects, so comparing the parent and a
change is a ``diff`` of two runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path


def deck_hashes(seed: int) -> dict:
    import jobs
    from halfpoisson import cli

    print(f"halfpoisson from {Path(cli.__file__).parent}", file=sys.stderr)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in sorted(jobs.WORKLOADS):
            results = out[workload] = {}
            for i, job in enumerate(jobs.deck(workload, seed)):
                outdir = Path(tmp, workload, str(i))
                config = None
                if job.config is not None:
                    config = Path(tmp, f"{workload}-{i}.json")
                    config.write_text(job.config, encoding="utf-8")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(job.argv(str(outdir), config and str(config)))
                results[job.ident] = {"exit": code, "artifacts": {
                    f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                    for f in sorted(outdir.iterdir())
                    if f.name != "metadata.json" and f.suffix != ".svg"}}
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    tree, seed = Path(argv[0]).resolve(), int(argv[1])
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path[:0] = [str(tree / "src"), str(perfbench)]
    json.dump(deck_hashes(seed), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
