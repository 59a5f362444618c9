"""Alternating parent/change pairs of one benchmark workload, into a BENCH file.

    python3 tools/bench_pairs.py A B --workload W --out BENCH_name.json
                                 [--claim METRIC]

``A`` is the parent's source tree and ``B`` the change's, each a full
checkout with its own ``perfbench/``.  Pair i runs the benchmark command of
``BENCHMARK.json`` (this repository's copy: the command, with
``--workload W --seed S --seconds <run_seconds> --trace 0``) once in each
tree, in that tree, on one seed per pair, for ``PAIRS`` (10) pairs; A runs
first in even pairs, B in odd ones.  The seeds are the ``PAIRS`` integers
after the largest seed that any ``BENCH_*.json`` beside ``--out`` lists, so
a new run never reuses a seed an earlier measurement took.

Each run's last stdout line is the benchmark's JSON result.  The tool
merges ``workloads[W]`` into ``--out`` (made if missing; other keys are
kept): the pairs, seeds and first sides; each side's failed and attempted
operations and whether every run reported itself correct; and for each
end-to-end metric of ``BENCHMARK.json`` both sides' runs, their inclusive
quartiles, the relative change of the medians, the pairs the change won
and lost (ties count for neither), whether the gap of the medians exceeds
the parent's interquartile range, whether the change's median is worse
than the parent's by more than the metric's bound, and whether the metric
is ``unresolved``: the parent's IQR exceeds the bound relative to its
median, so a change within the bound cannot be told from an unchanged one,
and not every change run is better than every parent run.  With
``--claim METRIC`` it also writes the claim block: the metric's medians,
their ratio, the parent's IQR and the change's wins, and ``met`` when the
change is better in the median, ran at least ``CLAIM_PAIRS`` (10) pairs,
won at least nine tenths of them and the gap exceeds the parent's IQR.
Each workload's entry also records, per side, the code that side ran
(``source``): the tree's own ``perfbench/run.py`` ``source_identity``,
that is the git revision when the tree is a checkout (else null) and the
sha256 of its ``src/halfpoisson``, taken before the first pair.  Prints
one line per metric.  Keys of ``--out`` that the tool does not write (a
description of the change) are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# alternating pairs per workload; a claimed gain needs at least CLAIM_PAIRS
# of them and the change to win WIN_SHARE of them
PAIRS = 10
CLAIM_PAIRS = 10
WIN_SHARE = 0.9


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """The benchmark's JSON result of one run in ``tree``."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def source(tree: Path) -> dict:
    """``perfbench/run.py``'s ``source_identity`` of ``tree``, from the
    tree's own copy: ``{"git_revision": ..., "src_sha256": ...}``."""
    code = ("import json, sys; from pathlib import Path; sys.path.insert(0, 'perfbench'); "
            "from run import source_identity; print(json.dumps(source_identity(Path.cwd())))")
    done = subprocess.run([sys.executable, "-B", "-c", code], cwd=tree, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def used_seeds(directory: Path) -> set[int]:
    """Every seed listed under a ``seeds`` key of a BENCH file in ``directory``."""
    seeds: set[int] = set()

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "seeds" and isinstance(value, list):
                    seeds.update(v for v in value if isinstance(v, int))
                else:
                    walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
    for path in sorted(directory.glob("BENCH_*.json")):
        walk(json.loads(path.read_text(encoding="utf-8")))
    return seeds


def _quartiles(xs: list[float]) -> dict:
    if len(xs) == 1:
        return {"q1": xs[0], "median": xs[0], "q3": xs[0]}
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One end-to-end metric over the pairs: ``spec`` is its entry of
    ``BENCHMARK.json``, ``parent`` and ``change`` its values pair by pair."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p, c = _quartiles(parent), _quartiles(change)
    rel = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    spread = (p["q3"] - p["q1"]) / p["median"] if p["median"] else 0.0
    every_run_better = all(sign * (b - a) > 0 for a in parent for b in change)
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": p, "change": c, "median_rel_change": rel,
        "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "change_losses": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
        "worse_than_bound": -sign * rel > spec["bound"],
        "unresolved": spread > spec["bound"] and not every_run_better,
        "parent_runs": parent, "change_runs": change,
    }


def claim(workload: str, metric: str, entry: dict, pairs: int) -> dict:
    p, c = entry["parent"]["median"], entry["change"]["median"]
    better = (c > p) if entry["better"] == "higher" else (c < p)
    wins = entry["change_wins"]
    return {"metric": metric, "workload": workload, "parent_median": p,
            "change_median": c, "ratio": c / p if p else None,
            "parent_iqr": entry["parent"]["q3"] - entry["parent"]["q1"],
            "change_wins": wins, "pairs": pairs,
            "met": bool(better and pairs >= CLAIM_PAIRS and wins >= WIN_SHARE * pairs
                        and entry["gap_exceeds_parent_iqr"])}


def host() -> dict:
    import numpy

    cpu, info = platform.processor(), Path("/proc/cpuinfo")
    if info.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in info.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {"cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "platform": platform.platform()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="the parent's tree")
    parser.add_argument("b", type=Path, help="the change's tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", type=Path, required=True, metavar="BENCH_name.json")
    parser.add_argument("--claim", metavar="METRIC",
                        help="write the claim block for this end-to-end metric")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload must name a workload of BENCHMARK.json, got {args.workload}")
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim must name an end-to-end metric, got {args.claim}")
    out = args.out.resolve()
    start = max(used_seeds(out.parent), default=0) + 1
    seeds = list(range(start, start + PAIRS))
    trees = dict(zip(SIDES, (args.a.resolve(), args.b.resolve())))
    sources = {side: source(trees[side]) for side in SIDES}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    first = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            runs[side].append(run_once(trees[side], spec["command"], args.workload, seed,
                                       spec["run_seconds"]))
    entry = {
        "pairs": PAIRS, "seeds": seeds, "first": first, "source": sources,
        "all_runs_correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "metrics": {name: compare(m, *([r["metrics"][name]["value"] for r in runs[side]]
                                       for side in SIDES))
                    for name, m in metrics.items()},
    }
    report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {
        "label": out.stem.removeprefix("BENCH_")}
    report["command"] = " ".join(spec["command"] + [
        "--workload W --seed S --seconds", str(spec["run_seconds"]), "--trace 0"])
    report["protocol"] = (f"{PAIRS} pairs per workload on seeds after the largest "
                          "that a BENCH file beside this one lists; parent first on "
                          "even-indexed pairs, change first on odd; each side runs in "
                          "its own tree; quartiles inclusive; ties count for neither side")
    report["host"] = host()
    report.setdefault("workloads", {})[args.workload] = entry
    if args.claim:
        report["claim"] = claim(args.workload, args.claim, entry["metrics"][args.claim],
                                PAIRS)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, m in entry["metrics"].items():
        print(f"{args.workload}\t{name}\t{m['parent']['median']:.6g}\t"
              f"{m['change']['median']:.6g}\t{m['median_rel_change']:+.4f}\t"
              f"{m['change_wins']}/{PAIRS}\t"
              f"{'gap>IQR' if m['gap_exceeds_parent_iqr'] else 'within IQR'}\t"
              f"{'WORSE THAN BOUND' if m['worse_than_bound'] else 'ok'}\t"
              f"{'unresolved' if m['unresolved'] else 'resolved'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
