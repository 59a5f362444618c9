"""Trace coverage and contract checks of the benchmark itself.

Run from the repository root (one to two minutes)::

    python3 -m pytest -q perfbench/tests/check_trace.py

The file name keeps it out of the package's default test collection: it
runs whole workload passes, which the package's unit suite does not need.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _halfpoisson_modules():
    return [m for n, m in sys.modules.items()
            if n == "halfpoisson" or n.startswith("halfpoisson.")]


def test_every_binding_of_a_wrapped_function_is_patched():
    targets = spans.layer_functions()
    originals = {id(fn) for _, _, _, fn in targets}
    import halfpoisson.parabolic as pb
    import halfpoisson.poisson as poi
    import halfpoisson.rbound as rb
    import halfpoisson.resolvent as res
    by_name = [(res, "kernel_batch"), (pb, "kernel_batch"), (rb, "kernel_batch"),
               (pb, "semigroup_apply"), (poi.KernelBatch, "eval")]
    before = [getattr(o, a) for o, a in by_name]
    restore = spans.Tracer().install()
    try:
        for mod in _halfpoisson_modules():
            for attr, val in vars(mod).items():
                assert id(val) not in originals, f"{mod.__name__}.{attr} left unwrapped"
                if isinstance(val, dict):
                    for key, item in val.items():
                        assert id(item) not in originals, f"{mod.__name__}.{attr}[{key!r}]"
        for (owner, attr), old in zip(by_name, before):
            assert getattr(owner, attr) is not old, f"{owner.__name__}.{attr}"
    finally:
        restore()
    assert [getattr(o, a) for o, a in by_name] == before
    assert all(inspect.isfunction(fn) for _, _, _, fn in targets)


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_expected_layers_do_work_on_one_traced_pass(workload, tmp_path):
    from halfpoisson import cli
    deck = jobs.deck(workload, 0)
    configs = worker.write_configs(deck, tmp_path)
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        records = worker.run_pass(cli, deck, configs, tmp_path / "jobs", 0, traced=True)
    finally:
        restore()
    assert tracer.missing(workload) == []
    worker.check_runs(deck, records)
    assert [r["problem"] for r in records] == [None] * len(deck)
    failing = {deck[r["job"]].ident for r in records if r["exit"] == 2}
    assert failing == {j.ident for j in deck if j.known_defect}
    m = tracer.metrics(len(records))
    if workload == "contour":
        # every resolvent solve of this deck sits on a semigroup contour
        assert (m["resolvent.semigroup_apply.contour_nodes"][0]
                == m["resolvent.halfspace_resolvent.calls"][0] > 0)


def test_job_times_are_scaled_by_the_reference_and_skip_the_warm_up_pass():
    # two deck jobs; the warm-up pass (pass 0) is ten times slower and must
    # not count; the reference ran at twice its nominal time
    runs = [{"job": j, "pass_": p, "seconds": s * (10 if p == 0 else 1),
             "problem": None, "exit": 0, "headroom": 1.0}
            for p in range(3) for j, s in ((0, 1.0), (1, 3.0))]
    rec = {"runs": runs, "deck": [{}, {}], "window": {"window_s": 30.0},
           "peak_rss_mb": 100.0,
           "reference": {"nominal_s": 0.025, "samples_s": [0.04, 0.06]}}
    m = run.end_to_end(rec, [0.5])
    assert m["jobs_per_s"][0] == pytest.approx(2 / (0.5 + 1.5))
    assert m["job_s.p50"][0] == pytest.approx(1.0)
    assert m["job_s.tail"][0] == pytest.approx(0.5 + 0.9 * 1.0)
    assert m["pass_ratio"][0] == 1.0


def _run(args, cwd):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_holds_exactly_the_declared_metrics(trace, section):
    proc = _run(["--workload", "sweep", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    if trace:
        print(f"tracing overhead on sweep: {doc['metrics']['trace.overhead']['value']:+.3f}")


def test_without_a_source_tree_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "contour", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
