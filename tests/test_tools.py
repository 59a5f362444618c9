import importlib.util
import json
import os
import sys
import types
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


artifact_diff = _load("artifact_diff")
bench_pairs = _load("bench_pairs")
_real_source = bench_pairs.source
deck_hashes = _load("deck_hashes")
gate_resolution = _load("gate_resolution")
job_peaks = _load("job_peaks")
job_times = _load("job_times")


def _write(root: Path, name: str, text: str):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_artifact_diff_states_the_largest_relative_deviation(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, x, y in ((a, "1.0", 2.0), (b, "1.0000000001", 2.5)):
        _write(root, "sweep/0/out.csv", f"x,norm\n0.1,{x}\n0.2,3.0\n")
        _write(root, "sweep/0/out.json", json.dumps(
            {"defect": y, "ok": True, "point": {"lambda": [1.0, 0.0]}}))
        _write(root, "sweep/0/same.csv", "x\n1\n")
        _write(root, "sweep/0/metadata.json", json.dumps({"time": str(root)}))
    _write(a, "sweep/1/only.csv", "x\n1\n")
    assert artifact_diff.main([str(a), str(b)]) == 1
    lines = {line.split("\t")[0]: line.split("\t")[1:]
             for line in capsys.readouterr().out.splitlines()}
    rel, scaled = lines["sweep/0/out.csv"]
    assert float(rel) == pytest.approx(1e-10, rel=1e-3)
    # scaled by the column's largest entry, 3.0
    assert float(scaled.split()[1]) == pytest.approx(1e-10 / 3.0, rel=1e-3)
    assert float(lines["sweep/0/out.json"][0]) == pytest.approx(0.2)
    assert lines["sweep/1/only.csv"][0].startswith("only under")
    assert set(lines) == {"sweep/0/out.csv", "sweep/0/out.json", "sweep/1/only.csv"}


def test_artifact_diff_reports_what_is_not_numeric(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "x.csv", "name,v\nfoo,1\n")
    _write(b, "x.csv", "name,v\nbar,1\n")
    _write(a, "y.json", json.dumps({"v": [1, 2]}))
    _write(b, "y.json", json.dumps({"v": [1, 2, 3]}))
    assert artifact_diff.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "x.csv\tnot numeric" in out and "y.json\tnot numeric" in out
    assert artifact_diff.main([str(a), str(a)]) == 0


def test_job_times_prints_each_job_on_both_trees(monkeypatch, capsys):
    # main puts perfbench first on the path
    monkeypatch.setattr(sys, "path", list(sys.path))
    repo = str(TOOLS.parent)
    assert job_times.main([repo, repo, "--workload", "sweep", "--seed", "1",
                           "--rounds", "2", "--only", "check-ls"]) == 0
    header, *rows, rss, deck = (line.split("\t")
                                for line in capsys.readouterr().out.splitlines())
    assert header == ["job", "A_s", "B_s", "B/A", "B_won", "A_minflt", "B_minflt"]
    assert rss[0] == "ru_maxrss_mb" and deck[0] == "deck_s"
    # one check-ls job per bundled problem
    assert len(rows) == 3 and all("check-ls" in row[0] for row in rows)
    for _, a, b, ratio, won, a_flt, b_flt in rows:
        assert float(a) > 0 and float(b) > 0
        assert float(ratio) == pytest.approx(float(b) / float(a), rel=0.05)
        assert won in {"0/2", "1/2", "2/2"}
        assert float(a_flt) >= 0 and float(b_flt) >= 0


def test_job_times_prints_each_trees_median_peak_rss(monkeypatch, capsys):
    """The last row holds the median ru_maxrss of each tree's interpreters:
    NumPy and the package alone take tens of MB."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    repo = str(TOOLS.parent)
    assert job_times.main([repo, repo, "--workload", "sweep", "--seed", "1",
                           "--rounds", "3", "--only", "check-ls|dirichlet"]) == 0
    *_, (name, a, b, ratio, won), _ = (line.split("\t")
                                       for line in capsys.readouterr().out.splitlines())
    assert name == "ru_maxrss_mb"
    assert 10 < float(a) < 1000 and 10 < float(b) < 1000
    assert float(ratio) == pytest.approx(float(b) / float(a), rel=0.01)
    assert won in {f"{k}/3" for k in range(4)}


def test_job_times_ends_with_each_trees_sum_of_job_medians(monkeypatch, capsys):
    """deck_s sums the per-job medians (the median of A's round sums would
    read 4.0), of times and of faults, and leaves the peak RSS out; B won
    the rounds whose jobs took less time in all."""
    rounds = iter([{"j1": [1.0, 10], "j2": [3.0, 0], "ru_maxrss_mb": 50.0},    # round 0: A, B
                   {"j1": [1.0, 0], "j2": [2.0, 5], "ru_maxrss_mb": 40.0},
                   {"j1": [4.0, 2], "j2": [1.0, 5], "ru_maxrss_mb": 40.0},    # round 1: B, A
                   {"j1": [2.0, 30], "j2": [5.0, 1], "ru_maxrss_mb": 50.0},
                   {"j1": [3.0, 2], "j2": [0.5, 3], "ru_maxrss_mb": 50.0},    # round 2: A, B
                   {"j1": [3.0, 20], "j2": [1.0, 2], "ru_maxrss_mb": 40.0}])
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(job_times, "_child", lambda *args: next(rounds))
    assert job_times.main(["a", "b", "--workload", "sweep", "--seed", "1",
                           "--rounds", "3"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows] == ["job", "j1", "j2", "ru_maxrss_mb", "deck_s"]
    # A: j1 (1, 2, 3), j2 (3, 5, 0.5), sums (4, 7, 3.5); B: j1 (1, 4, 3),
    # j2 (2, 1, 1), sums (3, 5, 4); faults A: j1 (10, 30, 2), j2 (0, 1, 3),
    # B: j1 (0, 20, 2), j2 (5, 2, 5)
    assert rows[1] == ["j1", "2.0000", "3.0000", "1.500", "0/3", "10", "2"]
    assert rows[-2] == ["ru_maxrss_mb", "50.0000", "40.0000", "0.800", "3/3"]
    assert rows[-1] == ["deck_s", "5.0000", "4.0000", "0.800", "2/3", "11", "7"]


def test_job_times_warms_up_on_each_kind_of_the_whole_deck(monkeypatch):
    """The first job of each (command, problem) kind runs once, in deck
    order and whatever ``--only`` picks, before any job is timed; then each
    picked job runs once untimed and ``TIMED`` times timed."""
    kinds = [("a", "p"), ("b", "p"), ("a", "p"), ("a", "q"), ("b", None)]
    deck = [types.SimpleNamespace(ident=f"{i:02d}:{c}|{p}", command=c, problem=p)
            for i, (c, p) in enumerate(kinds)]
    calls = []
    monkeypatch.setitem(sys.modules, "jobs", types.SimpleNamespace(
        deck=lambda workload, seed: deck))
    monkeypatch.setitem(sys.modules, "deck_hashes", types.SimpleNamespace(
        run_job=lambda job, outdir, scratch: calls.append(job.ident[:2])))
    times = job_times.job_times("sweep", 1, "a|")
    assert list(times) == ["00:a|p", "02:a|p", "03:a|q"]
    runs = 1 + job_times.TIMED
    assert calls == ["00", "01", "03", "04"] + ["00"] * runs + ["02"] * runs + ["03"] * runs


def test_job_times_counts_the_minor_faults_of_the_timed_runs(monkeypatch):
    """A job's faults are those of its timed runs over their number, in
    the interpreter that runs them: the warm-up and the untimed run are
    left out."""
    deck = [types.SimpleNamespace(ident=f"{i:02d}:{c}|p", command=c, problem="p")
            for i, c in enumerate(["a", "b"])]
    runs, faults = {"00": 0, "01": 0}, [0]

    def run_job(job, outdir, scratch):
        key = job.ident[:2]
        runs[key] += 1
        # job 01 faults 300 pages on its warm-up and untimed runs, 3 on each timed one
        faults[0] += 6 if key == "00" else 300 if runs[key] <= 2 else 3

    monkeypatch.setitem(sys.modules, "jobs", types.SimpleNamespace(
        deck=lambda workload, seed: deck))
    monkeypatch.setitem(sys.modules, "deck_hashes", types.SimpleNamespace(run_job=run_job))
    monkeypatch.setattr(job_times.resource, "getrusage",
                        lambda who: types.SimpleNamespace(ru_minflt=faults[0]))
    times = job_times.job_times("sweep", 1, "")
    assert [f for _, f in times.values()] == [6.0, 3.0]


def test_job_times_refuses_fewer_than_one_round(monkeypatch, capsys):
    def child(*args):
        raise AssertionError("no interpreter should start")
    monkeypatch.setattr(job_times, "_child", child)
    for rounds in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            job_times.main(["a", "b", "--workload", "sweep", "--seed", "1",
                            "--rounds", rounds])
        assert exc.value.code == 2
        assert f"--rounds must be at least 1, got {rounds}" in capsys.readouterr().err


@pytest.mark.parametrize("tool, stdout, args", [
    (job_times, '{"j": [1.0, 0.0], "ru_maxrss_mb": 40.0}', ["--rounds", "1"]),
    (job_peaks, "[40.0, 1.0]", [])], ids=["job_times", "job_peaks"])
def test_children_start_in_the_benchmarks_environment(tool, stdout, args, monkeypatch,
                                                       capsys):
    """Every child interpreter gets the environment of the benchmark's
    children: its tree's src first on PYTHONPATH and one BLAS thread count
    per available CPU, whatever the parent's environment says."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "0")
    envs = []

    def run(argv, **kwargs):
        envs.append(kwargs.get("env"))
        return types.SimpleNamespace(stdout=stdout + "\n")

    monkeypatch.setattr(tool.subprocess, "run", run)
    assert tool.main(["a", "b", "--workload", "sweep", "--seed", "1",
                      "--only", "check-ls|dirichlet"] + args) == 0
    threads = str(len(os.sched_getaffinity(0)))
    assert len(envs) == 2
    for env, tree in zip(envs, ("a", "b")):
        assert env["PYTHONPATH"].split(os.pathsep)[0] == str(Path(tree).resolve() / "src")
        assert all(env[var] == threads for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))


def test_job_peaks_prints_each_jobs_growth_over_the_import(monkeypatch, capsys):
    """One fresh child per job and tree, A first; a job's row holds each
    child's peak growth over its import baseline, then come each tree's
    median baseline and, last, its largest job growth."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    calls = []

    def child(tree, workload, seed, ident):
        calls.append((tree.name, ident))
        k = len(calls)
        return (30.0 + k, 10.0 * k) if tree.name == "a" else (40.0, 5.0 * k)

    monkeypatch.setattr(job_peaks, "_child", child)
    assert job_peaks.main(["a", "b", "--workload", "estimate", "--seed", "1",
                           "--only", "norm-check"]) == 0
    header, *rows = (line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert header == ["job", "A_mb", "B_mb", "B/A"]
    idents = [row[0] for row in rows[:-2]]
    assert len(idents) == 4 and all("norm-check" in ident for ident in idents)
    assert calls == [(side, ident) for ident in idents for side in "ab"]
    # A grows 10, 30, 50, 70 over baselines 31, 33, 35, 37; B 10, 20, 30, 40 over 40
    assert [row[1:] for row in rows] == [
        ["10.0", "10.0", "1.000"], ["30.0", "20.0", "0.667"], ["50.0", "30.0", "0.600"],
        ["70.0", "40.0", "0.571"], ["34.0", "40.0", "1.176"], ["70.0", "40.0", "0.571"]]
    assert [row[0] for row in rows[-2:]] == ["import_mb", "deck_max"]


def test_job_peaks_runs_a_job_in_a_fresh_interpreter(monkeypatch, capsys):
    """On one tree: one column, no ratio; NumPy and the package alone take
    tens of MB, and the one job sets the deck maximum."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert job_peaks.main([str(TOOLS.parent), "--workload", "sweep", "--seed", "1",
                           "--only", "check-ls|dirichlet"]) == 0
    header, job, base, deck = (line.split("\t")
                               for line in capsys.readouterr().out.splitlines())
    assert header == ["job", "A_mb"] and "check-ls|dirichlet" in job[0]
    assert base[0] == "import_mb" and 10 < float(base[1]) < 1000
    assert deck == ["deck_max", job[1]] and float(job[1]) >= 0


def test_deck_hashes_runs_one_workload(monkeypatch, capsys):
    # main puts the tree's src and perfbench first on the path
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert deck_hashes.main([str(TOOLS.parent), "3", "--workload", "contour"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["contour"]
    # two semigroup-test and one ibvp-solve job per bundled problem
    jobs = out["contour"]
    assert len(jobs) == 9
    for ident, job in jobs.items():
        assert job["exit"] == 0, ident
        names = set(job["artifacts"])
        assert names == ({"ibvp_solve.csv", "ibvp_solve.json"} if "ibvp-solve" in ident
                         else {"semigroup_test.json"}), ident


def test_deck_hashes_only_runs_the_matching_jobs(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    keep = tmp_path / "kept"
    assert deck_hashes.main([str(TOOLS.parent), "3", "--workload", "estimate",
                             "--only", "hardy-norm", "--keep", str(keep)]) == 0
    jobs = json.loads(capsys.readouterr().out)["estimate"]
    # two drawn p and the known-defect p = 3, which fails "monotone in r"
    assert len(jobs) == 3 and all("hardy-norm" in ident for ident in jobs)
    assert sorted(job["exit"] for job in jobs.values()) == [0, 0, 2]
    assert all(set(job["artifacts"]) == {"hardy_norm.csv"} for job in jobs.values())
    assert sorted(p.name for p in (keep / "estimate").iterdir()) == sorted(
        ident.split(":")[0] for ident in jobs)


def test_deck_hashes_records_each_jobs_headroom(monkeypatch, tmp_path, capsys):
    """Next to its digests each job carries the smallest gate headroom that
    the benchmark's verdict module recomputes from its kept artifacts."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    keep = tmp_path / "kept"
    assert deck_hashes.main([str(TOOLS.parent), "1", "--workload", "sweep",
                             "--only", "singularity-sweep", "--keep", str(keep)]) == 0
    jobs = json.loads(capsys.readouterr().out)["sweep"]
    assert len(jobs) == 6
    import verdicts
    for ident, job in jobs.items():
        outdir = keep / "sweep" / ident.split(":")[0]
        assert job["headroom"] == verdicts.verdict("singularity-sweep", outdir).headroom
        # the slope meets -[t - s]_+ to better than 1e-3 against the 0.1 bound
        assert job["exit"] == 0 and job["headroom"] > 2.0, ident


def test_deck_hashes_keep_feeds_artifact_diff(monkeypatch, tmp_path, capsys):
    """Two kept runs of one tree: every job's artifacts sit under
    DIR/contour/<NN>, and artifact_diff finds nothing to report."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    runs = [tmp_path / "a", tmp_path / "b"]
    hashes = []
    for run in runs:
        assert deck_hashes.main([str(TOOLS.parent), "3", "--workload", "contour",
                                 "--keep", str(run)]) == 0
        hashes.append(json.loads(capsys.readouterr().out))
    assert hashes[0] == hashes[1]
    jobs = hashes[0]["contour"]
    for run in runs:
        assert sorted(p.name for p in run.iterdir()) == ["contour"]
        kept = {p.name: {f.name for f in p.iterdir()} for p in (run / "contour").iterdir()}
        assert sorted(kept) == sorted(ident.split(":")[0] for ident in jobs)
        for ident, job in jobs.items():
            assert kept[ident.split(":")[0]] == set(job["artifacts"]) | {"metadata.json"}
    assert artifact_diff.main([str(r) for r in runs]) == 0
    assert capsys.readouterr().out == ""


def test_gate_resolution_bisects_to_the_step():
    threshold = 0.0731
    got = gate_resolution.smallest_rejected(lambda d: d >= threshold)
    assert threshold <= got <= threshold + gate_resolution.STEP
    assert gate_resolution.smallest_rejected(lambda d: True) == 0.0
    assert gate_resolution.smallest_rejected(lambda d: False) is None


def test_gate_resolution_finds_the_singularity_tolerance(monkeypatch, tmp_path):
    """A coarse bisection on the two Dirichlet singularity configs: their
    slopes meet the claim to 1e-3, so a claim is rejected once it is 0.1 off,
    in either direction."""
    for path in ("src", "perfbench", "tools"):
        monkeypatch.syspath_prepend(str(TOOLS.parent / path))
    monkeypatch.setattr(gate_resolution, "STEP", 0.05)
    sweeps = gate_resolution.sweeps()
    assert {job.command for job in sweeps.values()} == {"decay-sweep", "singularity-sweep"}
    ours = sorted(ident for ident in sweeps if "singularity-sweep|dirichlet" in ident)
    assert ours == ['singularity-sweep|dirichlet|{"t": 1.0}',
                    'singularity-sweep|dirichlet|{"t": 1.5}']
    for ident in ours:
        deltas = gate_resolution.resolution(sweeps[ident], tmp_path)
        assert sorted(deltas) == ["+", "-"]
        assert all(0.1 - 1e-3 <= d <= 0.15 + 1e-3 for d in deltas.values()), deltas


def _stub_source(monkeypatch):
    """Replace the source identity of a tree: its directory name."""
    monkeypatch.setattr(bench_pairs, "source",
                        lambda tree: {"git_revision": None, "src_sha256": tree.name})


def _stub_runs(monkeypatch, gain):
    """Replace the benchmark run: the change's ``jobs_per_s`` is the
    parent's times ``gain(pair)`` on a parent that drifts from pair to
    pair, and its ``job_s.p50`` (lower is better) 1 / ``gain(pair)``;
    every other metric reads 1.0 on both.  Returns the calls made."""
    calls = []

    def run_once(tree, command, workload, seed, seconds):
        calls.append((tree.name, seed))
        pair = seed - calls[0][1]
        value = 30.0 + pair % 3 * (1.5 if tree.name == "change" else 1.0)
        factor = gain(pair) if tree.name == "change" else 1.0
        metrics = {name: {"value": 1.0, "unit": "u"}
                   for name in ("setup_s", "job_s.tail", "peak_rss_mb",
                                "pass_ratio", "accuracy_digits")}
        metrics["jobs_per_s"] = {"value": value * factor, "unit": "1/s"}
        metrics["job_s.p50"] = {"value": 1.0 / factor, "unit": "s"}
        return {"correct": True, "attempted": 100, "failed": 0, "metrics": metrics}
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    _stub_source(monkeypatch)
    return calls


def test_bench_pairs_alternates_on_unused_seeds_and_writes_the_claim(monkeypatch, tmp_path,
                                                                     capsys):
    """Four pairs, each won by the change by far more than the parent's IQR:
    the claim block is written, but not met on fewer than ten pairs."""
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    (tmp_path / "BENCH_old.json").write_text(json.dumps(
        {"workloads": {"sweep": {"seeds": [5, 41]}}, "other": {"seeds": [12]}}))
    out = tmp_path / "BENCH_new.json"
    out.write_text(json.dumps({"change": "what the change does"}))
    calls = _stub_runs(monkeypatch, lambda pair: 1.5)
    monkeypatch.setattr(bench_pairs, "PAIRS", 4)
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "sweep", "--out", str(out),
                             "--claim", "jobs_per_s"]) == 0
    assert calls == [("parent", 42), ("change", 42), ("change", 43), ("parent", 43),
                     ("parent", 44), ("change", 44), ("change", 45), ("parent", 45)]
    report = json.loads(out.read_text())
    assert report["change"] == "what the change does"
    entry = report["workloads"]["sweep"]
    assert entry["seeds"] == [42, 43, 44, 45]
    assert entry["first"] == ["parent", "change", "parent", "change"]
    assert entry["attempted"] == {"parent": 400, "change": 400}
    assert entry["all_runs_correct"] and entry["failed"] == {"parent": 0, "change": 0}
    jobs = entry["metrics"]["jobs_per_s"]
    assert jobs["parent_runs"] == [30.0, 31.0, 32.0, 30.0]
    assert jobs["change_runs"] == pytest.approx([45.0, 47.25, 49.5, 45.0])
    assert jobs["parent"] == pytest.approx({"q1": 30.0, "median": 30.5, "q3": 31.25})
    assert jobs["change_wins"] == 4 and jobs["change_losses"] == 0
    assert jobs["gap_exceeds_parent_iqr"] and not jobs["worse_than_bound"]
    assert not jobs["unresolved"]
    p50 = entry["metrics"]["job_s.p50"]
    assert p50["change_wins"] == 4 and not p50["worse_than_bound"]
    assert p50["median_rel_change"] == pytest.approx(1 / 1.5 - 1)
    flat = entry["metrics"]["setup_s"]
    assert flat["change_wins"] == flat["change_losses"] == 0
    assert not flat["gap_exceeds_parent_iqr"] and flat["median_rel_change"] == 0.0
    assert report["claim"] == {
        "metric": "jobs_per_s", "workload": "sweep", "parent_median": 30.5,
        "change_median": 46.125, "ratio": pytest.approx(46.125 / 30.5),
        "parent_iqr": pytest.approx(1.25), "change_wins": 4, "pairs": 4, "met": False}
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7 and lines[1].startswith("sweep\tjobs_per_s\t30.5\t")
    assert lines[1].endswith("\t4/4\tgap>IQR\tok\tresolved")
    # a second workload merges in after the seeds the first one took
    calls.clear()
    monkeypatch.setattr(bench_pairs, "PAIRS", 1)
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "contour", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert sorted(report["workloads"]) == ["contour", "sweep"]
    assert report["workloads"]["contour"]["seeds"] == [46]
    assert report["claim"]["workload"] == "sweep"


def test_bench_pairs_claim_needs_nine_tenths_of_the_pairs(monkeypatch, tmp_path):
    """The change loses 2 of 10 pairs: the median gain exceeds the parent's
    IQR, but the claim is not met; nor is it when the change wins every
    pair by less than the parent's IQR.  A loss beyond the bound is
    flagged, on a metric where higher is better and on one where lower is."""
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    out = tmp_path / "BENCH_x.json"
    _stub_runs(monkeypatch, lambda pair: 0.9 if pair in (3, 7) else 1.3)
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "sweep", "--out", str(out),
                             "--claim", "jobs_per_s"]) == 0
    report = json.loads(out.read_text())
    assert report["workloads"]["sweep"]["seeds"] == list(range(1, 11))
    block = report["claim"]
    assert block["change_wins"] == 8 and block["pairs"] == 10 and not block["met"]
    assert report["workloads"]["sweep"]["metrics"]["jobs_per_s"]["gap_exceeds_parent_iqr"]
    _stub_runs(monkeypatch, lambda pair: 1.001)
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "sweep", "--out", str(out),
                             "--claim", "jobs_per_s"]) == 0
    block = json.loads(out.read_text())["claim"]
    assert block["change_wins"] == 10 and block["parent_iqr"] > 0.5 and not block["met"]
    _stub_runs(monkeypatch, lambda pair: 0.7)
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "sweep", "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["sweep"]["metrics"]
    for name in ("jobs_per_s", "job_s.p50"):
        assert metrics[name]["worse_than_bound"] and metrics[name]["change_wins"] == 0


def test_bench_pairs_flags_a_metric_the_parents_spread_cannot_resolve(monkeypatch, tmp_path,
                                                                      capsys):
    """The parent's ``setup_s`` and ``jobs_per_s`` swing by half their
    median, wider than the 25 % bound.  A change run inside that swing
    leaves ``setup_s`` unresolved though its median is within the bound; a
    change better than every parent run resolves ``jobs_per_s``; a metric
    with a steady parent is resolved."""
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    out = tmp_path / "BENCH_x.json"

    def run_once(tree, command, workload, seed, seconds):
        swing = 1.0 + 0.5 * (seed % 2)
        change = tree.name == "change"
        metrics = {name: {"value": 1.0, "unit": "u"}
                   for name in ("job_s.p50", "job_s.tail", "peak_rss_mb",
                                "pass_ratio", "accuracy_digits")}
        metrics["setup_s"] = {"value": 1.2 if change else swing, "unit": "s"}
        metrics["jobs_per_s"] = {"value": 40.0 if change else 20.0 * swing, "unit": "1/s"}
        return {"correct": True, "attempted": 100, "failed": 0, "metrics": metrics}
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    _stub_source(monkeypatch)
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "sweep", "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["sweep"]["metrics"]
    setup = metrics["setup_s"]
    assert setup["parent"]["q3"] - setup["parent"]["q1"] > 0.25 * setup["parent"]["median"]
    assert setup["unresolved"] and not setup["worse_than_bound"]
    assert not metrics["jobs_per_s"]["unresolved"]
    assert metrics["jobs_per_s"]["parent"]["q3"] - metrics["jobs_per_s"]["parent"]["q1"] > 5.0
    assert not metrics["peak_rss_mb"]["unresolved"]
    lines = {line.split("\t")[1]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["setup_s"].endswith("\tunresolved")
    assert lines["jobs_per_s"].endswith("\tresolved")


def test_bench_pairs_records_the_source_each_side_ran(monkeypatch, tmp_path):
    """Each side's ``source`` comes from that tree's own ``perfbench/run.py``
    (here a stub that names its tree), once per workload run."""
    for side in ("parent", "change"):
        _write(tmp_path / side, "perfbench/run.py",
               "def source_identity(root):\n"
               "    return {'git_revision': None, 'src_sha256': root.name + '-digest'}\n")
    _stub_runs(monkeypatch, lambda pair: 1.2)
    monkeypatch.setattr(bench_pairs, "source", _real_source)
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "sweep", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["workloads"]["sweep"]["source"] == {
        "parent": {"git_revision": None, "src_sha256": "parent-digest"},
        "change": {"git_revision": None, "src_sha256": "change-digest"}}


def test_bench_pairs_source_is_the_benchmarks_source_identity():
    """On this repository, the same revision and digest as the benchmark's
    own ``source_identity`` gives."""
    root = TOOLS.parent
    sys.path.insert(0, str(root / "perfbench"))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      root / "perfbench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(root / "perfbench"))
    assert bench_pairs.source(root) == run.source_identity(root)


@pytest.mark.parametrize("argv,message", [
    (["--workload", "nope"], "--workload must name a workload"),
    (["--claim", "nope"], "--claim must name an end-to-end metric")])
def test_bench_pairs_rejects_bad_arguments(argv, message, tmp_path, capsys):
    base = {"--workload": "sweep", "--out": str(tmp_path / "BENCH_x.json")}
    args = dict(zip(argv[::2], argv[1::2]))
    flat = [item for pair in {**base, **args}.items() for item in pair]
    with pytest.raises(SystemExit) as err:
        bench_pairs.main(["a", "b"] + flat)
    assert err.value.code == 2 and message in capsys.readouterr().err
    assert not (tmp_path / "BENCH_x.json").exists()
