import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


artifact_diff = _load("artifact_diff")
deck_hashes = _load("deck_hashes")
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


def test_job_times_prints_each_job_on_both_trees(capsys):
    repo = str(TOOLS.parent)
    assert job_times.main([repo, repo, "--workload", "sweep", "--seed", "1",
                           "--rounds", "2", "--only", "check-ls"]) == 0
    header, *rows, rss = (line.split("\t")
                          for line in capsys.readouterr().out.splitlines())
    assert header == ["job", "A_s", "B_s", "B/A", "B_won"]
    assert rss[0] == "ru_maxrss_mb"
    # one check-ls job per bundled problem
    assert len(rows) == 3 and all("check-ls" in row[0] for row in rows)
    for _, a, b, ratio, won in rows:
        assert float(a) > 0 and float(b) > 0
        assert float(ratio) == pytest.approx(float(b) / float(a), rel=0.05)
        assert won in {"0/2", "1/2", "2/2"}


def test_job_times_prints_each_trees_median_peak_rss(capsys):
    """The last row holds the median ru_maxrss of each tree's interpreters:
    NumPy and the package alone take tens of MB."""
    repo = str(TOOLS.parent)
    assert job_times.main([repo, repo, "--workload", "sweep", "--seed", "1",
                           "--rounds", "3", "--only", "check-ls|dirichlet"]) == 0
    *_, (name, a, b, ratio, won) = (line.split("\t")
                                    for line in capsys.readouterr().out.splitlines())
    assert name == "ru_maxrss_mb"
    assert 10 < float(a) < 1000 and 10 < float(b) < 1000
    assert float(ratio) == pytest.approx(float(b) / float(a), rel=0.01)
    assert won in {f"{k}/3" for k in range(4)}


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
