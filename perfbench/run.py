"""Benchmark entry point: one workload run, metrics on the last stdout line.

Usage, from the root of a halfpoisson source tree::

    python3 perfbench/run.py --workload {contour,sweep,estimate} \
        --seed N --seconds S --trace {0,1}

Set-up time is measured on fresh interpreters that only import
``halfpoisson.cli``, before the workload and again after it.  The workload
runs in one more fresh interpreter (``worker.py``).  With ``--trace 0`` the
result holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced window and the tracing overhead.
Human-readable lines, each metric with its unit and sample count, precede
the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import WORKLOADS

HERE = Path(__file__).resolve().parent
# set-up is sampled this often before the workload and again after it
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
WORKER_TIMEOUT_S = 150
TAIL_PERCENTILE = 90


def child_env(src: Path) -> dict:
    """Environment of every child interpreter: the source tree first on the
    path, and BLAS threads fixed before NumPy loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def setup_samples(src: Path, env: dict) -> list[float]:
    """Seconds from interpreter start to ``import halfpoisson.cli`` done."""
    code = ("import time, halfpoisson.cli as c; "
            "print(time.monotonic()); print(c.__file__)")
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        done, path = proc.stdout.split()
        if src not in Path(path).resolve().parents:
            raise RuntimeError(f"halfpoisson imported from {path}, not from {src}")
        out.append(float(done) - t0)
    return out


def importtime(env: dict) -> dict[str, float]:
    """Median self import seconds of scipy, numpy and halfpoisson modules."""
    samples: dict[str, list[float]] = {"scipy": [], "numpy": [], "halfpoisson": []}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import halfpoisson.cli"], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        totals = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            if top in totals:
                totals[top] += int(self_us) / 1e6
        for k, v in totals.items():
            samples[k].append(v)
    return {k: statistics.median(v) for k, v in samples.items()}


def source_identity(root: Path) -> dict:
    """Git revision when the tree is a git checkout, and a digest of src/."""
    rev = None
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                 capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    h = hashlib.sha256()
    for path in sorted((root / "src" / "halfpoisson").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_revision": rev, "src_sha256": h.hexdigest()}


def end_to_end(rec: dict, setup: list[float]) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, sample note).

    A deck job's time is the mean of its timed runs, so the job mix is the
    deck's whatever the number of runs, and it is scaled to the nominal host
    by the mean of the run's reference samples (``gauge.py``).  Means, not
    medians: contention on a shared host makes a short job either quick or
    about twice as slow, and the median of such samples jumps between the
    two while the mean follows the share of slow runs, as the mean of the
    reference samples does.
    """
    runs = rec["runs"]
    by_job = [[r for r in runs if r["job"] == i] for i in range(len(rec["deck"]))]
    n = len(by_job)
    samples = rec["reference"]["samples_s"]
    ref = statistics.fmean(samples)
    scale = rec["reference"]["nominal_s"] / ref
    # pass 0 warms up and is not timed
    timed = [[r["seconds"] for r in rs if r["pass_"] > 0] for rs in by_job]
    wall = [statistics.fmean(t) for t in timed]
    job_s = [w * scale for w in wall]
    reps = sorted(len(t) for t in timed)
    per = (f"{n} deck jobs, each the mean of its {reps[0]}-{reps[-1]} timed runs "
           f"(of {len(runs)} in {rec['window']['window_s']:.1f} s), x {scale:.4f} for the "
           f"host: reference task {ref * 1e3:.2f} ms, mean of {len(samples)}")
    headrooms = [rs[0]["headroom"] for rs in by_job if rs[0]["headroom"] is not None]
    ok = [rs for rs in by_job if all(r["problem"] is None and r["exit"] == 0 for r in rs)]

    def tail(xs):
        return statistics.quantiles(xs, n=100, method="inclusive")[TAIL_PERCENTILE - 1]

    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} interpreters"),
        "jobs_per_s": (n / sum(job_s), "1/s",
                       f"{per}; unscaled {n / sum(wall):.6g} 1/s"),
        "job_s.p50": (statistics.median(job_s), "s",
                      f"median of {per}; unscaled {statistics.median(wall):.6g} s"),
        "job_s.tail": (tail(job_s), "s",
                       f"p{TAIL_PERCENTILE} of {per}; unscaled {tail(wall):.6g} s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB", "ru_maxrss of the workload interpreter"),
        "pass_ratio": (len(ok) / n, "1", f"{len(ok)} of {n} deck jobs pass their gates "
                                         "on every run"),
        "accuracy_digits": (statistics.fmean(headrooms), "decades",
                            f"mean smallest headroom of {len(headrooms)} deck jobs"),
    }


def per_layer(rec: dict, env: dict) -> dict[str, tuple[float, str, str]]:
    runs = rec["runs"]
    traced = [r for r in runs if r["traced"]]
    # pass 0 warms up; traced pass p + 1 follows untraced pass p
    plain = {(r["job"], r["pass_"]): r for r in runs if not r["traced"] and r["pass_"]}
    ratios = [r["seconds"] / plain[(r["job"], r["pass_"] - 1)]["seconds"]
              for r in traced]
    win = rec["window"]
    out = {}
    for name, secs in importtime(env).items():
        key = "halfpoisson_self_s" if name == "halfpoisson" else f"{name}_s"
        out[f"setup.import.{key}"] = (secs, "s", f"median of {IMPORTTIME_SAMPLES} -X importtime runs")
    note = f"per job, {len(traced)} traced jobs"
    out["trace.jobs_per_s_untraced"] = (len(plain) / win["untraced_s"], "1/s", f"{len(plain)} jobs")
    out["trace.jobs_per_s_traced"] = (len(traced) / win["traced_s"], "1/s", f"{len(traced)} jobs")
    out["trace.overhead"] = (statistics.median(ratios) - 1.0, "1",
                             f"median traced/untraced time of {len(ratios)} job pairs, minus 1")
    out["cli.artifact_bytes"] = (statistics.fmean(r["artifact_bytes"] for r in traced),
                                 "B/job", note)
    for name, (value, unit) in rec["layer"].items():
        out[name] = (value, unit, note)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "halfpoisson" / "cli.py").is_file():
        print(f"error: no halfpoisson source tree under {src}; "
              "run from the root of a halfpoisson checkout", file=sys.stderr)
        return 2
    env = child_env(src)
    base = root / ".perfbench_work"
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = base / f"{label}-{os.getpid()}"
    record = work / "worker.json"
    try:
        setup = [] if args.trace else setup_samples(src, env)
        work.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--src", str(src), "--work", str(work),
             "--record", str(record)],
            env=env, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        if not args.trace:
            setup += setup_samples(src, env)
        rec = json.loads(record.read_text(encoding="utf-8"))
        metrics = per_layer(rec, env) if args.trace else end_to_end(rec, setup)
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = rec["runs"]
    bad = [r for r in runs if r["problem"] is not None]
    problems = [f"{rec['deck'][r['job']]['ident']}: {r['problem']}" for r in bad]
    problems += [f"layer {g} made no calls on {args.workload}" for g in rec["missing_layers"]]
    correct = not problems

    report = {
        "label": label,
        "source": source_identity(root),
        "environment": rec["environment"],
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
        "reference": rec["reference"],
        "known_defect_jobs": sorted({rec["deck"][r["job"]]["ident"] for r in runs
                                     if r["exit"] == 2}),
        "problems": problems,
        "jobs": {j["ident"]: {
            "seconds": [r["seconds"] for r in runs if r["job"] == i],
            "exit": sorted({r["exit"] for r in runs if r["job"] == i}, key=str),
            "headroom": next((r["headroom"] for r in runs if r["job"] == i), None),
        } for i, j in enumerate(rec["deck"])},
    }
    records = base / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{label}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    envd = rec["environment"]
    print(f"# {label}: python {envd['python']}, numpy {envd['numpy']}, scipy {envd['scipy']}, "
          f"blas {envd['blas']}, blas threads {envd['blas_threads']}, nproc {envd['nproc']}, "
          f"source {report['source']}")
    for name, (value, unit, note) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}  [{note}]")
    defects = {j["ident"]: j["known_defect"] for j in rec["deck"]}
    for ident in report["known_defect_jobs"]:
        why = defects[ident] or "not a known defect"
        print(f"# tolerance failed (exit 2, verdict confirmed): {ident} -- {why}")
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
