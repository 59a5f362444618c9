"""One workload run in a fresh interpreter: the job loop, tracing and checks.

Started by ``run.py`` with the package on ``PYTHONPATH`` and the BLAS thread
variables already set.  It runs passes of the workload's deck through
``halfpoisson.cli.main`` in this process (one client, closed loop), then
recomputes every job's verdict from its artifacts and writes a JSON record
for ``run.py`` to turn into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import gauge
import jobs as jobs_mod
import spans
import verdicts


def write_configs(deck, work: Path) -> list[str | None]:
    """Write each job's config file once, before any job is timed."""
    paths = []
    for i, job in enumerate(deck):
        path = None
        if job.config is not None:
            path = work / f"config-{i:02d}.json"
            path.write_text(job.config, encoding="utf-8")
        paths.append(str(path) if path else None)
    return paths


def run_job(cli, job, outdir: Path, config_path: str | None) -> dict:
    """Time one CLI invocation from argv to exit code, artifacts written."""
    sink = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(job.argv(str(outdir), config_path))
    except Exception:  # a crashing job is recorded and the campaign goes on
        code, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if code == 1 and error is None:
        error = sink.getvalue()[-500:]
    return {"seconds": seconds, "exit": code, "error": error}


def run_pass(cli, deck, config_paths, jobdir: Path, p: int, traced: bool,
             deadline: float | None = None, host: gauge.Gauge | None = None,
             only: set[int] | None = None) -> list[dict]:
    """Every job of the deck once (or those in ``only``), in deck order.
    With a ``deadline`` (``time.perf_counter`` seconds) no job starts after
    it; with a ``host`` gauge the host speed is sampled between jobs."""
    records = []
    for i, job in enumerate(deck):
        if only is not None and i not in only:
            continue
        if deadline is not None and time.perf_counter() >= deadline:
            break
        outdir = jobdir / f"{p:03d}-{i:02d}"
        rec = run_job(cli, job, outdir, config_paths[i])
        rec.update(job=i, pass_=p, traced=traced, outdir=str(outdir))
        records.append(rec)
        if host is not None:
            host.tick()
    return records


def check_runs(deck, records) -> None:
    """Verdict, headroom, digest and artifact size of every job run, in place.

    A run's ``problem`` stays ``None`` when the CLI returned 0 or 2, the
    verdict recomputed from its artifacts matches that exit code, and its
    artifact digest equals that of the job's first run.
    """
    digests: dict[int, str] = {}
    for rec in records:
        job = deck[rec["job"]]
        outdir = Path(rec.pop("outdir"))
        rec.update(passed=None, headroom=None, digest=None, artifact_bytes=0,
                   problem=None)
        if rec["error"] is None and rec["exit"] in (0, 2):
            try:
                v = verdicts.verdict(job.command, outdir)
                rec.update(passed=v.passed, headroom=v.headroom,
                           digest=verdicts.artifact_digest(outdir),
                           artifact_bytes=sum(f.stat().st_size
                                              for f in outdir.iterdir()))
            except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError):
                rec["error"] = traceback.format_exc(limit=2)
        if rec["error"] is not None or rec["exit"] not in (0, 2):
            rec["problem"] = "error"
        elif rec["passed"] != (rec["exit"] == 0):
            rec["problem"] = "verdict does not match exit code"
        elif digests.setdefault(rec["job"], rec["digest"]) != rec["digest"]:
            rec["problem"] = "artifact digest differs from the job's first run"
        shutil.rmtree(outdir, ignore_errors=True)


def _openblas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS that NumPy and SciPy bundle."""
    import numpy
    site = Path(numpy.__file__).resolve().parent.parent
    out = {}
    for lib in sorted(site.glob("numpy.libs/*openblas*")) + sorted(site.glob("scipy.libs/*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[lib.name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(jobs_mod.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True, help="directory holding halfpoisson/")
    ap.add_argument("--work", required=True, help="scratch directory for artifacts")
    ap.add_argument("--record", required=True, help="JSON record to write")
    args = ap.parse_args(argv)

    from halfpoisson import cli
    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"halfpoisson imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 1

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    deck = jobs_mod.deck(args.workload, args.seed)
    config_paths = write_configs(deck, work)
    jobdir = work / "jobs"

    records = []
    t0 = time.perf_counter()
    if args.trace:
        # a warm-up pass, then (untraced, traced) pairs of passes; each
        # traced pass is compared job by job with the untraced one before it
        records += run_pass(cli, deck, config_paths, jobdir, 0, traced=False)
        tracer = spans.Tracer()
        window = {"untraced_s": 0.0, "traced_s": 0.0}
        p = 1
        while p == 1 or time.perf_counter() - t0 < args.seconds:
            t1 = time.perf_counter()
            records += run_pass(cli, deck, config_paths, jobdir, p, traced=False)
            t2 = time.perf_counter()
            restore = tracer.install()
            try:
                records += run_pass(cli, deck, config_paths, jobdir, p + 1, traced=True)
            finally:
                restore()
            window["untraced_s"] += t2 - t1
            window["traced_s"] += time.perf_counter() - t2
            p += 2
        reference = None
        n_traced = sum(r["traced"] for r in records)
        layer = {name: list(v) for name, v in tracer.metrics(n_traced).items()}
        missing = tracer.missing(args.workload)
    else:
        # warm up on the first job of each (command, problem) kind, so that
        # lazy imports and first-call set-up finish (checked, not timed);
        # then timed passes until the time is used, the last one cut short
        # at the deadline; every job is timed at least TIMED_PASSES times,
        # with the host speed sampled
        deadline = t0 + args.seconds
        first: dict[tuple, int] = {}
        for i, job in enumerate(deck):
            first.setdefault((job.command, job.problem), i)
        records += run_pass(cli, deck, config_paths, jobdir, 0, traced=False,
                            only=set(first.values()))
        host = gauge.Gauge()
        p = 1
        while p <= jobs_mod.TIMED_PASSES or time.perf_counter() < deadline:
            records += run_pass(cli, deck, config_paths, jobdir, p, traced=False,
                                deadline=deadline if p > jobs_mod.TIMED_PASSES else None,
                                host=host)
            p += 1
        window = {"window_s": time.perf_counter() - t0}
        reference = {"nominal_s": gauge.REFERENCE_S, "samples_s": host.samples}
        layer, missing = {}, []

    check_runs(deck, records)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "deck": [{"ident": j.ident, "known_defect": j.known_defect} for j in deck],
        "runs": records,
        "window": window,
        "reference": reference,
        "layer": layer,
        "missing_layers": missing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    Path(args.record).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
