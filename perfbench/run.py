"""End-to-end and per-layer benchmark of the ``seqlim`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload limit --seed 1 --seconds 30 --trace 0

The workload's job list is drawn from the seed (see workloads.py).  Jobs run
in a closed loop with one client: each job is a fresh ``seqlim`` process
(perfbench/job.py calling ``seqlim.cli.main`` from ``src``), started only
after the previous one has ended, and its output is checked independently.
A pass runs the whole list once.  The run repeats passes while the next one
is expected to end within ``--seconds``, and makes at least two.

With ``--trace 0`` every pass is untraced and the last line of stdout holds
the end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate, and the last line holds the per-layer metrics of the traced
passes.  The line before it records the environment and the job list, and
perfbench/out/ keeps the per-job details of the latest run of each
workload, seed and trace setting.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import mpmath

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
JOB = Path(__file__).resolve().parent / "job.py"
OUT = Path(__file__).resolve().parent / "out"

# The run must end within 180 s; no job is started or waited for beyond this.
RUN_LIMIT_S = 170.0
MIN_PASSES = 2
# Set-up-only jobs per pass, so that setup_s has enough samples even when a
# pass has only a few jobs.
SETUP_JOB = {"id": "setup", "argv": [], "expect": None}
SETUPS_PER_PASS = 2


def run_job(job: dict, tmp: Path, traced: bool, deadline: float) -> dict:
    """Run one job to completion (or until ``deadline``) and judge its output.

    A job killed at the deadline gets the return code None.
    """
    record_path = tmp / f"{job['id']}.record.json"
    record_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PERFBENCH_RECORD=str(record_path),
               PERFBENCH_TRACE="1" if traced else "0",
               PERFBENCH_JOB_ID=job["id"])
    out_path, err_path = tmp / f"{job['id']}.out", tmp / f"{job['id']}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(JOB), *job["argv"]],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        # A blocking wait times the exit exactly; Popen.wait(timeout) polls
        # in steps of up to 50 ms.  The timer kills a job that overruns.
        limit = max(1.0, deadline - start)
        killer = threading.Timer(limit, proc.kill)
        killer.start()
        returncode = proc.wait()
        end = time.monotonic()
        killer.cancel()
        if end - start >= limit:
            returncode = None
    stdout = out_path.read_text()
    record = json.loads(record_path.read_text()) if record_path.exists() else None
    failure = workloads.judge(job, returncode, stdout)
    return {
        "id": job["id"],
        "seconds": end - start,
        "setup_s": record["ready"] - start if record else None,
        "returncode": returncode,
        "failure": failure,
        "stdout": stdout,
        "stderr": err_path.read_text()[-2000:] if failure else "",
        "record": record if traced else None,
    }


def run_passes(jobs: list[dict], seconds: float, trace: bool, tmp: Path,
               deadline: float) -> list[dict]:
    """Whole passes over ``jobs``; with tracing, untraced and traced alternate."""
    kinds = (False, True) if trace else (False,)
    passes = []
    while True:
        for traced in kinds:
            setups = [run_job(SETUP_JOB, tmp, False, deadline)
                      for _ in range(SETUPS_PER_PASS)]
            results = [run_job(job, tmp, traced, deadline) for job in jobs]
            passes.append({"traced": traced, "jobs": results, "setups": setups,
                           "seconds": sum(r["seconds"] for r in results)})
        measured = sum(p["seconds"] for p in passes)
        mean = measured / len(passes)
        if any(r["returncode"] is None for p in passes for r in p["jobs"] + p["setups"]):
            break
        if time.monotonic() + mean * len(kinds) > deadline:
            break
        if len(passes) >= MIN_PASSES and measured + mean * len(kinds) > seconds:
            break
    return passes


def list_seconds(passes: list[dict]) -> float:
    """Time to finish the job list: the sum over jobs of each job's median time."""
    times = {}
    for p in passes:
        for r in p["jobs"]:
            times.setdefault(r["id"], []).append(r["seconds"])
    return sum(statistics.median(t) for t in times.values())


def end_to_end_metrics(passes: list[dict]) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    setups = [r["setup_s"] for p in untraced for r in p["jobs"] + p["setups"]
              if r["setup_s"] is not None]
    return {
        "wall_s": (list_seconds(untraced), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                        "MB"),
    }


def per_layer_metrics(passes: list[dict]) -> tuple[dict, bool]:
    """Layer metrics of the traced passes, and whether their counts repeat.

    Times are medians over the traced passes; counts come from the first
    traced pass, and every traced pass of the same jobs should give the same.
    """
    traced = [layers.layer_metrics([r["record"] for r in p["jobs"] if r["record"]])
              for p in passes if p["traced"]]
    units = {name: unit for name, unit, _ in layers.METRICS}
    out = {}
    for name, value in traced[0].items():
        if units[name] == "s":
            value = statistics.median(t[name] for t in traced)
        out[name] = (value, units[name])
    repeat = all(t[n] == traced[0][n] for t in traced for n in t if units[n] != "s")
    untraced_s = list_seconds([p for p in passes if not p["traced"]])
    traced_s = list_seconds([p for p in passes if p["traced"]])
    out["trace.overhead_frac"] = (traced_s / untraced_s - 1, "frac")
    return out, repeat


def environment(args, jobs: list[dict]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": metadata.version("numpy"),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
        "clients": 1,
        "loop": "closed",
        "jobs": [" ".join(job["argv"]) for job in jobs],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "seqlim" / "cli.py").is_file():
        print(f"error: no seqlim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    jobs = workloads.jobs_for(args.workload, args.seed)
    env = environment(args, jobs)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        passes = run_passes(jobs, args.seconds, bool(args.trace), Path(tmp),
                            started + RUN_LIMIT_S)
    env["loadavg_end"] = os.getloadavg()
    results = [r for p in passes for r in p["setups"] + p["jobs"]]
    if all(r["setup_s"] is None for r in results):
        print(f"error: no job got through set-up: {results[0]['stderr']}", file=sys.stderr)
        return 1
    failures = [{"id": r["id"], "failure": r["failure"], "stderr": r["stderr"]}
                for r in results if r["failure"]]
    if args.trace:
        metrics, env["counts_repeat"] = per_layer_metrics(passes)
    else:
        metrics = end_to_end_metrics(passes)
    env["failed_frac"] = len(failures) / len(results)
    env["passes"] = [{"traced": p["traced"], "seconds": p["seconds"],
                      "jobs": {r["id"]: round(r["seconds"], 4) for r in p["jobs"]}}
                     for p in passes]
    result = {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    detail = {"environment": env, "failures": failures, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"environment": env, "failures": failures}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
