#!/usr/bin/env python3
"""The reebkit benchmark: end-to-end job metrics and a traced per-layer run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload orbit-sweep --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``orbit-sweep``,
``return-dense`` and ``path-corpus``.  Each is a closed loop with one client:
one untimed warm-up job, then jobs back to back until ``--seconds`` of wall
time have passed.  reebkit is imported from ``src/`` of the checkout, in
this process, with BLAS pinned to one thread.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every job
twice, once plain and once under the tracer (alternating which goes first),
and reports the per-layer metrics, the import-time split of the set-up and
the tracing overhead.  The last line of standard output is the result
object; the line before it records the environment.  Both, with per-job
details, are also written to ``perfbench-out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
WORKLOADS = ("orbit-sweep", "return-dense", "path-corpus")
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_TIMEOUT_S = 120

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be between 1 and 3600")
    return args


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter importing reebkit


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def _import_reebkit(*flags: str) -> tuple[float, str]:
    start = clock()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import reebkit"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=IMPORT_TIMEOUT_S, check=True,
    )
    return clock() - start, proc.stderr


def measure_setup() -> float:
    """Median wall time of ``import reebkit`` in a fresh interpreter.

    Runs after the jobs, so the bytecode and file caches are warm, as they
    are for a user's second invocation.
    """
    return statistics.median(_import_reebkit()[0] for _ in range(SETUP_REPEATS))


def _import_split(stderr: str) -> dict[str, float]:
    """numpy, scipy and the rest of ``import reebkit`` from ``-X importtime``.

    A module counts towards numpy or scipy when it belongs to that package
    and no module above it in the import tree does; ``reebkit`` is the
    package's cumulative import time less those two.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        level = (len(name) - len(name.lstrip())) // 2
        rows.append((level, name.strip(), int(cumulative) * 1e-6))
    sums = {"numpy": 0.0, "scipy": 0.0}
    reebkit_total = 0.0
    stack: list[tuple[int, str]] = []  # rows are printed children first
    for level, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        top = name.split(".")[0]
        if top in sums and not any(pkg in sums for _lvl, pkg in stack):
            sums[top] += cumulative
        if name == "reebkit":
            reebkit_total = cumulative
        stack.append((level, top))
    return {"setup.numpy_s": sums["numpy"], "setup.scipy_s": sums["scipy"],
            "setup.reebkit_s": reebkit_total - sums["numpy"] - sums["scipy"]}


def measure_import_split() -> dict[str, float]:
    splits = [_import_split(_import_reebkit("-X", "importtime")[1]) for _ in range(SETUP_REPEATS)]
    return {key: statistics.median(s[key] for s in splits) for key in splits[0]}


# ---------------------------------------------------------------------------
# the environment record


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def _source_digest() -> str:
    """sha256 of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "reebkit").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas():
    import numpy as np

    info = {"pinned_threads": int(BLAS_THREADS), "runtime_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (AttributeError, KeyError, TypeError):
        info.update(name=None, version=None)
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                info["runtime_threads"] = getattr(handle, symbol)()
                return info
    return info


def environment(args, pool_keys: list[str]) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs_in_pool": pool_keys,
    }


# ---------------------------------------------------------------------------
# running jobs


class Runner:
    """Runs jobs, times them, and counts failures and repeat-digest checks."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.digest_checks = 0
        self.failures: list[str] = []

    def run(self, job) -> float:
        start = clock()
        try:
            digest = job.run(self.workdir)
        except Exception as exc:  # a failed job is counted and the run goes on
            failure = f"{type(exc).__name__}: {exc}"
        else:
            failure = None
            if job.key in self.digests:
                self.digest_checks += 1
                if digest != self.digests[job.key]:
                    failure = "output bytes differ from the first run of this input"
            self.digests.setdefault(job.key, digest)
        duration = clock() - start
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.failures.append(f"{job.key}: {failure}")
        return duration


def run_plain(runner: Runner, pool: list, seconds: int) -> tuple[dict, dict]:
    durations = []
    start = clock()
    while not durations or clock() - start < seconds:
        durations.append(runner.run(pool[len(durations) % len(pool)]))
    elapsed = clock() - start
    completed = len(durations) - runner.failed
    details = {"jobs": len(durations), "elapsed_s": elapsed, "job_s": durations,
               "job_s.p50": statistics.median(durations)}
    if len(durations) >= 100:  # at least ten samples beyond the 90th percentile
        details["job_s.p90"] = statistics.quantiles(durations, n=10)[8]
    return {"jobs_per_s": (completed / elapsed, "1/s")}, details


def run_traced(runner: Runner, pool: list, seconds: int, spans_path: Path) -> tuple[dict, dict]:
    import tracer as tracing

    tracer = tracing.Tracer()

    def run_under_trace(job, index: int) -> float:
        tracer.install()
        tracer.begin_job(index)
        try:
            return runner.run(job)
        finally:
            tracer.end_job()
            tracer.remove()

    plain, traced = [], []
    start = clock()
    while not plain or clock() - start < seconds:
        i = len(plain)
        job = pool[i % len(pool)]
        for under_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if under_trace:
                traced.append(run_under_trace(job, i))
            else:
                plain.append(runner.run(job))
    tracer.write_spans(spans_path)
    metrics = tracer.metrics()
    # traced jobs/s over plain jobs/s on the same jobs is sum(plain) / sum(traced)
    metrics["trace.overhead_frac"] = 1.0 - sum(plain) / sum(traced)
    units = {name: unit for name, unit, _better in tracing.metric_specs()}
    return ({name: (value, units[name]) for name, value in metrics.items()},
            {"jobs": len(plain), "job_s_plain": plain, "job_s_traced": traced,
             "spans": str(spans_path.relative_to(ROOT))})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "reebkit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no reebkit package under {SRC}; run from a source checkout\n")
        return 2
    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})  # before numpy loads
    sys.path.insert(0, str(SRC))

    import reebkit

    if not Path(reebkit.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"error: reebkit was imported from {reebkit.__file__}, not {SRC}\n")
        return 2
    import workloads

    warmup, pool = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir)
        runner.run(warmup)
        warmup_ok = runner.failed == 0
        runner.attempted = runner.failed = 0  # the warm-up is not a timed job
        if args.trace:
            found, details = run_traced(runner, pool, args.seconds, OUT / f"spans-{tag}.jsonl")
        else:
            found, details = run_plain(runner, pool, args.seconds)
            found["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics = {k: (v, "s") for k, v in measure_import_split().items()}
    else:
        metrics = {"setup_s": (measure_setup(), "s")}
    metrics.update(found)

    result = {
        "correct": warmup_ok and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    env = environment(args, [job.key for job in pool])
    details.update(digest_checks=runner.digest_checks, failures=runner.failures)
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"environment": env, "details": details, "result": result}, indent=1) + "\n")
    for failure in runner.failures:
        sys.stderr.write(f"job failed: {failure}\n")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
