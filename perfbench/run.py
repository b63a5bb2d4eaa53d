"""rankmin benchmark driver.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload omega-q2 --seed 3 --seconds 20 --trace 0

Each job is a child process (``perfbench/child.py``) that runs the
workload's ``rankmin`` command lines; jobs run one at a time.  With
``--trace 0`` the run repeats the job until ``--seconds`` have passed and
reports the medians of the end-to-end metrics.  With ``--trace 1`` it runs
the field and linalg microbenchmarks, then the job at one thread untraced,
traced, traced and untraced (omega-q2 also traced at two threads), and
reports the per-layer metrics.  Every job's output is checked against the oracle
in ``inputs.py``.  The last line of stdout is the result object; the lines
before it describe the environment, the argv and every job.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import inputs
import layers
import micro
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

# No job may outlive this many seconds after the run starts, so that a run
# ends within 180 s even when a job hangs.
RUN_LIMIT_S = 165.0
# Set-up-only launches per timed run, on top of one set-up per job.
SETUP_PROBES = 8
# Jobs cache bytecode as an installed package does; the untimed first
# launch of a run writes the cache under src/.
JOB_ENV = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}


@dataclass
class Job:
    """One finished child process."""
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    timed_out: bool = False
    errors: List[str] = field(default_factory=list)
    spans_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.errors

    def describe(self) -> str:
        status = "ok" if self.ok else "FAILED: " + "; ".join(self.errors)
        return (f"wall {self.wall_s:.3f} s, setup {self.setup_s:.3f} s, "
                f"cpu {self.cpu_s:.3f} s, peak rss {self.peak_rss_mb:.1f} MB"
                f", {status}")


class Runner:
    """Launches jobs into a scratch directory inside the checkout."""

    def __init__(self, workload: str, seed: int, tmp: str, deadline: float):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0

    def run(self, cmds: Sequence[Sequence[str]], *, trace: bool = False,
            setup_only: bool = False) -> Job:
        self.count += 1
        base = os.path.join(self.tmp, f"job{self.count}")
        cert = base + ".cert.json"
        argv = [[cert if a == inputs.CERT_PLACEHOLDER else a for a in cmd]
                for cmd in cmds]
        spec = {"commands": argv, "status_file": base + ".status.json",
                "trace_file": base + ".spans" if trace else None,
                "setup_only": setup_only}
        with open(base + ".spec.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        job = Job()
        with open(base + ".out", "w") as out, open(base + ".err", "w") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, CHILD, base + ".spec.json"], cwd=ROOT,
                env=JOB_ENV, stdout=out, stderr=err, start_new_session=True)
            expired = threading.Event()
            timer = threading.Timer(max(1.0, self.deadline - t0), _kill,
                                    (proc, expired))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        job.wall_s = t1 - t0
        job.cpu_s = usage.ru_utime + usage.ru_stime
        job.peak_rss_mb = usage.ru_maxrss / 1024.0
        job.timed_out = expired.is_set()
        self._check(job, proc.returncode, base, spec, t0, setup_only)
        return job

    def _check(self, job: Job, returncode: int, base: str, spec: dict,
               t0: float, setup_only: bool) -> None:
        if job.timed_out:
            job.errors.append("timed out")
        with open(base + ".err", encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        if "Traceback (most recent call last)" in stderr:
            job.errors.append("traceback: " + stderr.strip().splitlines()[-1])
        try:
            with open(spec["status_file"], encoding="utf-8") as fh:
                status = json.load(fh)
        except (OSError, json.JSONDecodeError):
            job.errors.append(f"no status file (exit {returncode})")
            return
        job.setup_s = status["ready"] - t0
        if returncode != 0:
            job.errors.append(f"exit {returncode}")
        if setup_only:
            return
        with open(base + ".out", encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        cert_path = base + ".cert.json"
        cert_text = None
        if os.path.exists(cert_path):
            with open(cert_path, encoding="utf-8") as fh:
                cert_text = fh.read()
        job.errors += inputs.check_job(self.workload, self.seed,
                                       spec["commands"], stdout,
                                       status["exit_codes"], cert_text)
        if spec["trace_file"] and os.path.exists(spec["trace_file"]):
            job.spans_path = spec["trace_file"]


def _kill(proc: subprocess.Popen, expired: threading.Event) -> None:
    expired.set()
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------


def environment(workload: str, seed: int, threads: int) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "rankmin")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"workload": workload, "seed": seed, "threads": threads,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_commit": commit, "source_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# Timed run.
# ---------------------------------------------------------------------------


def timed_run(runner: Runner, seconds: float) -> Tuple[Dict[str, float],
                                                       List[Job]]:
    cmds = inputs.commands(runner.workload, runner.seed)
    # Untimed: the first launch writes the bytecode cache and warms the
    # file cache.
    warm = runner.run(cmds, setup_only=True)
    probes = [runner.run(cmds, setup_only=True) for _ in range(SETUP_PROBES)]
    jobs: List[Job] = []
    started = time.monotonic()
    while not jobs or time.monotonic() - started < seconds:
        job = runner.run(cmds)
        jobs.append(job)
        print(f"  job {len(jobs)}: {job.describe()}", flush=True)
        if job.timed_out:
            break
    finished = [j for j in jobs if not j.timed_out]
    setups = [p.setup_s for p in probes if p.ok] + [
        j.setup_s for j in finished if j.ok]
    metrics = {
        "wall_s": _median([j.wall_s for j in finished]),
        "setup_s": _median(setups),
        "cpu_s": _median([j.cpu_s for j in finished]),
        "peak_rss_mb": _median([j.peak_rss_mb for j in finished]),
    }
    for i, probe in enumerate([warm] + probes):
        if not probe.ok:
            print(f"  set-up probe {i}: FAILED: {'; '.join(probe.errors)}")
            jobs.append(probe)
    return metrics, jobs


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Traced run.
# ---------------------------------------------------------------------------


def traced_run(runner: Runner) -> Tuple[Dict[str, float], List[Job]]:
    metrics: Dict[str, float] = {}
    metrics.update(micro.field_metrics(runner.seed))
    metrics.update(micro.linalg_metrics(runner.seed))
    cmds = inputs.commands(runner.workload, runner.seed, threads=1)
    runner.run(cmds, setup_only=True)           # untimed warm-up
    # untraced, traced, traced, untraced: the overhead estimate cancels a
    # machine speed that drifts linearly over the four jobs
    jobs = []
    for trace in (False, True, True, False):
        jobs.append(runner.run(cmds, trace=trace))
        print(f"  {'traced' if trace else 'untraced'}, 1 thread: "
              f"{jobs[-1].describe()}", flush=True)
    plain_s = (jobs[0].wall_s + jobs[3].wall_s) / 2
    traced_s = (jobs[1].wall_s + jobs[2].wall_s) / 2
    # the first traced job's spans give the per-layer figures
    dumps = [spans.load(jobs[1].spans_path)] if jobs[1].spans_path else []
    pool_dumps = []
    if runner.workload == "omega-q2":
        pooled = runner.run(inputs.commands(runner.workload, runner.seed,
                                            threads=2), trace=True)
        print(f"  traced, 2 threads: {pooled.describe()}", flush=True)
        jobs.append(pooled)
        if pooled.spans_path:
            pool_dumps.append(spans.load(pooled.spans_path))
    summary = spans.SpanSummary(dumps)
    pool = spans.SpanSummary(pool_dumps) if pool_dumps else None
    metrics.update(layers.span_metrics(summary, pool))
    metrics["trace.overhead_s"] = traced_s - plain_s
    print(f"  spans recorded: {sum(summary.spans.values())}; tracing "
          f"overhead {metrics['trace.overhead_s']:.3f} s (mean traced wall "
          f"{traced_s:.3f} s - mean untraced {plain_s:.3f} s)")
    zero = sorted(n for n, v in metrics.items() if v == 0)
    if zero:
        print("  read 0 here (layer not reached, or a true share of 0): "
              + ", ".join(zero))
    return metrics, jobs


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rankmin", "cli.py")):
        print(f"error: no rankmin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              + ", ".join(inputs.WORKLOADS), file=sys.stderr)
        return 2
    threads = 1 if args.trace else inputs.workload_threads(args.workload)
    env = environment(args.workload, args.seed, threads)
    cmds = inputs.commands(args.workload, args.seed)
    print(f"perfbench {args.workload} seed {args.seed} "
          f"{'traced' if args.trace else 'timed'} run")
    print("  env " + json.dumps(env, sort_keys=True))
    for cmd in cmds:
        print("  argv rankmin " + " ".join(cmd))
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(args.workload, args.seed, tmp,
                        time.monotonic() + RUN_LIMIT_S)
        if args.trace:
            values, jobs = traced_run(runner)
            units = layers.PER_LAYER_UNITS
        else:
            values, jobs = timed_run(runner, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = sum(1 for j in jobs if not j.ok)
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  failed_share = {failed / len(jobs):.6g} ({failed} of "
          f"{len(jobs)} jobs)")
    print("  record " + json.dumps({"env": env, "argv": cmds, "jobs": [
        {"wall_s": j.wall_s, "setup_s": j.setup_s, "cpu_s": j.cpu_s,
         "peak_rss_mb": j.peak_rss_mb, "errors": j.errors} for j in jobs]}))
    result = {"correct": failed == 0, "attempted": len(jobs),
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
