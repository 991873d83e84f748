"""Benchmark of `xkmeans run` on three generated workloads.

    python3 benchmarks/run.py --workload outlier_wide --seed 0 --seconds 40 --trace 0

Set-up generates the workload's CSV from the seed with `xkmeans.synth`,
writes it under .bench_work/, and warms the interpreter; it runs five times
and `setup_s` is the median. The measurement then repeats one fresh
`xkmeans run` process at a time (a closed loop with one client) for as
many repetitions as fit in `--seconds`, at least two, and checks every
repetition's outputs. `run_s` is the slowest repetition of the window:
a core of the shared host runs at one speed most of the time and, in
spells of seconds to minutes, up to 40% faster, so the median or mean of a
window moves with how many repetitions fall in a spell, while the slowest
one, run at the usual speed, stays put. The seed goes to the generator and
to `--seed`. BLAS and OpenMP run one thread in every process, and `--jobs`
is capped so that jobs times BLAS threads never exceeds the CPUs this
process may use.

With `--trace 1` the run instead makes one untraced and one traced
repetition (spans from benchmarks/tracer.py), checks that both write the
same outputs, reports the per-layer metrics, and adds a scaling probe on
the blobs_tall data.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and the metrics named in BENCHMARK.json: the
end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`.
The lines above it record the environment, the data and each metric's
sample count. The failure fraction is `failed` / `attempted`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUPS = 5
MIN_REPS = 2
DEADLINE_S = 170.0  # a run must end within 180 s

if not (SRC / "xkmeans" / "cli.py").is_file():
    sys.exit(f"error: no xkmeans sources under {SRC}")
# BLAS and OpenMP read these when numpy loads, so the generator and the
# scaling probe in this process are pinned too
os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from check import check_outputs, largest_budget_ratio, output_digest, read_results  # noqa: E402
from scaling import scaling_probe  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, write_csv  # noqa: E402


@dataclass
class Rep:
    seconds: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    ratio: float | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd: list[str], env: dict, log_path: Path, deadline: float) -> tuple[float, float, int]:
    """Wall seconds from spawn to exit, peak RSS in MiB, and exit code."""
    with log_path.open("w") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(max(0.0, deadline - started), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


@dataclass
class Bench:
    """One workload at one seed, after set-up."""

    workload: Workload
    seed: int
    csv_path: Path
    n: int
    jobs: int
    env: dict[str, str]
    deadline: float

    def run_rep(self, spans_path: Path | None = None) -> Rep:
        work = self.csv_path.parent
        out_dir = work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        args = self.workload.run_args(self.csv_path, out_dir, self.seed, self.jobs)
        if spans_path is None:
            cmd = [sys.executable, "-m", "xkmeans.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *args]
        log_path = work / "stderr.txt"
        seconds, rss_mb, code = run_child(cmd, self.env, log_path, self.deadline)
        rep = Rep(seconds, rss_mb)
        if code != 0:
            tail = log_path.read_text().strip().splitlines()[-1:]
            rep.problems.append(f"exit code {code}: {' '.join(tail)}")
            return rep
        rep.problems = check_outputs(out_dir, self.workload, self.n, self.seed)
        if not rep.problems:
            rep.digest = output_digest(out_dir)
            rep.ratio = largest_budget_ratio(read_results(out_dir), self.workload.budgets[-1])
        return rep

    def timed(self, seconds: float) -> tuple[list[Rep], dict[str, list[float]]]:
        reps: list[Rep] = []
        started = time.perf_counter()
        while True:
            if reps:
                # start another repetition only if it should end inside the window
                now = time.perf_counter()
                typical = statistics.median(r.seconds for r in reps)
                if len(reps) >= MIN_REPS and now - started + typical > seconds:
                    break
                if now + max(r.seconds for r in reps) > self.deadline:
                    break
            reps.append(self.run_rep())
        mark_divergent(reps)
        return reps, {
            "run_s": [r.seconds for r in reps],
            "peak_rss_mb": [r.rss_mb for r in reps],
            "cost_ratio": [r.ratio for r in reps if r.ratio is not None][:1],
        }

    def traced(self) -> tuple[list[Rep], dict[str, list[float]]]:
        spans_path = self.csv_path.parent / "spans.json"
        reps = [self.run_rep(), self.run_rep(spans_path)]
        mark_divergent(reps)
        samples = {"trace.overhead_s": [reps[1].seconds - reps[0].seconds]}
        if not reps[1].problems:
            spans = json.loads(spans_path.read_text())["spans"]
            print(f"spans {len(spans)}")
            samples.update({name: [v] for name, v in layer_metrics(spans).items()})
        tall = WORKLOADS["blobs_tall"]
        probe = scaling_probe(tall.generate(self.seed), tall.k, self.seed)
        samples.update({name: [v] for name, v in probe.items()})
        return reps, samples


def set_up(workload: Workload, seed: int, csv_path: Path, env: dict):
    """Generate and write the CSV, then warm the interpreter and its imports."""
    started = time.perf_counter()
    points = workload.generate(seed)
    nbytes, sha = write_csv(points, csv_path)
    subprocess.run(
        [sys.executable, "-c", "import xkmeans.cli"], env=env, cwd=ROOT, check=True, timeout=60
    )
    return time.perf_counter() - started, points, nbytes, sha


def mark_divergent(reps: list[Rep]) -> None:
    digests = [r.digest for r in reps if r.digest is not None]
    for rep in reps:
        if rep.digest is not None and rep.digest != digests[0]:
            rep.problems.append("outputs differ from the first repetition")


def summary(name: str, values: list[float]) -> float:
    """The value reported for a metric: the slowest repetition for run_s
    (see the module docstring), the median for every other metric."""
    return max(values) if name == "run_s" else statistics.median(values)


def describe(name: str, values: list[float], unit: str) -> str:
    """Reported value and sample count (with the median, for run_s), plus
    the highest percentile that has ten samples beyond it once there are
    more than 20 samples."""
    n = len(values)
    if name == "run_s":
        text = f"{name:<30} {max(values):.6g} {unit} (slowest of {n}; median {statistics.median(values):.6g} {unit}"
    else:
        text = f"{name:<30} {statistics.median(values):.6g} {unit} (median of {n}"
    if n > 20:
        text += f"; p{100 * (n - 10) // n} {sorted(values)[n - 11]:.6g} {unit}"
    return text + ")"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    workload = WORKLOADS[args.workload]
    env = child_env()
    nproc = len(os.sched_getaffinity(0))
    jobs = max(1, min(workload.jobs, nproc // BLAS_THREADS))
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    csv_path = work / "data.csv"

    setups = [set_up(workload, args.seed, csv_path, env) for _ in range(1 if args.trace else SETUPS)]
    _, points, nbytes, sha = setups[0]
    n, d = points.shape
    problems = []
    if len({s[3] for s in setups}) != 1:
        problems.append("the same seed wrote different CSV bytes")
    print("env " + json.dumps({
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "jobs": jobs,
    }))
    print("data " + json.dumps({
        "workload": workload.name, "seed": args.seed, "n": n, "d": d, "k": workload.k,
        "leaves": workload.budgets, "bytes": nbytes, "sha256": sha,
    }))

    bench = Bench(workload, args.seed, csv_path, n, jobs, env, deadline)
    if args.trace:
        reps, samples = bench.traced()
        wanted = spec["per_layer"]
    else:
        reps, samples = bench.timed(args.seconds)
        samples["setup_s"] = [s[0] for s in setups]
        wanted = spec["end_to_end"]

    failed = sum(1 for r in reps if r.problems)
    for i, rep in enumerate(reps):
        for problem in rep.problems:
            print(f"repetition {i}: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    metrics = {}
    for metric in wanted:
        values = samples.get(metric["name"]) or [float("nan")]  # missing after a failure
        print(describe(metric["name"], values, metric["unit"]))
        metrics[metric["name"]] = {"value": summary(metric["name"], values), "unit": metric["unit"]}
    print(f"{'failed_frac':<30} {failed / len(reps):.6g} ({failed} of {len(reps)} repetitions)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
