"""phonosem benchmark: one seeded workload, timed end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload permutation --seed 1 --seconds 30 --trace 0

The workload runs in a fresh worker process (``worker.py``) with BLAS
pinned to one thread. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``--record-reference`` re-records the reference payloads
the correctness gate compares against. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from inputs import WORKLOADS
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent

WORK_DIR = ".perfbench_work"
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170
# Typical speed sample (the thread CPU time of one sampler.probe) on the
# machine the benchmark was defined on; timings are reported in seconds of
# a machine whose samples take this long.
SAMPLE_NOMINAL_S = 0.00027
# Samples this close to an interval count toward its speed, so that an
# interval of a few milliseconds still has several.
SAMPLE_REACH_S = 0.25

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "frac",
    "global_s": "s",
    "subspace_s": "s",
    "interpret_s": "s",
}
COMMAND_METRICS = {"global_s": "analyze-global", "subspace_s": "analyze-subspace",
                   "interpret_s": "interpret"}


def worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    return env


class Speed:
    """Converts measured intervals to nominal seconds with the run's speed
    samples (``[monotonic, seconds]`` pairs, in time order)."""

    def __init__(self, samples: list[list[float]]):
        self.at = [at for at, _ in samples]
        self.seconds = [s for _, s in samples]

    def factor(self, window: list[float]) -> float:
        """How much faster than the mean sample during ``window`` (or within
        ``SAMPLE_REACH_S`` of it) the nominal sample is. The sampler samples
        at a steady rate, so the mean weighs every instant of the window
        alike, as the interval's own time does. With no sample that near,
        the nearest one counts."""
        start, end = window
        lo = bisect.bisect_left(self.at, start - SAMPLE_REACH_S)
        hi = bisect.bisect_right(self.at, end + SAMPLE_REACH_S)
        if lo == hi:
            mid = (start + end) / 2
            lo = min(range(max(lo - 1, 0), min(lo + 1, len(self.at))),
                     key=lambda i: abs(self.at[i] - mid))
            hi = lo + 1
        return SAMPLE_NOMINAL_S / statistics.fmean(self.seconds[lo:hi])

    def scaled(self, window: list[float]) -> float:
        return (window[1] - window[0]) * self.factor(window)


def median_issue(windows: list[list[float]], speed: Speed) -> float:
    return statistics.median(speed.scaled(w) for w in windows)


def command_seconds(commands: dict[str, list[list[float]]], speed: Speed) -> dict[str, float]:
    """Each command's median scaled issue, and their sum as the sequence time."""
    out = {cmd: median_issue(issues, speed) for cmd, issues in commands.items()}
    out["wall"] = sum(out.values())
    return out


def end_to_end(result: dict, peak_rss_mb: float) -> dict[str, float]:
    speed = Speed(result["samples"])
    timed = command_seconds(result["timed"], speed)
    out = {
        "wall_s": timed["wall"],
        "setup_s": speed.scaled(result["import"]) + median_issue(result["generate"], speed),
        "peak_rss_mb": peak_rss_mb,
        "passed_frac": 1.0 - result["failed"] / result["attempted"],
    }
    for metric, command in COMMAND_METRICS.items():
        out[metric] = timed[command]
    return out


def per_layer(result: dict) -> dict[str, float]:
    speed = Speed(result["samples"])
    rows = result["layer_metrics"]
    out = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    walls = {traced: statistics.median(
        command_seconds(p["commands"], speed)["wall"] for p in result["passes"]
        if p["traced"] == traced) for traced in (False, True)}
    out["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="re-record the reference payloads for this workload")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "phonosem" / "__init__.py").is_file():
        print("perfbench: run from the root of a phonosem checkout "
              "(src/phonosem not found)", file=sys.stderr)
        return 2
    work = root / WORK_DIR / args.workload
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work.relative_to(root))]
    if args.record_reference:
        cmd.append("--record-reference")
    log_path = work / "worker.log"
    with log_path.open("w", encoding="utf-8") as log:
        # a session of its own, so that the worker and its speed sampler
        # can be killed together
        proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root), stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    # the worker is this process's only child: its peak, and that of any
    # process it started and waited for
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    if code != 0 or (not args.record_reference and not result_path.exists()):
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-4000:]
        print(f"perfbench: worker exited with code {code}\n{tail}", file=sys.stderr)
        return 1
    if args.record_reference:
        print(f"recorded {HERE / 'reference' / (args.workload + '.json')}")
        return 0

    result = json.loads(result_path.read_text(encoding="utf-8"))
    samples = result["samples"]
    if not samples:
        print("perfbench: the speed sampler recorded no sample", file=sys.stderr)
        return 1
    speed = Speed(samples)
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print(f"speed samples: {len(samples)}, mean "
          f"{statistics.fmean(speed.seconds) * 1e3:.4f} ms (nominal "
          f"{SAMPLE_NOMINAL_S * 1e3} ms)")
    for cmd, issues in result["timed"].items():
        raw = statistics.median(end - start for start, end in issues)
        print(f"{cmd}: {len(issues)} issues, median {raw:.4f} s raw, "
              f"{median_issue(issues, speed):.4f} s scaled")
    for i, p in enumerate(result["passes"]):
        kind = "traced" if p["traced"] else "untraced"
        print(f"pass {i} ({kind}): {command_seconds(p['commands'], speed)['wall']:.3f} s scaled")
    for d in dict.fromkeys(result["digests"]):
        print(f"payload sha256 {d}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")

    if args.trace:
        values, units = per_layer(result), PER_LAYER
    else:
        values, units = end_to_end(result, peak_rss_mb), END_TO_END
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
