"""One workload run in a fresh process; started by ``run.py``.

Sets up (imports phonosem and generates the seeded inputs, several
times), runs the workload's commands once on the fixed reference input for
the correctness gate, then issues the commands on the seeded input through
``phonosem.cli.main``, as a user would: once in order into an empty output
directory, then again and again in the same order, each issue only if it
still fits in ``--seconds``. With ``--trace 1`` it instead alternates
untraced and traced passes of the sequence, the traced ones with the layer
wrappers of ``tracing.py`` installed. The worker pins itself to one CPU,
and ``sampler.py`` samples that CPU's speed all through the run. The
outcome goes to ``result.json`` in the work directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gate
import inputs

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
SETUP_REPEATS = 3
# CPUs this process may run on, read before the worker pins itself to one
NPROC = len(os.sched_getaffinity(0))
SAMPLER_STOP_S = 5.0
# When the worker picks the next command to repeat, each issue so far counts
# as at least this long, so that a command of a few milliseconds is not
# repeated hundreds of times.
MIN_ISSUE_S = 0.5


class Sampler:
    """Runs ``sampler.py`` on the worker's CPU for the whole run.

    On a shared host the speed of a CPU drifts by tens of percent over
    seconds to minutes. ``run.py`` scales each timed interval by the mean of
    the samples taken during it, so the reported timings follow the program
    rather than the neighbours. ``samples`` holds ``[monotonic, seconds]``
    pairs once ``stop`` has returned.
    """

    def __init__(self, work: Path):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.path = work / "samples.txt"
        self.path.unlink(missing_ok=True)
        self.samples: list[list[float]] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "sampler.py"), str(cpu), str(self.path)],
            stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("speed sampler did not start")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=SAMPLER_STOP_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if self.path.exists():
            self.samples = [[float(v) for v in line.split()]
                            for line in self.path.read_text(encoding="utf-8").splitlines()]


class Session:
    """Issues CLI commands and records each issue's ``time.monotonic()``
    window under its command name, and the failures."""

    def __init__(self, cli):
        self.cli = cli
        self.failures: list[str] = []

    def issue(self, argv, windows: dict, tracer=None) -> None:
        span = tracer.open(f"cli.{argv[0]}") if tracer is not None else None
        start = time.monotonic()
        try:
            self.cli.main(argv, standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                self.failures.append(f"{argv[0]}: exit code {exc.code}")
        except Exception as exc:  # a crash is a failed command, not a dead run
            traceback.print_exc()
            self.failures.append(f"{argv[0]}: {type(exc).__name__}: {exc}")
        end = time.monotonic()
        if span is not None:
            tracer.close(span)
        windows.setdefault(argv[0], []).append([start, end])

    def sequence(self, commands, tracer=None) -> dict[str, list[list[float]]]:
        """Issue each command once, in order; {command: [[start, end]]}."""
        windows = {}
        for argv in commands:
            self.issue(argv, windows, tracer)
        return windows

    def fill(self, commands, windows: dict, deadline: float) -> None:
        """Issue the commands other than those in ``inputs.ONCE`` again
        until ``deadline``, each time the one whose issues add up to the
        least time so far, among those whose median issue still ends before
        ``deadline``. Every such command rewrites the same outputs from the
        same inputs, so each repeat is the same work. Short commands get many
        issues and long ones few, so that each command's median rests on
        about the same share of the run."""
        repeatable = [argv for argv in commands if argv[0] not in inputs.ONCE]

        def spent(argv) -> float:
            return sum(max(e - s, MIN_ISSUE_S) for s, e in windows[argv[0]])

        while True:
            now = time.monotonic()
            fits = [argv for argv in repeatable if now + statistics.median(
                e - s for s, e in windows[argv[0]]) <= deadline]
            if not fits:
                return
            self.issue(min(fits, key=spent), windows)


def fresh_output(desc: dict) -> Path:
    out = Path(desc["output_dir"])
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return out


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "phonosem").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git; the benchmark may
    run in an exported tree, where only the source digest identifies it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "not a git checkout"


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": workload.name,
        "sizes": {"languages": [l.code for l in workload.languages],
                  "n_morphemes": workload.n_morphemes,
                  "semantic_dim": workload.semantic_dim,
                  "params": workload.params},
        "seed": seed,
        "commit": git_commit(Path.cwd()),
        "source_sha256": source_digest(Path.cwd()),
    }


def planted_map(workload) -> dict[str, bool]:
    return {lang.code: lang.planted for lang in workload.languages}


def reference_run(cli, name: str, work: Path):
    """Run the workload's commands on its fixed reference input; (payload
    cells, commands issued, failed commands)."""
    ref = inputs.REFERENCE_WORKLOADS[name]
    desc = inputs.generate(ref, inputs.REFERENCE_SEED, work / "reference")
    out = fresh_output(desc)
    session = Session(cli)
    session.sequence(desc["commands"])
    return gate.cells(out, planted_map(ref)), len(desc["commands"]), session.failures


def timed_issues(session: Session, desc: dict, languages, seconds: float):
    """The untraced measurement: the sequence once into an empty output
    directory, then ``Session.fill`` up to ``seconds`` after the start;
    ({command: [[start, end], ...]}, [digest after the sequence, at the end])."""
    deadline = time.monotonic() + seconds
    out = fresh_output(desc)
    windows = session.sequence(desc["commands"])
    digests = [gate.digest(out, languages)]
    session.fill(desc["commands"], windows, deadline)
    digests.append(gate.digest(out, languages))
    return windows, digests


def traced_passes(session: Session, desc: dict, languages, seconds: float, work: Path):
    """Untraced and traced passes of the sequence in turn, each into an empty
    output directory, until the next would end after ``seconds`` (but at
    least one of each); (passes, per-layer metrics of each traced pass).
    Every pass issues each command once, so that the traced counts and times
    describe one pass and the two kinds compare like for like."""
    from tracing import SpanTable, Tracer, layer_metrics

    start = time.monotonic()
    passes, layer_rows = [], []
    while True:
        out = fresh_output(desc)
        tracer = Tracer() if len(passes) % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        windows = session.sequence(desc["commands"], tracer)
        wall = sum(e - s for issues in windows.values() for s, e in issues)
        if tracer is not None:
            tracer.uninstall()
            layer_rows.append(layer_metrics(SpanTable.from_tracer(tracer),
                                            tracer.counters, wall))
            tracer.save(work / "spans.npz")
        passes.append({"traced": tracer is not None, "commands": windows,
                       "digest": gate.digest(out, languages)})
        if time.monotonic() - start + wall > seconds and layer_rows:
            return passes, layer_rows


def measure(args, work: Path) -> dict:
    """Set up, check the reference, measure and gate one workload; the
    result without the speed samples."""
    t0 = time.monotonic()
    import phonosem.cli as cli  # the user's entry point; imports every layer
    import phonosem.synth  # noqa: F401  (input generator)
    import_window = [t0, time.monotonic()]

    workload = inputs.WORKLOADS[args.workload]
    generate_windows = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        desc = inputs.generate(workload, args.seed, work / "inputs")
        generate_windows.append([start, time.monotonic()])
    languages = planted_map(workload)

    # The reference run doubles as the warm-up: it goes through every code
    # path of the timed commands, so lazy imports and first-call costs are
    # paid before timing starts.
    got, attempted, failures = reference_run(cli, args.workload, work)
    failures = [f"reference {f}" for f in failures]
    checked, problems = gate.compare(
        gate.load_reference(REFERENCE_DIR / f"{args.workload}.json"), got)
    attempted += checked
    failures += [f"reference {p}" for p in problems]

    session = Session(cli)
    if args.trace:
        timed, (passes, layer_rows) = {}, traced_passes(session, desc, languages,
                                                        args.seconds, work)
        digests = [p["digest"] for p in passes]
        issues = len(passes) * len(desc["commands"])
    else:
        passes, layer_rows = [], []
        timed, digests = timed_issues(session, desc, languages, args.seconds)
        issues = sum(map(len, timed.values()))
    attempted += issues
    failures += session.failures
    # the payloads of the last pass are gated; the digests show that every
    # pass wrote the same bytes
    checked, problems = gate.invariants(gate.cells(Path(desc["output_dir"]), languages),
                                        languages, inputs.PLANTED_SCALE)
    attempted += checked + len(digests) - 1
    failures += problems
    failures += [f"payload digest {i} differs from the first"
                 for i, d in enumerate(digests[1:], 2) if d != digests[0]]

    return {
        "import": import_window,
        "generate": generate_windows,
        "timed": timed,
        "passes": passes,
        "digests": digests,
        "layer_metrics": layer_rows,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "environment": environment(workload, args.seed),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    work = Path(args.work)

    if args.record_reference:
        import phonosem.cli as cli

        got, _, failures = reference_run(cli, args.workload, work)
        if failures:
            print("reference run failed:", failures, file=sys.stderr)
            return 1
        gate.save_reference(REFERENCE_DIR / f"{args.workload}.json", got,
                            {"workload": args.workload, "seed": inputs.REFERENCE_SEED,
                             "tolerance": gate.TOLERANCE})
        return 0

    sampler = Sampler(work)
    try:
        result = measure(args, work)
    finally:
        sampler.stop()
    result["samples"] = sampler.samples
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n",
                                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
