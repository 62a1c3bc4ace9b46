"""Speed sampler: a small process that times a fixed slice of work all
through a run; started by ``worker.py``.

Usage: ``python3 sampler.py <cpu> <samples file>``

It pins itself to ``<cpu>``, the CPU the worker is pinned to, and every
``PERIOD_S`` wakes up, runs ``probe`` once and records the probe's thread
CPU time with the ``time.monotonic()`` instant it ran at. Waking from a
sleep, it takes the CPU from the worker for the length of one probe, so
its samples show how fast that CPU runs while the worker's commands run,
long ones included. It prints ``ready`` once warmed up, and writes the
samples (``<monotonic> <seconds>`` per line) when it gets SIGTERM or its
parent has gone.
"""

from __future__ import annotations

import os
import signal
import sys
import time

PERIOD_S = 0.05
WARMUP_PROBES = 50


def probe() -> None:
    """About 0.3 ms of interpreter work: dict inserts of formatted floats
    and a sort. It runs no phonosem code, so no change to the program can
    move it."""
    d = {}
    for i in range(600):
        d[str(i)] = float(i) * 0.5
    sorted(d.values(), reverse=True)


def main() -> int:
    cpu, out = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    for _ in range(WARMUP_PROBES):
        probe()
    print("ready", flush=True)
    samples = []
    while not stop and os.getppid() == parent:
        time.sleep(PERIOD_S)
        at = time.monotonic()
        start = time.thread_time()
        probe()
        samples.append((at, time.thread_time() - start))
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(f"{at!r} {s!r}\n" for at, s in samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
