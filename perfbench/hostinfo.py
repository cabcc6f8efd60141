"""Host facts recorded next to every result.

The effective-parallelism probe runs the same CPU-bound task nproc times in
sequence and then once in each of nproc concurrent child processes; the
sequential time over the concurrent wall time is the parallel throughput
the host actually delivers, which on a shared or throttled host can be far
below its logical core count.

Run as a script, this file is one such child: it spins and prints its start
and end on the monotonic clock, which all processes of the host share.
"""

from __future__ import annotations

import platform
import subprocess
import sys
import time

SPIN_STEPS = 1_000_000


def spin(steps: int) -> int:
    x = 48271
    for _ in range(steps):
        x = (x * x + 12345) % 2147483647
    return x


def effective_parallelism(nproc: int) -> float:
    t0 = time.perf_counter()
    for _ in range(nproc):
        spin(SPIN_STEPS)
    sequential = time.perf_counter() - t0
    children = [subprocess.Popen([sys.executable, __file__, str(SPIN_STEPS)],
                                 stdout=subprocess.PIPE, text=True)
                for _ in range(nproc)]
    spans = []
    for child in children:
        out, _ = child.communicate(timeout=120)
        if child.returncode != 0:
            raise RuntimeError("parallelism probe: a child failed")
        spans.append([float(v) for v in out.split()])
    wall = max(end for _, end in spans) - min(start for start, _ in spans)
    return sequential / wall


def host_facts(nproc: int) -> dict:
    return {"usable_cpu_count": nproc,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "effective_parallelism": round(effective_parallelism(nproc), 3)}


if __name__ == "__main__":
    start = time.perf_counter()
    spin(int(sys.argv[1]))
    print(start, time.perf_counter())
