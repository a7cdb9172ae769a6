"""A fixed reference computation that measures how fast the host runs right now.

The benchmark's times are normalised by it.  On a shared host the same
computation can run 25-40% slower for seconds to minutes at a time, in CPU
time as much as in wall time, so raw seconds of two runs differ by more than
the changes the benchmark has to resolve.  The kernel runs before every op
and once more after the last one, and each op is reported as

    t_op * REF_NOMINAL_S / (mean of the two kernel times around the op)

that is, in seconds at the host speed at which the kernel takes
REF_NOMINAL_S.  The kernel calls nothing in ``hypcap``, so a change to the
library moves the numerator alone.

Different kinds of work slow down by different amounts when the host is
busy, so the kernel runs four kinds for about the same time each: numpy
arithmetic on walker-sized arrays inside a Python loop (the walks), reads
of a 32 MB array (the quadtree and the RectSet queries, which work on
arrays larger than the caches), a sort, and plain interpreter work.

The kernel runs in run.py's process, not in the worker, so that its 32 MB
array stays out of the worker's peak RSS.  run.py and the worker are pinned
to the same CPU and take turns: the worker asks over a pipe (HostClient),
run.py runs the kernel and sends back its time (serve).
"""

from __future__ import annotations

import os
import select
import struct
import time

import numpy as np

# seconds the kernel took, as a median, on the 2-core x86 VM where the
# benchmark was defined; it only fixes the scale of the reported times
REF_NOMINAL_S = 0.06

WALKERS = 8192
STEPS = 16
STREAM_ITEMS = 1 << 22
STREAM_PASSES = 2
SORT_ITEMS = 1 << 16
PY_ITEMS = 60000

_arrays: dict[str, np.ndarray] = {}


def _array(name: str, size: int, seed: int) -> np.ndarray:
    if name not in _arrays:
        _arrays[name] = np.random.default_rng(seed).standard_normal(size)
    return _arrays[name]


def kernel() -> float:
    """Run the fixed computation; return a checksum that is the same on every call."""
    rng = np.random.default_rng(20120126)
    z = np.zeros(WALKERS, dtype=complex)
    centers = np.exp(1j * np.linspace(0.0, 6.0, 6))
    total = 0.0
    for _ in range(STEPS):
        d = 1.0 - np.abs(z)
        for c in centers:
            d = np.minimum(d, np.abs(z - 0.7 * c) - 0.1)
        d = np.maximum(d, 1e-3)
        z = z + 0.5 * d * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, WALKERS))
        total += float(np.sum(d))
    big = _array("stream", STREAM_ITEMS, 1)
    for _ in range(STREAM_PASSES):
        total += float(big.sum()) + float(big.max())
    order = np.argsort(_array("sort", SORT_ITEMS, 2), kind="stable")
    total += float(order[: SORT_ITEMS // 2].sum())
    table: dict[int, list[int]] = {}
    for i in range(PY_ITEMS):
        table.setdefault(i % 97, []).append(i * i % 1009)
    total += sum(sum(v) for v in table.values())
    return total


def timed() -> float:
    """Seconds one kernel call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def serve(requests: int, replies: int, deadline: float) -> None:
    """Time the kernel each time the worker asks, until it closes its end of the pipe."""
    while True:
        ready, _, _ = select.select([requests], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            raise TimeoutError("worker did not finish in time")
        if not os.read(requests, 1):
            return
        os.write(replies, struct.pack("d", timed()))


class HostClient:
    """The worker's end of the pipes to serve()."""

    def __init__(self, fds: str):
        self.requests, self.replies = (int(fd) for fd in fds.split(","))

    def timed(self) -> float:
        os.write(self.requests, b"k")
        reply = os.read(self.replies, 8)
        if len(reply) != 8:
            raise ConnectionError("run.py stopped answering kernel requests")
        return struct.unpack("d", reply)[0]

    def close(self) -> None:
        os.close(self.requests)
