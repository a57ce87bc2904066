"""Host-speed probe: how fast this host runs fixed computations right now.

A shared host has slow spells.  On the 2-vCPU host the benchmark was built
on, the same operation ran up to 1.9x slower for seconds at a time, and the
raw medians of ten runs of one workload spread by up to 38%.  The run reads
the host's *slowdown* right before and right after every timed operation and
reports the operation's time divided by the mean of the two readings: its
time at reference speed.  Readings must sit next to the operation: the
host's speed changes within seconds, and with readings only between cycles
the spread stayed several times wider.

A reading times one execution of some of these parts:

``interpreter``
    Heap-based Dijkstra in pure Python on a 512-node graph, and numpy
    gather-min rounds on a 1 MB matrix: interpreted code on a working set
    that fits the core's caches.
``heap``
    Reads of 40,000 random elements of a 2-million-element list of Python
    floats (64 MB): the cache misses of a large Python heap, which the
    warm sessions of query-mix and serve-coalesced build up.

Each workload names the parts that resemble its own work and an
*elasticity*: a workload whose time grows less than the probe's in a slow
spell divides by ``slowdown ** elasticity``.  See README.md for the
measurements behind both.

The parts run in a helper process of their own, started before set-up and
fed one request per reading.  It imports nothing from the system under
test, and its heap, allocator and garbage collector never see the
simulator's objects, so a change to the system cannot move it through them.
It shares only the CPU, which the run pins to one core for both processes.

Run as ``python -m benchmarks.e2e.hostspeed PART...`` it is that helper: it
reads one line per reading from standard input and writes the seconds the
parts took, until standard input closes.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
import time
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from benchmarks.e2e.oracle import Oracle

#: Seconds each part takes on the reference host (2.0 GHz x86-64 VM,
#: CPython 3.11, numpy 2.4) in a quiet period.
REFERENCE_S = {"interpreter": 0.0085, "heap": 0.0060}
#: Executions before the first reading: the first ones run slower.
WARM_UP = 5

_N = 512
_HEAP = 1 << 21
_HEAP_READS = 40_000


class Interpreter:
    """Interpreted code on a cache-resident working set."""

    def __init__(self) -> None:
        rng = random.Random("hostspeed")
        ring = [(node, (node + 1) % _N, 1 + rng.randrange(8)) for node in range(_N)]
        chords = [(rng.randrange(_N), rng.randrange(_N), 1 + rng.randrange(8)) for _ in range(_N)]
        self.edges = ring + [(u, v, w) for u, v, w in chords if u != v]
        generator = np.random.default_rng(0)
        self.matrix = generator.random((256, _N))
        self.columns = generator.integers(0, _N, _N)
        self.weights = generator.random(_N)
        # Preallocated: a fresh megabyte array is an mmap whose page faults
        # cost more or less depending on what the process freed before.
        self.work = np.empty_like(self.matrix)
        self.gathered = np.empty_like(self.matrix)

    def run(self) -> None:
        for source in range(8):
            Oracle(_N, self.edges).distances(source)
        np.copyto(self.work, self.matrix)
        for _ in range(10):
            np.take(self.work, self.columns, axis=1, out=self.gathered)
            self.gathered += self.weights
            np.minimum(self.work, self.gathered, out=self.work)


class Heap:
    """Random reads over a Python heap much larger than the core's caches."""

    def __init__(self) -> None:
        self.values = [float(index) for index in range(_HEAP)]
        rng = random.Random("heap")
        self.order = [rng.randrange(_HEAP) for _ in range(_HEAP_READS)]

    def run(self) -> None:
        values = self.values
        total = 0.0
        for index in self.order:
            total += values[index]


PARTS = {"interpreter": Interpreter, "heap": Heap}


class Probe:
    """The helper process, from the caller's side; use it as a context manager."""

    def __init__(self, root: Path, parts: Sequence[str], elasticity: float = 1.0) -> None:
        self.reference_s = sum(REFERENCE_S[part] for part in parts)
        self.elasticity = elasticity
        #: Every slowdown read so far.
        self.readings: list[float] = []
        self._process = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.hostspeed", *parts],
            cwd=root,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def slowdown(self) -> float:
        """Run the parts once in the helper; their time over the reference."""
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("host-speed probe process ended")
        self.readings.append((float(line) / self.reference_s) ** self.elasticity)
        return self.readings[-1]

    def close(self) -> None:
        """End the helper and wait for it."""
        self._process.stdin.close()
        try:
            self._process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()

    def __enter__(self) -> Probe:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def main(parts: Sequence[str]) -> None:
    # The parts allocate a fixed, small amount per execution; with the
    # collector on, every sixth execution or so also paid for a collection.
    gc.disable()
    computations = [PARTS[part]() for part in parts]
    for _ in range(WARM_UP):
        for computation in computations:
            computation.run()
    for _ in sys.stdin:
        start = time.perf_counter()
        for computation in computations:
            computation.run()
        print(repr(time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
