"""A fixed pure-Python reference kernel that measures the host's speed.

On a shared host the speed of one core changes by half and more over
tens of seconds, as neighbours load the caches and the core's sibling.
A run of the benchmark times this kernel next to every sample, and the
run's timings are scaled by how much slower than ``REFERENCE_S`` the
kernel ran (see ``run.py``).  The kernel runs in a helper process
(``HostProbe``), so its working set stays out of the benchmark's own
memory, which forked children would count in their peak RSS.  The kernel is independent of ``outfn``,
so a change to the program never changes it; it mixes what the
program's layers do: tuple and dict work as in word algebra, exact
``Fraction`` elimination as in ``linalg``, and building, chasing and
freeing a table of some 25 MB, as a fresh sample grows its heap.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from fractions import Fraction

# About the fastest ``time_probe()`` of a quiet run on one vCPU of a
# 2.1 GHz Xeon KVM guest with CPython 3.11.  The value only sets the
# scale: timings divided by the host slowness are seconds at this speed.
REFERENCE_S = 0.11

_TABLE_SIZE = 80_000


def _words() -> int:
    acc = 0
    for r in range(300):
        word: list = []
        for i in range(400):
            x = ((i * 7 + r) % 13) - 6 or 1
            if word and word[-1] == -x:
                word.pop()
            else:
                word.append(x)
        counts: dict = {}
        for x in word:
            counts[x] = counts.get(x, 0) + 1
        acc += len(word) + len(counts)
    return acc


def _elimination() -> int:
    n, acc = 14, 0
    for r in range(6):
        m = [[Fraction((i * j + r) % 7 - 3, 1 + (i + j) % 5) for j in range(n)]
             for i in range(n)]
        for c in range(n):
            p = next((i for i in range(c, n) if m[i][c]), None)
            if p is None:
                continue
            m[c], m[p] = m[p], m[c]
            for i in range(c + 1, n):
                f = m[i][c] / m[c][c]
                if f:
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        acc += sum(1 for i in range(n) if m[i][i])
    return acc


def _chase() -> int:
    rng = random.Random(1)
    table = [(i, str(i), float(i)) for i in range(_TABLE_SIZE)]
    index = {i * 7919 % 1_000_003: table[i] for i in range(_TABLE_SIZE)}
    keys = list(index)
    acc = 0
    for _ in range(_TABLE_SIZE // 2):
        i = rng.randrange(_TABLE_SIZE)
        acc += table[i][0] + len(index[keys[i]][1])
    del table, index, keys
    return acc


def probe() -> int:
    """The kernel; returns a checksum that is the same on every call."""
    return _words() + _elimination() + _chase()


def time_probe() -> float:
    """Wall seconds of one ``probe()`` call."""
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


class HostProbe:
    """This module as a helper process pinned to ``cpu``; ``time()`` asks
    it for one ``time_probe()``.  Use as a context manager: leaving it
    closes the helper and waits for it to end."""

    def __init__(self, cpu: int):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def time(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host probe ended early")
        return float(line)

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    time_probe()   # warm up
    for _ in sys.stdin:
        print(repr(time_probe()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
