"""Machine-speed reference: the benchmark's times are scaled by it.

On shared machines the speed a single-threaded process gets drifts by tens
of percent over minutes (on the 2-vCPU machine the bounds were set on, this
loop's median time varied from 0.14 s to 0.25 s between runs minutes
apart).  A run times this fixed loop before every pass and multiplies its
wall times by ``NOMINAL_S / median(loop time)``: seconds at the nominal
machine speed.  The loop is benchmark code, never changed by a change to
metacal, so the scale factor moves only with the machine; a slower or
faster program still reads slower or faster.

The loop mixes what metacal spends its time on: counting character
n-grams, parsing CSV text into floats, sorting and small numpy calls, and
an integer Fenwick-tree loop.
"""

from __future__ import annotations

import collections
import csv
import io
import time

import numpy as np

NOMINAL_S = 0.15

_TEXT = "ka lo mi ner tu sa vel ri on pa dre gu lin so ma tor e qua bi ul " * 3
_ROWS = "\n".join(f"d,s{i},g{i},{i * 0.37:.17g},{i * 1.3:.17g}" for i in range(9000))
_VALUES = np.random.default_rng(0).random(30000)
_SMALL = np.random.default_rng(1).random(64)
_RANKS = np.random.default_rng(2).integers(1, 4097, 60000).tolist()


def reference_seconds() -> float:
    """Wall time of one fixed unit of mixed Python and numpy work."""
    start = time.perf_counter()
    counts: collections.Counter = collections.Counter()
    for _ in range(180):
        for n in range(1, 7):
            counts.update(_TEXT[i:i + n] for i in range(len(_TEXT) - n + 1))
    total = sum(float(r[3]) + float(r[4]) for r in csv.reader(io.StringIO(_ROWS)))
    for _ in range(12):
        np.argsort(_VALUES, kind="stable")
    for _ in range(9000):
        total += float(np.cumsum(_SMALL)[-1])
    tree = [0] * 4097
    for r in _RANKS:
        i = r
        while i <= 4096:
            tree[i] += 1
            i += i & (-i)
    return time.perf_counter() - start
