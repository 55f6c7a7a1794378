"""The machine's speed, measured by a fixed reference computation.

The benchmark's host may be a shared virtual machine whose speed drifts
by up to 1.8x in phases of seconds to minutes.  `kernel()` times a fixed
pure-Python computation that uses no weakindex code and has the same mix
as the library's hot paths: successor lists of ints, an attractor
worklist, dicts keyed by state names, sets and a sort.  The benchmark runs
it between ops and scales the op times of a pass by `REF_S` over the
kernel's median time in that pass, so a figure reads as the time the op
takes on a machine where the kernel takes `REF_S`.  A change to weakindex
moves the op times and leaves the kernel's time alone.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.04   # the kernel's time at the nominal speed
EVERY_S = 0.5  # op time between two kernel runs

_N = 4000
_SUCC = [[(i * 7 + 3) % _N, (i * 13 + 5) % _N, (i * i + 1) % _N] for i in range(_N)]


def _attractor():
    """Positions from which player 0 forces a visit to every 97th one."""
    pred = [[] for _ in range(_N)]
    for v, ss in enumerate(_SUCC):
        for w in ss:
            pred[w].append(v)
    left = [len(ss) for ss in _SUCC]
    attr = set(range(0, _N, 97))
    queue = list(attr)
    while queue:
        w = queue.pop()
        for v in pred[w]:
            if v in attr:
                continue
            left[v] -= 1
            if v % 2 == 0 or left[v] == 0:
                attr.add(v)
                queue.append(v)
    return attr


def _work():
    attr = _attractor()
    names = {f"q{i}": (i * 31) % _N for i in range(_N)}
    ranked = sorted(names, key=names.get)
    kept = {q: names[q] for q in ranked if names[q] in attr}
    return len(kept)


def kernel() -> float:
    """Seconds one run of the reference computation took."""
    t0 = time.perf_counter()
    for _ in range(10):
        _work()
    return time.perf_counter() - t0


def scale(times) -> float:
    """Factor that turns seconds measured next to these kernel times into
    seconds at the nominal speed."""
    return REF_S / statistics.median(times)
