"""A fixed piece of work that runs no isacbf code, timed to gauge how fast
the machine is at the moment.

On a shared host the same code runs up to twice as long while neighbours
are busy, and every stage of a run slows with it.  The benchmark
times the probe before and after every timed stage and reports each stage's
time at the reference speed, the speed at which the probe takes
``NOMINAL_S``; raw times go to the run record.

The slowdown is largest on code made of many short calls, which is most of
isacbf: the simulator's per-vehicle numpy calls on 32-element vectors, and
the Python and numpy overhead around the training kernels.  So the probe is
made of such calls: complex exponentials and inner products on 32-element
vectors, a varied mix of small numpy and linalg calls, and small dicts
built and read in bulk.  Its inputs are fixed and the collector is off while
it runs, so a change in its time is the machine's.
"""
from __future__ import annotations

import gc
import time

import numpy as np

# the probe's time on the reference machine while no neighbour is busy
NOMINAL_S = 0.009

_ANT = np.arange(32.0)
_TABLE = [{"x": float(i), "v": float(i % 17), "lane": i % 3}
          for i in range(20000)]


def _work() -> float:
    acc = 0.0
    for k in range(900):
        z = np.exp(1j * np.pi * np.sin(0.01 * k) * _ANT)
        acc += abs(np.vdot(z, z))
    rng = np.random.default_rng(7)
    for k in range(80):
        z = np.exp(1j * rng.uniform(-1.0, 1.0) * _ANT)
        g = np.outer(z, z.conj())
        m = np.linalg.inv(np.eye(3) + 0.01 * k * np.ones((3, 3)))
        v = rng.standard_normal(6)
        acc += float(np.abs(g).max() + m.trace() + np.angle(z[3])
                     + np.linalg.norm(v) + np.clip(v, -1.0, 1.0).sum())
    moved = [dict(r, x=r["x"] + 0.1 * r["v"]) for r in _TABLE[::2]]
    return acc + sum(r["x"] for r in moved if r["lane"] != 1)


def probe_seconds() -> float:
    """Wall time of one pass over the probe's work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = _work()
        dt = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if not np.isfinite(acc):
        raise ArithmeticError("probe produced a non-finite sum")
    return dt


def slowness(before: float, after: float) -> float:
    """How much slower than the reference the machine ran between two probes."""
    return (before + after) / (2.0 * NOMINAL_S)


def at_reference(name: str, value, slow: float):
    """A stage sample (or list of samples) scaled to the reference speed.

    Times shrink by the slowness and rates (names ending ``_per_s``) grow.
    """
    f = slow if name.endswith("_per_s") else 1.0 / slow
    if isinstance(value, list):
        return [v * f for v in value]
    return value * f
