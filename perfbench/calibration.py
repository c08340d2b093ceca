"""Fixed calibration kernels that measure how fast the machine is right now.

On a shared host the same code runs up to 50% slower for tens of seconds
at a time, in CPU time as well as wall time, with no steal time reported.
Separate processes therefore cannot be compared through raw rates alone.
`items_per_cal` scales each block's rate by the time of one of these
kernels, timed just before and just after the block.  The kernels never
call convexlab, so a change to the program moves the scaled rate exactly
as much as the raw one.

`dense` mimics the desk-scale training step: BLAS matmuls at 784-128-10
and batch 100, a tanh and a parameter-sized axpy.  `tiny` mimics the
scan's and the gradcheck's probes: many numpy calls on arrays of a few
dozen elements, bound by interpreter overhead.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_rng = np.random.default_rng(20121226)
_X = _rng.normal(size=(100, 784))
_W1 = _rng.normal(size=(128, 784)) * 0.05
_W2 = _rng.normal(size=(10, 128)) * 0.1
_THETA = _rng.normal(size=128 * 784 + 128 + 10 * 128 + 10)
_x = _rng.normal(size=(20, 1))
_w1 = _rng.normal(size=(3, 1))
_w2 = _rng.normal(size=(1, 3))
_b = np.zeros(3)
REPEATS = 3


def _dense():
    for _ in range(4):
        h = np.tanh(_X @ _W1.T)
        out = h @ _W2.T
        delta = (out @ _W2) * (1.0 - h * h)
        grad = delta.T @ _X
        _THETA[: grad.size] - 0.5 * grad.ravel()
        np.concatenate([grad.ravel(), _THETA[grad.size:]])


def _tiny():
    for _ in range(300):
        vec = np.concatenate([_w1.ravel(), _b, _w2.ravel()])
        w1 = vec[:3].reshape(3, 1).copy()
        h = np.tanh(_x @ w1.T + _b)
        float(np.mean(np.exp(0.1 * np.sum((h @ _w2.T - _x) ** 2, axis=1))))


KERNELS = {"dense": _dense, "tiny": _tiny}


def seconds(kind):
    """Median time of REPEATS runs of the named kernel."""
    fn = KERNELS[kind]
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
