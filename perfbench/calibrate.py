"""Machine-speed calibration for the pass timings.

On a shared machine the speed of one core drifts by up to a factor of two
over tens of seconds (neighbours on sibling hardware threads, memory
bandwidth, frequency), and process CPU time drifts with it, so neither wall
nor CPU time repeats across runs.  Each pass therefore times a fixed
reference kernel between its operations and rescales its timings to the
speed at which that kernel takes ``ref_s`` seconds; set-up is rescaled the
same way by a fresh interpreter importing a fixed set of stdlib modules.

The kernels are the benchmark's own code and never call the library, so a
change to the library moves the operations but not the kernels.  Each
workload uses the kernel whose speed drifts most like its own operations.
On a 2-core shared VM, ten 20 s runs per workload had an interquartile
spread of median ``wall_s`` of 0.07-0.24 of the median raw and 0.02-0.03
rescaled.  Set-up spread about 0.1 either way, but its ten-run median held
within 4% across sets where the raw median moved by up to 30%.
"""
from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

_BUF = np.random.default_rng(0).random(4096)


def sampling_kernel() -> None:
    """Inverse-CDF draws and a row-wise partition, like the service sampler."""
    rng = np.random.default_rng(1)
    x = -np.log1p(-rng.random((256, 1000)))
    np.partition(x, 600, axis=1)


def scalar_kernel() -> None:
    """Scalar float recursions over small arrays, like the level chain and optimizers."""
    gap = math.exp(1.0)
    buf = _BUF
    for i in range(600):
        out = np.zeros(4)
        prev = out[0] = 0.5
        for m in range(2, 5):
            base = gap * prev
            a = 1.0 - base ** (1.0 / m)
            if a <= 0.0:
                break
            out[m - 1] = a
            prev = base
        t = float(out.sum())
        for j in range(8):
            t += buf[(i * 8 + j) & 4095]


def event_kernel() -> None:
    """A scalar event loop drawing from a buffer, like the full-stream simulator."""
    buf = _BUF
    pos = 0
    out = np.empty(512)

    def draw() -> float:
        nonlocal pos
        pos = (pos + 1) & 4095
        return buf[pos]

    t, completion, j = 0.0, 0.5, 0
    for _ in range(3000):
        t += draw()
        carried = draw()
        if t >= completion:
            out[j & 511] = t - completion + carried
            completion = t + buf[j & 4095]
            j += 1


# workload -> (kernel, seconds the kernel takes at the nominal speed)
KERNELS = {
    "sim-validate": (sampling_kernel, 0.004),
    "stream-drops": (event_kernel, 0.0025),
    "analytic-sweep": (scalar_kernel, 0.003),
}

STARTUP_MODULES = ("asyncio, email.mime.multipart, http.client, xml.dom.minidom, unittest, "
                   "decimal, json, csv, argparse, dataclasses, typing, logging, "
                   "concurrent.futures, sqlite3, ssl")
STARTUP_REF_S = 0.14


def startup_factor(env: dict, timeout: float) -> float:
    """Rescaling for a set-up measured next to this call.

    Times a fresh interpreter importing STARTUP_MODULES, which drifts with
    the machine like the library's own import does.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {STARTUP_MODULES}"], env=env, check=True,
                   timeout=timeout)
    return STARTUP_REF_S / (time.perf_counter() - t0)


class Calibrator:
    """Times one workload's reference kernel around each operation of a pass."""

    def __init__(self, workload: str) -> None:
        self.kernel, self.ref_s = KERNELS[workload]
        self.kernel()  # first call pays allocation and cache warm-up
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the kernel once; call before the first operation and after each one."""
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def nominal(self, op_s: list[float]) -> float:
        """Total nominal-speed seconds of the operations, in the order they ran.

        Operation i ran between kernel samples i and i+1; its duration is
        rescaled by the mean of the two.
        """
        k = self.samples
        return sum(d * 2.0 * self.ref_s / (k[i] + k[i + 1]) for i, d in enumerate(op_s))
