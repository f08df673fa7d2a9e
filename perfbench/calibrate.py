"""A fixed reference kernel that measures how fast the CPU runs right now.

On a shared host the same command can take 1.7x longer from one minute to the
next while the process's CPU time grows with it.  child.py times this kernel
just before and just after each command; dividing the command's wall time by
the kernel's mean time around it gives its cost in kernel runs ("cal"),
which cancels most of that drift.  The kernel has one part in the style of
each workload, none of which calls rsjd, so no change to the program moves
it.  It works on blocks of 256 rows so that it adds under 1 MB to the
child's peak memory.

- vectorised rate-row arithmetic over 4096 paths (``ensemble``);
- a Python step loop of small array operations on 256 paths (``long-horizon``);
- ``scipy.integrate.quad`` over a Python integrand (``quadrature``).
"""

from __future__ import annotations

import time

import numpy as np
from scipy import integrate

_LOG3 = np.log(3.0)
_X2 = (np.linspace(-2.0, 2.0, 4096)[:, None] ** 2).reshape(16, 256, 1)
_K = (np.arange(4096) % 3 + 1.0).reshape(16, 256, 1)
_L = np.arange(1.0, 65.0)[None, :]
_XS = np.linspace(-1.0, 1.0, 512).reshape(256, 2)
_Z = np.cos(np.arange(512.0)).reshape(256, 2)
_KS = np.arange(256) % 5 + 1
_SIG = np.broadcast_to(np.eye(2), (256, 2, 2))


def _rows() -> float:
    acc = 0.0
    for i in range(2):
        for x2, k in zip(_X2, _K):
            q = k * np.exp(-(_L + k) * _LOG3) / (1.0 + _L * (x2 + i))
            cum = np.cumsum(q, axis=1)
            acc += float((cum < 0.5 * q.sum(axis=1)[:, None]).sum())
    return acc


def _steps() -> float:
    occupancy = np.zeros(100, dtype=np.int64)
    x = _XS.copy()
    for i in range(150):
        x += -0.02 * x + 0.14 * np.einsum("nij,nj->ni", _SIG, np.roll(_Z, i, axis=0))
        np.unique(_KS)
        cell = np.clip((x + 5.0).astype(int), 0, 9)
        np.add.at(occupancy, cell[:, 0] * 10 + cell[:, 1], 1)
    return float(occupancy.sum())


def _quad() -> float:
    return sum(integrate.quad(lambda u, c=1.0 + i: float(c * np.abs(np.array([u]))[0] ** -1.0),
                              0.05, 1.0, epsrel=1e-10)[0] for i in range(30))


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel (about 30 ms)."""
    t0 = time.perf_counter()
    acc = _rows() + _steps() + _quad()
    if not np.isfinite(acc):
        raise FloatingPointError("calibration kernel diverged")
    return time.perf_counter() - t0
