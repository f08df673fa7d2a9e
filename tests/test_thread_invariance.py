"""Thread-count invariance of the chunked ensembles.

Chunk c always draws from the stream derived from (seed, stream, c), and the
worker threads only distribute the chunks, so 1, 2 and 3 threads must give
the same bytes.  n is not a multiple of CHUNK_SIZE, so the last chunk is
partial and three threads get unequal shares.  The coupled ensembles are
sweeps of three and four separations, whose chunks each step all
separations together.
The packed multi-start ensemble runs batches of unequal width: two starts'
chunks share the first batch and the third start's chunk runs alone.
"""

from dataclasses import fields

import numpy as np
import pytest

from rsjd import (
    CouplingConfig,
    HybridState,
    IntegratorConfig,
    couple_ensemble,
    example51,
    example52,
    simulate_ensemble,
)
from rsjd.coupling import CoupledEnsemble
from rsjd.simulate import CHUNK_SIZE

from test_simulate import jump_config

N = 2 * CHUNK_SIZE + 13
THREADS = (1, 2, 3)
START = HybridState(np.array([0.5, -0.25]), 1)
START2 = HybridState(np.array([-0.75, 1.0]), 1)
SWEEP = [START2, HybridState(np.array([0.6, -0.25]), 1), START]


def _assert_same_bytes(runs):
    first = runs[0]
    for other in runs[1:]:
        for a, b in zip(first, other):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["basic", "reflection"])
def test_coupled_ensemble(kind):
    cfg = CouplingConfig(step=1.0 / 16, horizon=0.25, kind=kind)
    runs = []
    for threads in THREADS:
        ens = couple_ensemble(example52(), START, SWEEP, cfg, len(SWEEP) * N, 31,
                              threads=threads)
        runs.append((ens.x, ens.xt, ens.k, ens.kt, ens.zeta, ens.s_delta0, ens.tau_r,
                     ens.t_meet, ens.coalesced, ens.exit_time))
    _assert_same_bytes(runs)


@pytest.mark.parametrize("kind", ["basic", "reflection"])
def test_four_separation_sweep(kind):
    # the far second start puts its block at a higher truncation level than
    # the others, and the zero separation starts coalesced
    cfg = CouplingConfig(step=1.0 / 16, horizon=0.25, kind=kind)
    start = HybridState(np.array([0.0]), 1)
    seconds = [HybridState(np.array([s]), 1) for s in (0.2, 1e4, 0.0, 0.05)]
    runs = []
    for threads in (1, 2):
        ens = couple_ensemble(example51(), start, seconds, cfg, len(seconds) * N, 36,
                              threads=threads)
        runs.append(tuple(getattr(ens, f.name) for f in fields(CoupledEnsemble)))
    _assert_same_bytes(runs)


def test_killed_ensemble():
    cfg = IntegratorConfig(step=1.0 / 16, horizon=0.25)
    runs = []
    for threads in THREADS:
        ens = simulate_ensemble(example52(), START, cfg, N, 32, threads=threads,
                                regime="killed")
        runs.append((ens.x, ens.k, ens.exit_time, ens.weight))
    _assert_same_bytes(runs)


def test_frozen_ensemble():
    cfg = IntegratorConfig(step=1.0 / 16, horizon=0.25)
    runs = []
    for threads in THREADS:
        ens = simulate_ensemble(example52(), START, cfg, N, 34, threads=threads,
                                regime="frozen")
        runs.append((ens.x, ens.k, ens.exit_time))
    _assert_same_bytes(runs)


def test_packed_multi_start_ensemble():
    cfg = IntegratorConfig(step=1.0 / 16, horizon=0.25)
    starts = [START, START2, SWEEP[1]]
    n = len(starts) * (CHUNK_SIZE // 2 - 7)
    runs = []
    for threads in THREADS:
        ens = simulate_ensemble(example52(), starts, cfg, n, 35, threads=threads)
        runs.append((ens.x, ens.k, ens.exit_time))
    _assert_same_bytes(runs)


def test_config_model_ensemble(tmp_path):
    # no closed-form compensator: every step runs the quadrature fallback.
    # Each thread count gets its own freshly loaded spec, all kept alive, so
    # no run can see state another run left behind.
    cfg = IntegratorConfig(step=1.0 / 16, horizon=0.25)
    specs, runs = [], []
    for threads in THREADS:
        specs.append(jump_config(tmp_path / f"jump{threads}.yaml"))
        ens = simulate_ensemble(specs[-1], HybridState(np.array([0.5]), 1), cfg, N, 33,
                                threads=threads)
        runs.append((ens.x, ens.k, ens.exit_time))
    _assert_same_bytes(runs)


@pytest.mark.parametrize("threads", [0, -3])
def test_thread_count_below_one_rejected(threads, monkeypatch):
    # max(1, threads) ran such a count on one thread without a word
    def never(*args, **kwargs):
        raise AssertionError("ran a batch before checking the thread count")

    monkeypatch.setattr("rsjd.simulate._evolve", never)
    monkeypatch.setattr("rsjd.coupling._evolve_pair", never)
    cfg = CouplingConfig(step=1.0 / 16, horizon=0.25)
    with pytest.raises(ValueError, match="threads must be at least 1"):
        simulate_ensemble(example52(), START, cfg, 64, 0, threads=threads)
    with pytest.raises(ValueError, match="threads must be at least 1"):
        couple_ensemble(example52(), START, SWEEP, cfg, 66, 0, threads=threads)
