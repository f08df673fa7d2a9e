"""Lockstep batches: the chunks of a multi-start ensemble step together in
batches of at most CHUNK_SIZE paths, each chunk drawing from its own stream.

The invariant digests were recorded before batching existed, when every
start ran as its own ensemble, so they show that packing chunks into batches
changes no number; each is checked at 1, 2 and 3 threads.
"""

import hashlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from rsjd import (
    HybridState,
    IntegratorConfig,
    Partition,
    RateMatrixSpec,
    estimate_invariant,
    example51,
    example52,
    simulate_ensemble,
    simulate_path,
)
from rsjd.model import RowTruncator
from rsjd.simulate import CHUNK_SIZE

from test_simulate import jump_config

THREADS = (1, 2, 3)
STARTS = (HybridState(np.array([0.0, 0.0]), 1), HybridState(np.array([3.0, -3.0]), 5),
          HybridState(np.array([-1.5, 2.0]), 2))
PART = Partition(lo=(-5.0, -5.0), hi=(5.0, 5.0), bins=(8, 8), k_max=8)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("m, n, t_burn, t_end, digest", [
    # both chunks in one batch
    (2, 256, 1.0, 5.0, "bb9168a53296086cf886e8d4fda4eea0446a71e1d9d23b1d26d27f3aae83ed9d"),
    # a full chunk and a 7-path chunk per start: six batches of one chunk
    (3, CHUNK_SIZE + 7, 0.5, 1.0,
     "eea51dd66f9481cb50a811074ce01cb8140fd0aeaedda047e4e198c7cec63058"),
    # two chunks in the first batch, one in the second
    (3, CHUNK_SIZE // 2 - 7, 0.5, 1.0,
     "9f5228ada5d874ff96523d2d97ba18106c27b9e6cbc62c26254b22500e550698"),
])
def test_invariant_digest(m, n, t_burn, t_end, digest, threads):
    cfg = IntegratorConfig(step=0.05, horizon=t_end, epsilon=0.2)
    rep = estimate_invariant(example52(), STARTS[:m], t_burn, t_end, cfg, PART, 20270,
                             n_paths=n, threads=threads)
    assert _digest(rep.histograms, rep.window_tv) == digest


def _blocks_match_lone_runs(spec, starts, cfg, per, seed, stream, **mode):
    ens = simulate_ensemble(spec, starts, cfg, len(starts) * per, seed, stream=stream, **mode)
    for i, start in enumerate(starts):
        lone = simulate_ensemble(spec, start, cfg, per, seed, stream=stream + i, **mode)
        block = slice(i * per, (i + 1) * per)
        for name in ("x", "k", "exit_time", "weight"):
            a, b = getattr(lone, name), getattr(ens, name)
            if a is None:
                assert b is None
            else:
                assert a.tobytes() == b[block].tobytes(), (name, i)


class TestBlocksMatchLoneRuns:
    CFG = IntegratorConfig(step=0.05, horizon=1.0, epsilon=0.2)

    @pytest.mark.parametrize("per", [300, CHUNK_SIZE // 2 - 7, CHUNK_SIZE + 7])
    def test_switching(self, per):
        _blocks_match_lone_runs(example52(), STARTS, self.CFG, per, 41, 5)

    def test_gaussian_policy(self):
        cfg = replace(self.CFG, small_jump_policy="gaussian")
        _blocks_match_lone_runs(example52(), STARTS, cfg, 300, 42, 0)

    def test_killed(self):
        _blocks_match_lone_runs(example52(), STARTS, self.CFG, 300, 43, 0,
                                regime="killed")

    def test_config_model(self, tmp_path):
        # no closed-form compensator: the quadrature fallback sees packed batches
        starts = [HybridState(np.array([0.5]), 1), HybridState(np.array([-1.0]), 3)]
        cfg = IntegratorConfig(step=1.0 / 16, horizon=0.25)
        _blocks_match_lone_runs(jump_config(tmp_path / "jump.yaml"), starts, cfg, 100, 44, 0)


class TestStartValidation:
    def test_paths_must_split_evenly(self):
        cfg = IntegratorConfig(step=0.1, horizon=0.2)
        with pytest.raises(ValueError, match="multiple"):
            simulate_ensemble(example52(), STARTS[:2], cfg, 5, 1)

    def test_no_starts(self):
        cfg = IntegratorConfig(step=0.1, horizon=0.2)
        with pytest.raises(ValueError, match="start"):
            simulate_ensemble(example52(), [], cfg, 4, 1)


def test_rows_call_tail_bound_once_per_level():
    base = example52().rates
    calls = Counter()

    def tail_bound(k, L):
        calls[k, L] += 1
        return base.tail_bound(k, L)

    warm = RowTruncator(RateMatrixSpec(rate=base.rate, tail_bound=tail_bound), 1e-9)
    rng = np.random.default_rng(5)
    for _ in range(6):
        x = rng.normal(scale=2.0, size=(40, 2))
        k = rng.integers(1, 7, size=40)
        rows, sums, ls = warm.rows(x, k)
        warm.row_bound(k)
        cold_rows, cold_sums, cold_ls = RowTruncator(base, 1e-9).rows(x, k)
        assert rows.tobytes() == cold_rows.tobytes()
        assert sums.tobytes() == cold_sums.tobytes() == rows.sum(axis=1).tobytes()
        assert not ls.flags.writeable
        assert ls.tobytes() == cold_ls.tobytes()
    # the level grows from 16 to 32 in the first call; (k, 0) is row_bound's
    assert {L for _, L in calls} == {0, 16, 32}
    assert set(calls.values()) == {1}


def test_jump_events_in_round_order():
    # n = 1, so each quantile call maps path 0's marks of one step, in round order
    base = example51()
    drawn = []

    def quantile(eps, U):
        u = base.jump_measure.large_jump_quantile(eps, U)
        drawn.extend(u.copy())
        return u

    spec = replace(base, jump_measure=replace(base.jump_measure, large_jump_quantile=quantile))
    cfg = IntegratorConfig(step=0.05, horizon=0.5, epsilon=0.05)
    rec = simulate_path(spec, HybridState(np.array([0.8]), 1), cfg, 7)
    times = [t for t, _, _ in rec.jump_events]
    assert max(Counter(times).values()) >= 2
    assert np.array_equal([u for _, u, _ in rec.jump_events], drawn)
    for t, u, c in rec.jump_events:
        i = int(round(t / cfg.step)) - 1   # the step starts from grid point i
        expect = spec.jump_coeff(rec.xs[i:i + 1], rec.ks[i:i + 1], u[None])[0]
        assert c.tobytes() == np.asarray(expect, dtype=float).tobytes()
