"""``RowTruncator.row_sums``: the row sums of ``rows`` without the (n, L) array.

Killed mode needs only q_k(X) along each path, so it sums the rate rows a
block of paths at a time, and a block whose paths share one regime passes it
to the model once.  The sums, the level reached and the errors must be those
of ``rows(x, k)[0].sum(axis=1)``; the digests below were recorded when
killed mode still summed full ``rows`` arrays.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsjd import (HybridState, IntegratorConfig, RateMatrixSpec, TruncationError, example51,
                  example52)
from rsjd import model
from rsjd.cli import run
from rsjd.config import load_model_config
from rsjd.model import ROW_SUM_ENTRIES, RowTruncator
from rsjd.simulate import simulate_ensemble

from test_config_cli import FULL_YAML

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
SIZES = {"1": lambda b: 1, "block-1": lambda b: b - 1, "block": lambda b: b,
         "block+1": lambda b: b + 1, "3block+7": lambda b: 3 * b + 7}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _spec(name, tmp_path_factory):
    if name == "example51":
        return example51()
    if name == "example52":
        return example52()
    p = tmp_path_factory.mktemp("cfg") / "m.yaml"
    p.write_text(FULL_YAML)
    return load_model_config(p)


def _regimes(pattern, n, pool, rng):
    if pattern == "uniform":
        return np.full(n, pool[0])
    if pattern == "two-run":
        return np.where(np.arange(n) < n // 2, pool[0], pool[1])
    return pool[rng.integers(0, len(pool), n)]


class TestMatchesRows:
    @PROPERTY
    @given(name=st.sampled_from(["example51", "example52", "config"]),
           l_start=st.sampled_from([1, 16, 64]),
           size=st.sampled_from(sorted(SIZES)),
           pattern=st.sampled_from(["uniform", "two-run", "random"]),
           seed=st.integers(0, 2**32 - 1))
    def test_bit_for_bit(self, tmp_path_factory, name, l_start, size, pattern, seed):
        spec = _spec(name, tmp_path_factory)
        rng = np.random.default_rng(seed)
        pool_x = rng.uniform(-3.0, 3.0, size=(5, spec.d))
        pool_k = rng.integers(1, 7, size=3)
        # the block size at the level that every pooled state reaches
        probe = RowTruncator(spec.rates, spec.regime_tol, l_start=l_start)
        probe.rows(np.repeat(pool_x, 3, axis=0), np.tile(pool_k, 5))
        n = SIZES[size](max(1, ROW_SUM_ENTRIES // probe._level))
        x = pool_x[rng.integers(0, 5, n)]
        k = _regimes(pattern, n, pool_k, rng)
        ref = RowTruncator(spec.rates, spec.regime_tol, l_start=l_start)
        got = RowTruncator(spec.rates, spec.regime_tol, l_start=l_start)
        want = ref.rows(x, k)[0].sum(axis=1)
        sums = got.row_sums(x, k)
        assert sums.shape == (n,)
        assert sums.tobytes() == want.tobytes()
        assert got._level == ref._level

    @pytest.mark.parametrize("make", [example51, example52])
    def test_cap_raises_and_keeps_level(self, make, monkeypatch):
        spec = make()
        x = np.linspace(-2.0, 2.0, 2 * spec.d).reshape(2, spec.d)
        k = np.array([1, 2])
        monkeypatch.setattr(model, "L_CAP", 4)
        trunc = RowTruncator(spec.rates, 1e-9, l_start=1)
        with pytest.raises(TruncationError, match="within L=4"):
            trunc.rows(x, k)
        assert trunc._level == 1
        with pytest.raises(TruncationError, match="within L=4"):
            trunc.row_sums(x, k)
        assert trunc._level == 1

    def test_bad_tail_raises(self):
        base = example51().rates
        rates = RateMatrixSpec(rate=base.rate, tail_bound=lambda k, L: float("nan"))
        with pytest.raises(TruncationError, match=r"tail_bound\(1, 16\)"):
            RowTruncator(rates, 1e-9).row_sums(np.zeros((3, 1)), np.array([1, 1, 1]))

    def test_rows_without_state(self):
        # a rate that reads neither x nor the paths' own k gives one row for a
        # scalar regime; every path of the block takes its sum
        rates = RateMatrixSpec(
            rate=lambda x, k, l: 3.0 ** -np.asarray(l, dtype=float),
            tail_bound=lambda k, L: 0.5 * 3.0 ** -L)
        x = np.zeros((700, 1))
        k = np.repeat([2, 5], 350)
        want = RowTruncator(rates, 1e-9).rows(x, k)[0].sum(axis=1)
        assert RowTruncator(rates, 1e-9).row_sums(x, k).tobytes() == want.tobytes()

    def test_empty_batch(self):
        trunc = RowTruncator(example51().rates, 1e-9)
        assert trunc.row_sums(np.zeros((0, 1)), np.zeros(0, dtype=np.int64)).shape == (0,)


def _fading_rates():
    """q_kl(x) = exp(-|x|^2) 2^-l: the row sum shrinks as |x| grows while the
    tail bound 2^-L stays, so a far state needs a higher level."""
    return RateMatrixSpec(
        rate=lambda x, k, l: np.exp(-np.sum(np.asarray(x) ** 2, axis=-1))
        * 2.0 ** -np.asarray(l, dtype=float),
        tail_bound=lambda k, L: 2.0 ** -L)


class TestOneRegime:
    """A batch of one regime is found once per call and passed as a scalar;
    every case must match ``rows(...)[1]`` bit for bit, at the same level."""

    @staticmethod
    def _check(rates, x, k, l_start=16):
        ref = RowTruncator(rates, 1e-9, l_start=l_start)
        got = RowTruncator(rates, 1e-9, l_start=l_start)
        want = ref.rows(x, k)[1]
        assert got.row_sums(x, k).tobytes() == want.tobytes()
        assert got.level == ref.level
        return got.level

    @pytest.mark.parametrize("k0", [1, 7, 40, 100])
    def test_shared_regime(self, k0):
        # 40 lies above the start level but inside the level reached; 100
        # lies above every level, so no column is the diagonal
        n = 3 * (ROW_SUM_ENTRIES // 16) + 5
        x = np.linspace(-1.0, 1.0, n)[:, None]
        self._check(example51().rates, x, np.full(n, k0))
        self._check(_fading_rates(), x, np.full(n, k0))

    def test_mixed_regimes(self):
        n = 2 * (ROW_SUM_ENTRIES // 16) + 3
        x = np.linspace(-1.0, 1.0, n)[:, None]
        k = np.where(np.arange(n) % 3 == 0, 2, 40)
        self._check(example51().rates, x, k)
        self._check(_fading_rates(), x, k)

    def test_level_raised_mid_batch(self):
        # the first blocks certify at L = 16; the far states at the end of
        # the batch need L = 64
        n = 3 * (ROW_SUM_ENTRIES // 16)
        x = np.zeros((n, 1))
        x[-10:] = 2.5
        assert self._check(_fading_rates(), x, np.full(n, 40)) == 64
        assert self._check(_fading_rates(), x, np.where(np.arange(n) < n // 2, 3, 40)) == 64

    def test_empty_batch(self):
        assert self._check(example51().rates, np.zeros((0, 1)), np.zeros(0, dtype=np.int64)) == 16

    @pytest.mark.parametrize("k0", [1, 3])
    def test_rate_without_target_axis(self, k0):
        # a config rate that never reads l, such as "0.0 * x[..., 0]", gives
        # (n, 1) values; its rows still span the L targets
        rates = RateMatrixSpec(rate=lambda x, k, l: 0.0 * np.asarray(x)[..., 0] - 1.0,
                               tail_bound=lambda k, L: 0.0)
        x = np.linspace(-1.0, 1.0, 40)[:, None]
        self._check(rates, x, np.full(40, k0))
        assert model.rate_rows(rates, x, k0, 16).shape == (40, 16)

    @pytest.mark.parametrize("writeable", [True, False])
    def test_cached_rate_array_untouched(self, writeable):
        # a model may return the same array on every call; neither the
        # diagonal zeroing nor the clip may write into it
        cache = {}

        def rate(x, k, l):
            L = np.shape(l)[-1]
            if L not in cache:
                row = 3.0 ** -np.arange(1.0, L + 1)
                row[1] = -0.5   # clipped to zero
                row = np.broadcast_to(row, (np.shape(x)[0], L)).copy()
                row.flags.writeable = writeable
                cache[L] = (row, row.copy())
            return cache[L][0]

        rates = RateMatrixSpec(rate=rate, tail_bound=lambda k, L: 0.5 * 3.0 ** -L)
        n = 50
        x = np.zeros((n, 1))
        for k in (np.full(n, 3), np.arange(n) % 4 + 1):
            self._check(rates, x, k, l_start=32)
            q = model.rate_rows(rates, x, k[0], 32)
            assert q[0, k[0] - 1] == 0.0 and q[0, 1] == 0.0
        for row, copy in cache.values():
            assert row.tobytes() == copy.tobytes()


class TestBlocks:
    def test_one_regime_passed_once(self, monkeypatch):
        # a block of one regime hands the model a scalar k, a mixed block the
        # per-path regimes; the (n, L) array is never built
        seen = []
        inner = model.rate_rows

        def spy(rates, x, k, L):
            q = inner(rates, x, k, L)
            seen.append((np.ndim(k), q.shape))
            return q

        monkeypatch.setattr(model, "rate_rows", spy)
        n = 3000
        k = np.repeat([1, 3], n // 2)
        trunc = RowTruncator(example51().rates, 1e-9, l_start=32)
        trunc.row_sums(np.linspace(-1.0, 1.0, n)[:, None], k)
        block = ROW_SUM_ENTRIES // 32
        assert [s for _, s in seen] == [(min(block, n - lo), 32) for lo in range(0, n, block)]
        assert [nd for nd, _ in seen].count(1) == 1   # the block across 1500
        assert all(nd == 0 for nd, _ in seen if nd != 1)

    def test_memory_stays_at_a_block(self):
        # 16384 paths at L = 32: a full row array alone is 4 MB
        n = 16384
        x = np.linspace(-2.0, 2.0, n)[:, None]
        k = np.ones(n, dtype=np.int64)
        trunc = RowTruncator(example51().rates, 1e-9, l_start=32)
        trunc.row_sums(x, k)
        tracemalloc.start()
        try:
            trunc.row_sums(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestKilledDigests:
    def test_cli_payload(self, tmp_path):
        # the benchmark's `ensemble` killed argv at its default seed
        argv = ["killed", "--model", "example51", "--h", repr(1.0 / 128), "--t", "0.25",
                "--n", "4096", "--start", "0,1", "--ball", "0,1", "--seed", "1002",
                "--threads", "1", "--outdir", str(tmp_path)]
        assert run(argv) == 0
        assert hashlib.sha256((tmp_path / "killed.json").read_bytes()).hexdigest() == \
            "958ab3896bf786022a9a2aaa1a21510ad938e25ea8913ab396281d6ca1c844b4"

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_mixed_block_ensemble(self, threads):
        # starts in regimes 1 and 3 pack two by two into batches of 3000
        # paths, so the block across path 1500 holds both regimes
        starts = [HybridState(np.array([0.5]), 1), HybridState(np.array([-1.0]), 3),
                  HybridState(np.array([2.0]), 1), HybridState(np.array([-0.25]), 3)]
        assert 1500 % (ROW_SUM_ENTRIES // 32)
        cfg = IntegratorConfig(step=1.0 / 64, horizon=0.25)
        ens = simulate_ensemble(example51(), starts, cfg, 4 * 1500, 20316, threads=threads,
                                regime="killed")
        assert _digest(ens.x, ens.k, ens.exit_time, ens.weight) == \
            "6935a418b069fba3e913aeb15736490e538762830f266e6ad12f79edd0dd48d7"
