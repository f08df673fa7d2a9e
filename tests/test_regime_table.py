"""The switch screen's regime tables (``RegimeTable``) and the certified rows
of ``RowTruncator``.

Both step loops look the screen threshold of a regime up in a table, filled
the first time some path holds the regime, and the whole-row bound up in the
truncator's table.  The
digests below were recorded before the tables existed, when every path kept
its own bound, so they show that the tables change no number: from a start
regime above the truncation level, which grows the tables at the start, and
through a truncation level raised mid-run, which grows them on the way.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsjd import (CouplingConfig, HybridState, IntegratorConfig, RateMatrixSpec, couple_ensemble,
                  example51, example52, simulate_ensemble)
from rsjd.config import load_model_config
from rsjd.errors import TruncationError
from rsjd.model import SCREEN_SLACK, RegimeTable, RowTruncator, certified_tail

from test_simulate import const_rate_matrix, make_model

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
JUMP1D = Path(__file__).resolve().parent.parent / "perfbench" / "models" / "jump1d.yaml"
MODELS = {"example51": example51(), "example52": example52(),
          "jump1d": load_model_config(JUMP1D)}
FIELDS = ("x", "xt", "k", "kt", "zeta", "s_delta0", "tau_r", "t_meet", "exit_time")


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _coupled_digest(ens) -> str:
    return _digest(*(getattr(ens, f) for f in FIELDS))


@st.composite
def _batches(draw):
    """A model, a tolerance and a few batches of states and regimes, with
    regimes above the truncation level and far above it among them."""
    name = draw(st.sampled_from(sorted(MODELS)))
    d = MODELS[name].d
    rel_tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.25]))
    regime = st.one_of(st.integers(1, 12), st.integers(13, 100),
                       st.sampled_from([(1 << 16) - 1, 1 << 16, 70000, 10**9]))
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 12))
        x = draw(st.lists(st.floats(-8.0, 8.0), min_size=n * d, max_size=n * d))
        k = draw(st.lists(regime, min_size=n, max_size=n))
        batches.append((np.array(x).reshape(n, d), np.array(k, dtype=np.int64)))
    # a level above 2^16 puts the far regimes inside the tables
    l_start = draw(st.sampled_from([16, 1 << 17]))
    return name, rel_tol, draw(st.floats(1e-3, 1.0)), batches, l_start


class TestRowTruncatorProperty:
    @PROPERTY
    @given(_batches())
    def test_certified_rows_and_tables(self, case):
        name, rel_tol, h, batches, l_start = case
        rates = MODELS[name].rates
        trunc = RowTruncator(rates, rel_tol, l_start=l_start)
        screen = RegimeTable(trunc, h)
        level = trunc.level
        for x, k in batches:
            q, s, ls = trunc.rows(x, k, bound=screen)
            L = ls.size
            assert L == trunc.level >= level   # the level never decreases
            level = L
            for kk, si in zip(k.tolist(), s.tolist()):
                tail = certified_tail(rates, kk, L)
                assert tail <= rel_tol * (si + tail)
            assert s.tobytes() == q.sum(axis=1).tobytes()
            assert trunc.row_sums(x, k).tobytes() == s.tobytes()
            assert trunc.level == L
            # every regime asked: the dense tables hold certified_tail, and
            # the regime table the bound and threshold of row_bound
            exact = np.array([certified_tail(rates, kk, 0) for kk in k.tolist()])
            assert trunc.row_bound(k).tolist() == exact.tolist()
            bound = exact * SCREEN_SLACK
            assert screen.bound(k).tobytes() == bound.tobytes()
            assert screen.threshold(k).tobytes() == (-np.expm1(-bound * h)).tobytes()
            table = trunc._table[L]
            for kk in k.tolist():
                if kk < table.size - 1:
                    assert table[kk] == certified_tail(rates, kk, L)
                if kk < screen.thresholds.size - 1:
                    assert screen.thresholds[kk] == -np.expm1(
                        -certified_tail(rates, kk, 0) * SCREEN_SLACK * h)
        # the last slot of every table stays empty
        assert np.isnan(screen.thresholds[-1])
        assert all(np.isnan(t[-1]) for t in trunc._table.values())


class TestRegimeTable:
    def test_lazy_growing_table(self):
        trunc = RowTruncator(example52().rates, 1e-9)
        screen = RegimeTable(trunc, 0.02)
        screen.threshold(np.array([3, 1, 3]))
        # the level (16) sets the size; only the regimes asked fill
        assert screen.thresholds.size == 18
        assert np.flatnonzero(~np.isnan(screen.thresholds)).tolist() == [1, 3]
        # a start above the level is computed, and takes no slot
        far = np.array([40, 5])
        want = -np.expm1(-trunc.row_bound(far) * SCREEN_SLACK * 0.02)
        assert screen.threshold(far).tobytes() == want.tobytes()
        assert screen.thresholds.size == 18
        assert np.flatnonzero(~np.isnan(screen.thresholds)).tolist() == [1, 3, 5]
        trunc.rows(np.zeros((1, 2)), np.array([1]))   # the level rises to 32
        screen.threshold(np.array([32, 40]))
        assert screen.thresholds.size == 34
        assert np.flatnonzero(~np.isnan(screen.thresholds)).tolist() == [1, 3, 5, 32]

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_level_above_2_16(self, name):
        # at a level past 2^16 every regime up to it lies inside the tables
        trunc = RowTruncator(MODELS[name].rates, 1e-9, l_start=1 << 17)
        screen = RegimeTable(trunc, 0.02)
        k = np.array([70000, 3, (1 << 17) + 1])
        bound = np.array([certified_tail(trunc.rates, kk, 0) for kk in k.tolist()]) * SCREEN_SLACK
        assert np.all(np.isfinite(bound))
        assert screen.bound(k).tobytes() == bound.tobytes()
        want = (-np.expm1(-bound * 0.02)).tobytes()
        assert screen.threshold(k).tobytes() == want
        assert screen.threshold(k).tobytes() == want   # from the table

    def test_rows_check_the_whole_row_bound(self):
        # a model whose rows exceed their declared bound raises, in every
        # regime of the table
        rates = example52().rates
        lying = RateMatrixSpec(
            rate=rates.rate,
            tail_bound=lambda k, L: rates.tail_bound(k, L) / (4.0 if L == 0 else 1.0))
        trunc = RowTruncator(lying, 1e-9, l_start=1 << 17)
        screen = RegimeTable(trunc, 0.02)
        x, k = np.full((2, 2), 3.0), np.array([70000, 2])
        with pytest.raises(TruncationError, match="whole-row bound"):
            trunc.rows(x, k, bound=screen)
        screen.threshold(k)   # now the truncator's table holds both regimes
        assert not screen.holds(k, trunc.rows(x, k)[1])
        with pytest.raises(TruncationError, match="whole-row bound"):
            trunc.rows(x, k, bound=screen)


class TestRegimeTableDigests:
    START = 40   # above the first truncation level, 16

    @pytest.mark.parametrize("name, expected", [
        ("example51", "c199453afc8fa86fddb5617ec46f2a5488ed15235f3e5c05b0df682cb45b22b3"),
        ("example52", "e0bd055df1f5d8cfd5c9647f7a33bf804d6c4e4caad9be956348b1c7ec4ce9c8"),
    ])
    def test_ensemble_from_regime_40(self, name, expected):
        spec = MODELS[name]
        starts = (HybridState(np.full(spec.d, 0.3), self.START),
                  HybridState(np.full(spec.d, -0.2), 2))
        cfg = IntegratorConfig(step=1.0 / 16, horizon=1.0, epsilon=0.2 if spec.d == 2 else None)
        ens = simulate_ensemble(spec, starts, cfg, 2 * 96, 20290)
        assert np.any(ens.k[96:] != 2)
        assert _digest(ens.x, ens.k, ens.exit_time) == expected

    @pytest.mark.parametrize("name, kind, expected", [
        # example51 leaves regime 40 at a rate of order 3^-40: no pair moves
        ("example51", "basic", "cf53cf9b7cef3bfeb62cff4477e0e49a0c13d5f5d5ebbba868ce7a74f38fe0b9"),
        ("example52", "basic", "fcade9e88adacb1290e7901f888ed09561571cc9fdb5b43addbdf45d6f9944db"),
        ("example52", "reflection",
         "527cb7870dfead412dd67537ccfb5cc08f95bbb3778d2bbfc08175feb86a0feb"),
    ])
    def test_sweep_from_regime_40(self, name, kind, expected):
        spec = MODELS[name]
        e0 = np.eye(spec.d)[0]
        start = HybridState(np.full(spec.d, 0.3), self.START)
        seconds = [HybridState(start.x + s * e0, self.START) for s in (0.05, 0.5, 2.0)]
        cfg = CouplingConfig(step=1.0 / 16, horizon=0.5, kind=kind,
                             epsilon=0.2 if spec.d == 2 else None)
        sweep = couple_ensemble(spec, start, seconds, cfg, 3 * 48, 20291)
        if name == "example52":
            assert np.any(sweep.k != self.START) and np.any(sweep.kt != self.START)
        assert _coupled_digest(sweep) == expected

    def test_level_raised_mid_run(self, monkeypatch):
        # the far paths need L = 64; the first rows call certifies 32 for the
        # near ones alone, and a later one raises the level
        calls = []
        rows = RowTruncator.rows

        def spy(self, x, k, bound=None):
            out = rows(self, x, k, bound)
            calls.append(out[2].size)
            return out

        monkeypatch.setattr(RowTruncator, "rows", spy)
        starts = (HybridState(np.array([0.0]), 1), HybridState(np.array([1e4]), 1))
        cfg = IntegratorConfig(step=1.0 / 16, horizon=2.0)
        ens = simulate_ensemble(example51(), starts, cfg, 2 * 16, 8)
        assert calls[0] == 32 and max(calls) == 64
        assert np.any(ens.k != 1)
        assert _digest(ens.x, ens.k, ens.exit_time) == \
            "e05c9829b75323b45029ef501ee37bce8321ac8a4d617f88ddd24756097bed09"


def _never_held(bad: int):
    """Constant rates that never lead to regime ``bad``, with a tail bound
    that raises there."""
    base = const_rate_matrix()

    def rate(x, k, l):
        return np.where(np.asarray(l) == bad, 0.0, base.rate(x, k, l))

    def tail_bound(k, L):
        if k == bad:
            raise AssertionError(f"tail_bound asked for regime {bad}, which no path holds")
        return base.tail_bound(k, L)

    return RateMatrixSpec(rate=rate, tail_bound=tail_bound)


class TestLazyTables:
    """``tail_bound`` is never asked for a regime that no path holds."""

    SPEC = make_model(rates=_never_held(3), sigma=lambda x, k: np.ones(np.shape(x) + (1,)),
                      ellipticity_floor=0.5)

    def test_ensemble(self):
        cfg = IntegratorConfig(step=1.0 / 16, horizon=1.0)
        ens = simulate_ensemble(self.SPEC, HybridState(np.array([0.0]), 1), cfg, 256, 20292)
        assert set(np.unique(ens.k).tolist()) >= {1, 2, 4} and not np.any(ens.k == 3)

    @pytest.mark.parametrize("kind", ["basic", "reflection"])
    def test_sweep(self, kind):
        cfg = CouplingConfig(step=1.0 / 16, horizon=1.0, kind=kind)
        start = HybridState(np.array([0.0]), 1)
        seconds = [HybridState(np.array([s]), 1) for s in (0.1, 1.0)]
        sweep = couple_ensemble(self.SPEC, start, seconds, cfg, 2 * 128, 20293)
        assert not np.any(sweep.k == 3) and not np.any(sweep.kt == 3)
        assert np.any(sweep.k != 1) and np.any(sweep.kt != 1)
