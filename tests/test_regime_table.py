"""The regime tables of ``RowTruncator``: the certified rows, the whole-row
bound that every row is checked against, and the switch screen built on it.

Both step loops compute a regime's screen threshold from the whole-row bound,
which the truncator looks up in its dense table per level.  The
digests below were recorded before the tables existed, when every path kept
its own bound, so they show that the tables change no number: from a start
regime above the truncation level, which grows the tables at the start, and
through a truncation level raised mid-run, which grows them on the way.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsjd import (CouplingConfig, HybridState, IntegratorConfig, RateMatrixSpec, couple_ensemble,
                  example51, example52, q_row_truncated, simulate_ensemble)
from rsjd.analysis import modulus_probe
from rsjd.config import load_model_config
from rsjd.errors import TruncationError
from rsjd.model import SCREEN_SLACK, RowTruncator, certified_tail

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
    return name, rel_tol, batches, l_start


class TestRowTruncatorProperty:
    @PROPERTY
    @given(_batches())
    def test_certified_rows_and_tables(self, case):
        name, rel_tol, batches, l_start = case
        rates = MODELS[name].rates
        trunc = RowTruncator(rates, rel_tol, l_start=l_start)
        level = trunc.level
        for x, k in batches:
            q, s, ls = trunc.rows(x, k)
            L = ls.size
            assert L == trunc.level >= level   # the level never decreases
            level = L
            for kk, si in zip(k.tolist(), s.tolist()):
                tail = certified_tail(rates, kk, L)
                assert tail <= rel_tol * (si + tail)
            assert s.tobytes() == q.sum(axis=1).tobytes()
            assert trunc.row_sums(x, k).tobytes() == s.tobytes()
            assert trunc.level == L
            # every regime asked: the dense tables hold certified_tail
            exact = np.array([certified_tail(rates, kk, 0) for kk in k.tolist()])
            assert trunc.row_bound(k).tolist() == exact.tolist()
            assert trunc.screen_bound(k).tobytes() == (exact * SCREEN_SLACK).tobytes()
            table = trunc._table[L]
            for kk in k.tolist():
                if kk < table.size - 1:
                    assert table[kk] == certified_tail(rates, kk, L)
        # the last slot of every table stays empty
        assert all(np.isnan(t[-1]) for t in trunc._table.values())


class TestRegimeTable:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_level_above_2_16(self, name):
        # at a level past 2^16 every regime up to it lies inside the tables,
        # and a bound read from the level-0 table has the bits of the formula
        trunc = RowTruncator(MODELS[name].rates, 1e-9, l_start=1 << 17)
        k = np.array([70000, 3, (1 << 17) + 1])
        exact = np.array([certified_tail(trunc.rates, kk, 0) for kk in k.tolist()])
        bound = exact * SCREEN_SLACK
        assert np.all(np.isfinite(bound))
        assert trunc.screen_bound(k).tobytes() == bound.tobytes()
        # the two regimes up to the level sit in the table, the one above it not
        assert trunc._table[0][k[:2]].tobytes() == exact[:2].tobytes()
        assert np.isnan(trunc._table[0][k[2]])
        assert trunc.screen_bound(k).tobytes() == bound.tobytes()   # from the table

    def test_rows_check_the_whole_row_bound(self):
        # a model whose rows exceed their declared bound raises, in every
        # regime of the table, whether the bound is computed or looked up
        lying = _lying_rates()
        trunc = RowTruncator(lying, 1e-9, l_start=1 << 17)
        x, k = np.full((2, 2), 3.0), np.array([70000, 2])
        with pytest.raises(TruncationError, match="whole-row bound"):
            trunc.rows(x, k)
        assert not np.isnan(trunc._table[0][k]).any()   # both regimes are in the table now
        with pytest.raises(TruncationError, match="whole-row bound"):
            trunc.rows(x, k)


    def test_every_rows_caller_checks_the_bound(self):
        # q_row_truncated and modulus_probe built rows without the check and
        # returned rows above the declared bound
        lying = _lying_rates()
        x = np.zeros(2)
        with pytest.raises(TruncationError, match="whole-row bound"):
            q_row_truncated(lying, x, 2, 1e-9)
        spec = replace(example52(), rates=lying)
        with pytest.raises(TruncationError, match="whole-row bound"):
            modulus_probe(spec, 2, [(x, x + 0.1)])


class TestRowsAtLevel:
    """``rows(x, k, level=L)`` builds at exactly L and keeps no level."""

    @pytest.mark.parametrize("name", ["example51", "example52"])
    def test_certified_level_keeps_the_truncator_level(self, name):
        spec = MODELS[name]
        x = np.linspace(-1.0, 1.0, 3 * spec.d).reshape(3, spec.d)
        k = np.array([1, 2, 3])
        trunc = RowTruncator(spec.rates, 1e-9)
        q, s, ls = trunc.rows(x, k, level=64)
        assert ls.size == 64 and trunc.level == 16
        want = RowTruncator(spec.rates, 1e-9, l_start=64).rows(x, k)
        assert q.tobytes() == want[0].tobytes() and s.tobytes() == want[1].tobytes()

    def test_uncertified_level_raises(self):
        spec = example51()
        x, k = np.zeros((2, 1)), np.array([1, 2])
        trunc = RowTruncator(spec.rates, 1e-9)
        assert trunc.rows(x, k)[2].size == 32   # the level a plain call reaches
        with pytest.raises(TruncationError, match="within L=16"):
            trunc.rows(x, k, level=16)
        assert trunc.level == 32

    def test_checks_the_whole_row_bound(self):
        trunc = RowTruncator(_lying_rates(), 1e-9)
        with pytest.raises(TruncationError, match="whole-row bound"):
            trunc.rows(np.zeros((1, 2)), np.array([2]), level=64)
        assert trunc.level == 16


def _lying_rates() -> RateMatrixSpec:
    """``example52``'s rates with a whole-row bound tail_bound(k, 0) a quarter
    of the true one."""
    rates = example52().rates
    return RateMatrixSpec(
        rate=rates.rate,
        tail_bound=lambda k, L: rates.tail_bound(k, L) / (4.0 if L == 0 else 1.0))


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
