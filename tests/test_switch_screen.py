"""The exact switch pre-screen: rate rows are built only for paths whose switch
uniform falls below 1 - exp(-Qbar h), with Qbar = tail_bound(k, 0).

The golden digests pin the RNG stream layout of the switching integrators.
They were recorded before the screen existed, when every step built a rate row
for every path, so they also show that screening leaves the output unchanged.
"""

import hashlib

import numpy as np
import pytest

from rsjd import (
    CouplingConfig,
    HybridState,
    IntegratorConfig,
    RateMatrixSpec,
    TruncationError,
    couple_ensemble,
    example52,
    simulate_ensemble,
)
from rsjd.simulate import CHUNK_SIZE

from test_simulate import const_rate_matrix, make_model, zero_rates


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _assert_both_raise(rates, match, n=1000):
    spec = make_model(rates=rates)
    start = HybridState(np.array([0.0]), 1)
    cfg = CouplingConfig(step=0.05, horizon=1.0)
    with pytest.raises(TruncationError, match=match):
        simulate_ensemble(spec, start, cfg, n, 3)
    with pytest.raises(TruncationError, match=match):
        couple_ensemble(spec, start, HybridState(np.array([0.5]), 1), cfg, n, 3)


class TestScreenContract:
    def test_understated_row_bound_raises(self):
        # the true row at k = 1 sums to 1/3; tail_bound(k, 0) claims 0.1
        good = const_rate_matrix(scale=2.0)
        rates = RateMatrixSpec(
            rate=good.rate,
            tail_bound=lambda k, L: good.tail_bound(k, L) if L > 0 else 0.1)
        _assert_both_raise(rates, "whole-row bound")

    def test_missing_tail_bound_raises_without_candidates(self):
        # zero rates never make a candidate; the missing certificate still counts
        _assert_both_raise(RateMatrixSpec(rate=zero_rates().rate, tail_bound=None),
                           "no tail bound")

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_invalid_row_bound_raises(self, bad):
        good = const_rate_matrix()
        rates = RateMatrixSpec(
            rate=good.rate,
            tail_bound=lambda k, L: good.tail_bound(k, L) if L > 0 else bad)
        _assert_both_raise(rates, "not a nonnegative bound")


class TestGoldenDigests:
    N = CHUNK_SIZE + 107  # two chunks, the second one partial
    START = HybridState(np.array([0.5, -0.25]), 1)
    START2 = HybridState(np.array([-0.75, 1.0]), 1)

    def test_switching_ensemble(self):
        cfg = IntegratorConfig(step=1.0 / 32, horizon=1.0)
        ens = simulate_ensemble(example52(), self.START, cfg, self.N, 20260)
        assert np.any(ens.k != 1)
        assert _digest(ens.x, ens.k, ens.exit_time) == \
            "d5396c519777cdcefc723e71c81c7553809410c2e4b44a877996ecfd7d07dab7"

    @pytest.mark.parametrize("kind, expected", [
        ("basic", "a5cad1ba29a01c8dd389967d93c41be212477f0bad0064e4e0ae553f3a4c47bb"),
        ("reflection", "db842d73fe80f73a38bc9e71d3dc25797371856b974b44624bb958d813553d31"),
    ])
    def test_coupled_ensemble(self, kind, expected):
        cfg = CouplingConfig(step=1.0 / 32, horizon=1.0, kind=kind)
        ens = couple_ensemble(example52(), self.START, self.START2, cfg, self.N, 20261)
        assert np.any(ens.k != 1) and np.any(ens.kt != 1)
        assert _digest(ens.x, ens.xt, ens.k, ens.kt, ens.exit_time) == expected
