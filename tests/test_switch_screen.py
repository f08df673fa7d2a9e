"""The exact switch pre-screen: rate rows are built only for paths whose switch
uniform falls below 1 - exp(-Qbar h), with Qbar = tail_bound(k, 0).

The golden digests pin the RNG stream layout of the switching integrators.
They were recorded before the screen existed, when every step built a rate row
for every path, so they also show that screening leaves the output unchanged.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from rsjd import (
    CouplingConfig,
    HybridState,
    IntegratorConfig,
    RateMatrixSpec,
    TruncationError,
    couple,
    couple_ensemble,
    example51,
    example52,
    reflection_cross_covariance,
    simulate_ensemble,
    simulate_killed_path,
    simulate_path,
)
from rsjd.coupling import pair_one_step
from rsjd.simulate import CHUNK_SIZE, derive_rng

from test_simulate import const_rate_matrix, make_model, zero_rates


# recorded reflection-coupled pair records, one per built-in model
REFLECTION_RECORDS = [
    (example51, "8fa496969e9cecb960e89507d574b17e8c832e3df5de6fa821cc01ee80ad485e"),
    (example52, "ab0b3f7e472a67b60f158544e8b3dd1c005a9bb8fb78973413e02acf2ef6d7b7"),
]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _record_arrays(rec):
    """Every array and event a PathRecord carries, in a fixed order."""
    sw = np.array(rec.switch_events, dtype=float).reshape(-1, 3)
    jp = [np.concatenate(([t], np.ravel(u), np.ravel(c))) for t, u, c in rec.jump_events]
    dropped = np.nan if rec.small_jump_var_dropped is None else rec.small_jump_var_dropped
    exited = np.nan if rec.exited is None else rec.exited
    return (rec.times, rec.xs, rec.ks, sw, *jp, np.float64(dropped), np.float64(exited))


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

    @pytest.mark.parametrize("mode, expected", [
        ("gaussian", "9d4fa814a83afa5234d7644520983699294b10faabcf1d6cfc988f7fa6f5b72e"),
        ("killed", "eaa353451a7c2a89662e3cb06b4f2162c8f2e4f00e88db338925c429781dcdd0"),
        ("frozen", "0bf90b22a48c5f41f6348b0901e0eb24b3a323f5c8dc4cfe117391e797f7567a"),
    ])
    def test_ensemble_modes(self, mode, expected):
        policy = "gaussian" if mode == "gaussian" else "drop"
        cfg = IntegratorConfig(step=1.0 / 32, horizon=1.0, small_jump_policy=policy)
        ens = simulate_ensemble(example52(), self.START, cfg, self.N, 20262,
                                regime="switching" if mode == "gaussian" else mode)
        arrays = (ens.x, ens.k, ens.exit_time)
        if mode == "killed":
            assert np.all(ens.weight < 1.0)
            arrays += (ens.weight,)
        else:
            assert ens.weight is None
        assert _digest(*arrays) == expected

    @pytest.mark.parametrize("kind, expected", [
        ("basic", "9acd860c3ce363917ef3365b688e6147471d3d585df84947e5fa759acc7ffbdd"),
        ("reflection", "dd1063e887488a0b32c7cb5804f4423f7183ec4f222d5d745d1dac936590d369"),
    ])
    def test_coupled_ensemble_gaussian_policy(self, kind, expected):
        cfg = CouplingConfig(step=1.0 / 32, horizon=1.0, kind=kind, small_jump_policy="gaussian")
        ens = couple_ensemble(example52(), self.START, self.START2, cfg, self.N, 20263)
        assert _digest(ens.x, ens.xt, ens.k, ens.kt, ens.exit_time, ens.t_meet) == expected

    def test_path_records(self):
        cfg = IntegratorConfig(step=1.0 / 64, horizon=4.0)
        rec = simulate_path(example52(), self.START, cfg, 20266)
        assert rec.jump_events and rec.switch_events and rec.small_jump_var_dropped > 0.0
        killed, weight = simulate_killed_path(example52(), self.START, cfg, 20266)
        assert killed.jump_events and not killed.switch_events
        assert _digest(*_record_arrays(rec), *_record_arrays(killed), np.float64(weight)) == \
            "2be34cece21780e53329049f9cc4263c084c0fc80d0814a87b07dec95a9aba1e"

    def _coupled_record_digest(self, spec, cfg):
        start = HybridState(self.START.x[:spec.d], 1)
        start2 = HybridState(self.START2.x[:spec.d], 1)
        rec = couple(spec, start, start2, cfg, 20265)
        assert rec.first.jump_events
        return _digest(*_record_arrays(rec.first), *_record_arrays(rec.second), rec.delta,
                       np.array(list(rec.marks.values())),
                       np.array([rec.coalesced, rec.n_eig_clamped]))

    @pytest.mark.parametrize("model, expected", REFLECTION_RECORDS)
    def test_reflection_record(self, model, expected):
        cfg = CouplingConfig(step=1.0 / 64, horizon=4.0, kind="reflection")
        assert self._coupled_record_digest(model(), cfg) == expected

    @pytest.mark.parametrize("model, expected", REFLECTION_RECORDS)
    def test_couple_reads_kind_from_config(self, model, expected):
        # one entry point: the kind on the config alone picks the coupling
        basic = CouplingConfig(step=1.0 / 64, horizon=4.0)
        assert basic.kind == "basic"
        assert self._coupled_record_digest(model(), basic) != expected
        assert self._coupled_record_digest(model(), replace(basic, kind="reflection")) == expected

    @pytest.mark.parametrize("kind, with_jumps, expected", [
        ("basic", False, "5624fe91cc02de170870ce7062de568926bbf4744b69664768b82ff1f142cf7e"),
        ("basic", True, "dab2531178d6441012d7b19c3d014f91a6d2be440375bdd8dfeb025cf907fbac"),
        ("reflection", False, "f3b87cf28aabbcb815e71d8459d7af98ded4aa805ede94d99b8092f9da555624"),
        ("reflection", True, "98bc82894f7143839ac900d91c8a2ff53281b8372b67d221a43a293b0a732ad0"),
    ])
    def test_pair_one_step(self, kind, with_jumps, expected):
        cfg = CouplingConfig(step=0.01, horizon=0.01, kind=kind)
        dX, dXt = pair_one_step(example52(), self.START.x, self.START2.x, 1, self.N, cfg,
                                derive_rng(20266, 0, 0), with_jumps=with_jumps)
        assert _digest(dX, dXt) == expected

    def test_reflection_cross_covariance(self):
        rep = reflection_cross_covariance(example52(), self.START.x, self.START2.x, 1, 0.01,
                                          self.N, 1.0 / 16.0, 20267)
        assert _digest(rep.empirical, rep.target, rep.stderr) == "fb469cba3e7a8a5caf6baedecf7b7e35704b092b36774f805009f67998a0b5c8"
