"""Separation sweeps of the coupled engine.

``couple_ensemble`` with S second starts draws each chunk's numbers once and
steps all S separations on them; block j of the result is separation j.  The
golden digests were recorded when every separation still ran as its own
``couple_ensemble`` call, so they show that a sweep changes no number.  The
ensembles are two chunks wide, the second one partial.

Pair i's first side is one state in every block until some block's first
side switches or is censored; the engine evaluates it once per pair until
then.  ``TestDivergedFirstSides`` builds sweeps whose first sides do split,
through coupled switches and through censoring, and holds every block to
its one-start run.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from rsjd import (
    CouplingConfig,
    HybridState,
    TestFunction,
    TruncationError,
    couple_ensemble,
    example51,
    example52,
    feller_modulus,
    strong_feller_modulus,
)
from rsjd.config import load_model_config
from rsjd.model import RowTruncator
from rsjd.simulate import CHUNK_SIZE

N = CHUNK_SIZE + 13
SEPARATIONS = (0.4, 0.1, 0.025)
STARTS = {"example51": np.array([0.0]), "example52": np.array([0.5, -0.25])}
MODELS = {"example51": example51, "example52": example52}
FIELDS = ("x", "xt", "k", "kt", "zeta", "s_delta0", "tau_r", "t_meet", "coalesced",
          "exit_time")
F_TANH = TestFunction(fn=lambda x, k: np.tanh(np.asarray(x, dtype=float)[..., 0])
                      / (1.0 + np.asarray(k, dtype=float)),
                      bounded=True, bound=0.5)


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _ensemble_digest(ens) -> str:
    return _sha(b"".join(np.ascontiguousarray(getattr(ens, f)).tobytes() for f in FIELDS))


def _results_digest(results) -> str:
    return _sha(json.dumps([r.to_dict() for r in results], sort_keys=True).encode())


def _second_starts(name, separations=SEPARATIONS):
    x = STARTS[name]
    return [HybridState(x + s * np.eye(x.size)[0], 1) for s in separations]


def _raw_cfg(kind):
    # a small ball, delta0 and guard radius, so that the stopping-time marks
    # and the censoring get hit
    return CouplingConfig(step=1.0 / 16, horizon=1.0, kind=kind, ball_radius=2.0,
                          delta0=0.6, r_max=2.5)


class TestGoldenDigests:
    @pytest.mark.parametrize("name, expected", [
        ("example51",
         "3e978b745c631c45a1123f0e7b416f63dd955d6b3e248d41bed337aa1048100a"),
        ("example52",
         "409a88ce04c3a861743d8a456789c40444fd658e2abc66ce15f708c6c5c31933"),
    ])
    def test_feller_modulus(self, name, expected):
        cfg = CouplingConfig(step=1.0 / 16, horizon=1.0)
        res = feller_modulus(MODELS[name](), F_TANH, STARTS[name],
                             [s.x for s in _second_starts(name)], 1, 1.0, N, cfg, 20281)
        assert len(res) == len(SEPARATIONS)
        assert _results_digest(res) == expected

    @pytest.mark.parametrize("name, expected", [
        ("example51",
         "d22194f6813b362245ef2a567f749a92524127611adc237c6e7344cab9a11957"),
        ("example52",
         "1b6b28ceda2cdea51817a5abe18c5273b1a392d6896c0b63248247dce7ceab51"),
    ])
    def test_strong_feller_modulus(self, name, expected):
        cfg = CouplingConfig(step=1.0 / 16, horizon=1.0)
        res = strong_feller_modulus(MODELS[name](), F_TANH, STARTS[name],
                                    [s.x for s in _second_starts(name)], 1, 1.0, N, cfg,
                                    20282)
        assert len(res) == len(SEPARATIONS)
        assert _results_digest(res) == expected

    @pytest.mark.parametrize("name, kind, expected", [
        ("example51", "basic",
         "736af2dd50d33e48d5ba6728498ce36ee5864a09ec5907de5778236e34613484"),
        ("example51", "reflection",
         "05fe3a3e0c03cd5d563034184e68753e7c0fa2e9691065ac115b957bafd22790"),
        ("example52", "basic",
         "abfd9d0269efb4cb834180a6ea148b83b19e4577abddf1be47ee59ab1784e55a"),
        ("example52", "reflection",
         "e0ef306f6fd2c903b2164dfb5a3440983098fa7f5189047a191c73ef58d185ef"),
    ])
    def test_coupled_ensemble(self, name, kind, expected):
        ens = couple_ensemble(MODELS[name](), HybridState(STARTS[name], 1),
                              _second_starts(name)[0], _raw_cfg(kind), N, 20283)
        assert np.any(ens.k != 1) and np.any(ens.k != ens.kt)
        marks = ("zeta", "s_delta0", "tau_r", "exit_time")
        for mark in marks + (("t_meet",) if kind == "reflection" else ()):
            assert np.any(np.isfinite(getattr(ens, mark)))
        assert _ensemble_digest(ens) == expected


class TestSweep:
    SWEEP = (0.4, 0.0, 0.1, 0.025)  # 0.0: the pair starts coalesced

    @pytest.mark.parametrize("name", ["example51", "example52"])
    @pytest.mark.parametrize("kind", ["basic", "reflection"])
    @pytest.mark.parametrize("S", [1, 2, 4])
    def test_blocks_match_one_start_calls(self, name, kind, S):
        spec = MODELS[name]()
        start = HybridState(STARTS[name], 1)
        seconds = _second_starts(name, self.SWEEP[:S])
        cfg = CouplingConfig(step=1.0 / 16, horizon=0.5, kind=kind)
        sweep = couple_ensemble(spec, start, seconds, cfg, S * N, 20284)
        assert sweep.x.shape == (S * N, spec.d)
        blocks = sweep.blocks(S)
        for second, block in zip(seconds, blocks):
            alone = couple_ensemble(spec, start, second, cfg, N, 20284)
            for f in FIELDS:
                a, b = getattr(alone, f), getattr(block, f)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), f

    @pytest.mark.parametrize("kind", ["basic", "reflection"])
    def test_blocks_at_different_levels(self, kind, monkeypatch):
        # the far second start has tiny row sums, so its block needs L = 64
        # while the near blocks certify at 32; at the first switch step the
        # near blocks' shared call at 16 fails and every block falls back to
        # its own truncator
        spec = example51()
        start = HybridState(STARTS["example51"], 1)
        seconds = _second_starts("example51", (0.1, 1e4, 0.025))
        cfg = CouplingConfig(step=1.0 / 16, horizon=0.5, kind=kind)
        calls = []
        rows = RowTruncator.rows

        def spy(self, x, k, level=None):
            try:
                out = rows(self, x, k, level)
            except TruncationError:
                calls.append(None)
                raise
            calls.append(out[2].size)
            return out

        monkeypatch.setattr(RowTruncator, "rows", spy)
        sweep = couple_ensemble(spec, start, seconds, cfg, len(seconds) * N, 20285)
        assert None in calls and {32, 64} <= set(calls)
        for second, block in zip(seconds, sweep.blocks(len(seconds))):
            alone = couple_ensemble(spec, start, second, cfg, N, 20285)
            for f in FIELDS:
                a, b = getattr(alone, f), getattr(block, f)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), f

    def test_bad_second_starts_rejected(self):
        spec = example52()
        start = HybridState(STARTS["example52"], 1)
        cfg = CouplingConfig(step=1.0 / 16, horizon=0.25)
        with pytest.raises(ValueError, match="at least one second start"):
            couple_ensemble(spec, start, [], cfg, 10, 0)
        other = HybridState(STARTS["example52"], 2)
        with pytest.raises(ValueError, match="share the initial regime"):
            couple_ensemble(spec, start, [_second_starts("example52")[0], other], cfg, 10, 0)
        with pytest.raises(ValueError, match="multiple of the number of second starts"):
            couple_ensemble(spec, start, _second_starts("example52"), cfg, 10, 0)

    def test_empty_sequence_gives_no_results(self):
        cfg = CouplingConfig(step=1.0 / 16, horizon=0.25)
        assert feller_modulus(example51(), F_TANH, STARTS["example51"], [], 1, 0.25, 10,
                              cfg, 0) == []


def _assert_blocks_alone(spec, start, seconds, cfg, seed, threads):
    """Run the sweep at ``threads`` and hold every block to its one-start run;
    returns the blocks."""
    sweep = couple_ensemble(spec, start, seconds, cfg, len(seconds) * N, seed,
                            threads=threads)
    blocks = sweep.blocks(len(seconds))
    for second, block in zip(seconds, blocks):
        alone = couple_ensemble(spec, start, second, cfg, N, seed)
        for f in FIELDS:
            a, b = getattr(alone, f), getattr(block, f)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), f
    return blocks


def _first_sides_differ(a, b):
    return (a.x != b.x).any(axis=1) | (a.k != b.k)


class TestDivergedFirstSides:
    # fast switching whose rate depends on x, with config-model jumps
    FAST = Path(__file__).parent / "data" / "fast_switch.yaml"

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["basic", "reflection"])
    def test_through_coupled_switches(self, kind, threads):
        spec = load_model_config(self.FAST)
        start = HybridState(np.array([0.0]), 1)
        seconds = [HybridState(np.array([s]), 1) for s in (1.0, 0.3, 0.05)]
        cfg = CouplingConfig(step=1.0 / 16, horizon=0.5, kind=kind)
        blocks = _assert_blocks_alone(spec, start, seconds, cfg, 20401, threads)
        # no pair is censored, so only switches split the first sides
        assert all(np.isinf(b.exit_time).all() for b in blocks)
        for other in blocks[1:]:
            assert _first_sides_differ(blocks[0], other).any()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["basic", "reflection"])
    @pytest.mark.parametrize("name", ["example51", "example52"])
    def test_through_censoring(self, name, kind, threads):
        # the far second start leaves r_max far more often than the near one,
        # so a pair is often censored in one block and not in the other, and
        # its first side stops there and moves on in the other block; the far
        # block is block 0, whose rows are the ones side 1 is evaluated at
        # while a pair has not diverged
        x = STARTS[name]
        cfg = CouplingConfig(step=1.0 / 16, horizon=0.5, kind=kind, r_max=2.0)
        far, near = _assert_blocks_alone(MODELS[name](), HybridState(x, 1),
                                         _second_starts(name, (1.5, 0.05)), cfg, 20402, threads)
        only_far = np.isfinite(far.exit_time) & np.isinf(near.exit_time)
        assert (only_far & _first_sides_differ(near, far)).any()

