"""One rate-row routine: ``rate_rows`` evaluates rows at a fixed level and
``certified_tail`` is the one validated tail lookup; ``RowTruncator``,
``q_row_truncated``, the generator's regime sum, ``validate_model`` and
``modulus_probe`` are built on them.

The digests were recorded before the callers shared these two functions, when
each evaluated and masked its rows on its own, so they show that sharing them
changes no number.
"""

import hashlib
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsjd import (HybridState, IntegratorConfig, RateMatrixSpec, TruncationError, example51,
                  example52, q_row_truncated)
from rsjd.analysis import modulus_probe
from rsjd.cli import run
from rsjd.config import load_model_config
from rsjd.generator import TestFunction, apply_generator, apply_generator_batch
from rsjd import model
from rsjd.model import RowTruncator, certified_tail, rate_rows
from rsjd.simulate import simulate_ensemble

from test_config_cli import FULL_YAML

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _tail_after_zero(bad):
    """example51's rates with a tail bound that is valid at L = 0 only."""
    base = example51().rates
    return RateMatrixSpec(rate=base.rate,
                          tail_bound=lambda k, L: base.tail_bound(k, L) if L == 0 else bad)


class TestGoldenDigests:
    def test_generator_lyapunov_grid(self):
        # the `lyapunov` CLI grid: example52:1.0, 9 x 9 points x 10 regimes
        spec = example52(1.0)
        axes = np.meshgrid(np.linspace(-5, 5, 9), np.linspace(-5, 5, 9), indexing="ij")
        xs = np.repeat(np.stack([a.ravel() for a in axes], axis=-1), 10, axis=0)
        ks = np.tile(np.arange(1, 11), 81)
        gen = apply_generator_batch(spec, spec.default_lyapunov, xs, ks)
        assert gen.failures == {}
        assert _digest(gen.value) == \
            "c4328b497d7290c8a2726c079d0264258be161117c3ea5c2038b045933ed600d"
        assert _digest(gen.bracket) == \
            "d016013c8e76a2df229466c9261af575450366c3ce0024719cbbfc81eaf0e3a9"

    def test_generator_bounded_function(self):
        # a bounded, regime-dependent f without regime_tail: the regime sum is
        # truncated on 2 sup|f| tail_bound(k, L)
        f = TestFunction(fn=lambda x, k: np.exp(-np.asarray(x)[..., 0] ** 2)
                         / np.asarray(k, dtype=float), bounded=True, bound=1.0)
        xs = np.repeat(np.linspace(-3, 3, 13), 6)[:, None]
        ks = np.tile(np.arange(1, 7), 13)
        gen = apply_generator_batch(example51(), f, xs, ks)
        assert gen.failures == {}
        assert _digest(gen.value) == \
            "70b7408d3e0ada642588dd95181549d21e52b4e2e199808c86b5c3be33b85ce3"
        assert _digest(gen.bracket) == \
            "9b05f08fb376f47faa31fe23d71c2d7aec1960a85f63986ec6245ed7ef59d107"

    @pytest.mark.parametrize("model, digest", [
        ("example51", "f0094b5d8134870366043b9689373b2e6b6449892ddf9c30e18d2fb7ec74ef2e"),
        ("example52", "d848523d7bc86c8cdae3816401719ae1170b35cde3b7e7d8d47fbeb865769475"),
    ])
    def test_validate_payload(self, tmp_path, model, digest):
        # CLI defaults: grid -10:10:41 per axis, kmax 20, 3 quadrature cross-checks
        assert run(["validate", "--model", model, "--outdir", str(tmp_path)]) == 0
        payload = (tmp_path / "validate.json").read_bytes()
        assert hashlib.sha256(payload).hexdigest() == digest


class TestOneRoutine:
    @PROPERTY
    @given(model=st.sampled_from(["example51", "example52"]),
           coords=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
           k=st.integers(1, 40),
           log_tol=st.floats(-13.0, -3.0))
    def test_wrapper_matches_truncator(self, model, coords, k, log_tol):
        spec = example51() if model == "example51" else example52()
        x = np.array(coords[:spec.d])
        rel_tol = 10.0 ** log_tol
        partial, tail = q_row_truncated(spec.rates, x, k, rel_tol)
        rows, _, ls = RowTruncator(spec.rates, rel_tol, l_start=8).rows(x[None], np.array([k]))
        dense = np.zeros(len(ls))
        for l, v in partial:
            dense[l - 1] = v
        assert dense.tobytes() == rows[0].tobytes()
        assert tail == certified_tail(spec.rates, k, len(ls))
        assert tail <= rel_tol * (dense.sum() + tail)

    @pytest.mark.parametrize("make, k", [(example51, 2), (example52, 3)])
    def test_modulus_probe_within_tails(self, make, k):
        # one common level for all pairs: the row increment may move, but
        # only within the certified tails of a dense per-pair reference
        spec = make()
        rng = np.random.default_rng(11)
        xs = rng.uniform(-4.0, 4.0, size=(7, spec.d))
        zs = xs + rng.normal(scale=0.5, size=xs.shape)
        probe = modulus_probe(spec, k, list(zip(xs, zs)))
        for i, (x, z) in enumerate(zip(xs, zs)):
            dense = np.abs(rate_rows(spec.rates, x[None], [k], 128)
                           - rate_rows(spec.rates, z[None], [k], 128)).sum()
            tail = max(q_row_truncated(spec.rates, v, k, 1e-10)[1] for v in (x, z))
            assert dense - 1e-13 <= probe["rate_row"][i] <= dense + 2.0 * tail + 1e-13

    def test_modulus_probe_no_pairs(self):
        probe = modulus_probe(example51(), 1, [])
        assert probe["rate_row"].shape == (0,)


class TestTailCheck:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-3])
    def test_rows_reject_bad_tail_at_once(self, bad):
        # NaN used to grow the level to 2^20 before "not summable"; a negative
        # or infinite tail used to pass the relative test
        trunc = RowTruncator(_tail_after_zero(bad), 1e-9)
        x, k = np.zeros((4, 1)), np.array([1, 1, 2, 3])
        with pytest.raises(TruncationError, match=r"tail_bound\(1, 16\)"):
            trunc.rows(x, k)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-3])
    def test_wrapper_rejects_bad_tail(self, bad):
        with pytest.raises(TruncationError, match=r"tail_bound\(2, 8\)"):
            q_row_truncated(_tail_after_zero(bad), np.array([0.5]), 2, 1e-9)

    def test_generator_rejects_bad_tail(self):
        f = TestFunction(fn=lambda x, k: np.cos(np.asarray(x)[..., 0]) / np.asarray(k),
                         bounded=True, bound=1.0)
        spec = replace(example51(), rates=_tail_after_zero(float("nan")))
        with pytest.raises(TruncationError, match=r"tail_bound\(1, 16\)"):
            apply_generator(spec, f, np.array([0.0]), 1)

    @pytest.mark.parametrize("rel_tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_truncator_rejects_bad_tol(self, rel_tol):
        # rel_tol = inf made tail <= inf * 0 false for a zero row, which grew to 2^20
        with pytest.raises(ValueError, match="rel_tol"):
            RowTruncator(example51().rates, rel_tol)

    @pytest.mark.parametrize("l_start, cap", [(0, 1 << 20), (-4, 1 << 20), (2.5, 1 << 20),
                                              (8.0, 1 << 20), (True, 8), (32, 16),
                                              ((1 << 20) + 1, 1 << 20)])
    def test_truncator_rejects_bad_levels(self, l_start, cap, monkeypatch):
        # l_start = 0 made rows() loop forever: L *= 2 stayed at 0 below L_CAP.
        # Only the constructor runs here, so a missing check fails, not hangs.
        monkeypatch.setattr(model, "L_CAP", cap)
        with pytest.raises(ValueError, match="l_start"):
            RowTruncator(example51().rates, 1e-9, l_start=l_start)


class TestTailTable:
    @staticmethod
    def _counted(rates, bad_k=None, bad=None):
        calls = Counter()

        def tail_bound(k, L):
            calls[k, L] += 1
            return bad if k == bad_k else rates.tail_bound(k, L)

        return RateMatrixSpec(rate=rates.rate, tail_bound=tail_bound), calls

    @pytest.mark.parametrize("make", [example51, example52])
    def test_growing_regimes_match_certified_tail(self, make):
        # at level 16, 17..40 and 100 lie above the tables (regimes 0..16 at
        # L = 0 and 16), and at level 64 the tables cover all of 1..40
        base = make().rates
        rates, calls = self._counted(base)
        trunc = RowTruncator(rates, 1e-9)
        for level in (16, 64):
            trunc._level = level   # as ``rows`` sets it when it widens the rows
            for k in (np.arange(1, 41), np.array([3]), np.array([100, 3, 40, 100]),
                      np.array([7, 7, 1])):
                for L in (0, 16, 32):
                    tails = trunc._tail_bounds(k, L)
                    assert tails.tolist() == [certified_tail(base, int(kk), L) for kk in k]
                assert trunc.row_bound(k).tolist() == trunc._tail_bounds(k, 0).tolist()
        assert set(calls.values()) == {1}
        assert {k for k, _ in calls} == set(range(1, 41)) | {100}

    @pytest.mark.parametrize("bad", [float("nan"), -1e-3])
    def test_bad_tail_at_new_regime_raises(self, bad):
        rates, calls = self._counted(example51().rates, bad_k=7, bad=bad)
        trunc = RowTruncator(rates, 1e-9)
        trunc.row_bound(np.array([1, 2, 3]))
        for _ in range(2):
            # the failed entry stays empty, so asking again raises again
            with pytest.raises(TruncationError, match=r"tail_bound\(7, 0\)"):
                trunc.row_bound(np.array([2, 7, 1]))
        assert calls[7, 0] == 2
        x = np.zeros((2, 1))
        with pytest.raises(TruncationError, match=r"tail_bound\(7, 16\)"):
            trunc.rows(x, np.array([1, 7]))


    def test_far_start_regime(self):
        # a start far above the tables takes the dict path, so memory does
        # not grow with k; the digest was recorded before the tables existed
        starts = (HybridState(np.array([0.5, 0.0]), 10**9),
                  HybridState(np.array([1.0, -1.0]), 3))
        cfg = IntegratorConfig(step=0.05, horizon=2.0, epsilon=0.2)
        tracemalloc.start()
        try:
            ens = simulate_ensemble(example52(), starts, cfg, 2 * 64, 20282)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        # some paths leave the far regime and some stay in it
        assert 0 < np.count_nonzero(ens.k[:64] == 10**9) < 64
        assert _digest(ens.x, ens.k, ens.exit_time) == \
            "78bb7cac54e068976920c6a56848e96c5c5c2c643b98cf327d1538a531f0a261"


class TestRegimeTol:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_integrator_config_rejects_bad_regime_tol(self, bad):
        with pytest.raises(ValueError, match="regime truncation tolerance"):
            IntegratorConfig(step=0.1, horizon=1.0, regime_tol=bad)

    @pytest.mark.parametrize("bad", ["-1", "0", ".nan"])
    def test_config_rejects_bad_regime_tol(self, tmp_path, bad):
        p = tmp_path / "m.yaml"
        p.write_text(FULL_YAML + f"  regime_tol: {bad}\n")
        with pytest.raises(ValueError, match="regime_tol"):
            load_model_config(p)

    @pytest.mark.parametrize("bad", ["-1", "0", ".nan"])
    def test_killed_exits_2(self, tmp_path, bad):
        # before the check, a row built to rel_tol <= 0 grew to 2^20 columns
        p = tmp_path / "m.yaml"
        p.write_text(FULL_YAML + f"  regime_tol: {bad}\n")
        code = run(["killed", "--model", str(p), "--start", "0,1", "--ball", "0,1",
                    "--t", "0.05", "--n", "4", "--m-grid=-1:1:5",
                    "--outdir", str(tmp_path)])
        assert code == 2
