import numpy as np
import pytest
from scipy import linalg

from rsjd import (
    HybridState,
    IntegratorConfig,
    ModelSpec,
    RateMatrixSpec,
    example51,
    simulate_ensemble,
    simulate_killed_path,
    simulate_path,
)
from rsjd.config import load_model_config
from rsjd.simulate import _compensator_quadrature, derive_rng

# config model with the power-law family du/|u|^p on 0 < |u| < 1 and a jump
# coefficient even in u, so its large-jump compensator is nonzero:
# int_{|u|>eps} 0.5 |u| x / k |u|^-p du; for p = 2 it is log(1/eps) x / k
JUMP_YAML = """
model:
  name: jump1d-test
  dimension: 1
  drift: "-x/(2*k[..., None]**2)"
  sigma: "cbrt(x[..., 0])**2 + 1"
  jump:
    family: power_law
    exponent: {exponent!r}
    coeff: "0.5*abs(u[..., 0, None])*x/k[..., None]"
    epsilon: 0.05
  rates:
    expr: "12.0*exp(-l*log(3.0))/(1+l*norm2(x))"
    tail_coeff: "6.0"
    tail_ratio: 0.3333333333333333
"""


def jump_config(path, exponent=2.0):
    """Write the config model above to ``path`` and load it."""
    path.write_text(JUMP_YAML.format(exponent=float(exponent)))
    return load_model_config(path)


def zero_rates():
    def rate(x, k, l):
        shape = np.broadcast(np.asarray(x)[..., 0], np.asarray(k), np.asarray(l)).shape
        return np.zeros(shape)

    return RateMatrixSpec(rate=rate, tail_bound=lambda k, L: 0.0)


def diag_sigma(value):
    def sigma(x, k):
        x = np.asarray(x, dtype=float)
        d = x.shape[-1]
        out = np.zeros(x.shape[:-1] + (d, d))
        out[..., range(d), range(d)] = value
        return out

    return sigma


def const_rate_matrix(scale=2.0, ratio=1.0 / 3.0):
    # x-independent rates q_kl = scale * ratio^l for l != k
    def rate(x, k, l):
        l = np.asarray(l, dtype=float)
        base = scale * ratio ** l
        shape = np.broadcast(np.asarray(x)[..., 0], np.asarray(k), l).shape
        return np.broadcast_to(base, shape)

    def tail_bound(k, L):
        return scale * ratio ** (L + 1) / (1.0 - ratio)

    return RateMatrixSpec(rate=rate, tail_bound=tail_bound)


def make_model(d=1, drift=None, sigma=None, rates=None, **kw):
    return ModelSpec(
        d=d,
        drift=drift or (lambda x, k: np.zeros_like(np.asarray(x, dtype=float))),
        sigma=sigma or diag_sigma(0.0),
        rates=rates or zero_rates(),
        **kw,
    )


class TestSinglePath:
    def test_zero_model_constant(self):
        spec = make_model()
        rec = simulate_path(spec, HybridState(np.array([1.5]), 3),
                            IntegratorConfig(step=0.01, horizon=1.0), 4)
        assert np.all(rec.xs == 1.5)
        assert np.all(rec.ks == 3)
        assert rec.switch_events == [] and rec.jump_events == []

    def test_pure_drift_ode_oracle(self):
        # dX = -X/(2 k^2) dt from x=1, k=1 has the exact solution e^{-t/2}
        spec = make_model(drift=example51().drift)
        h = 1e-3
        rec = simulate_path(spec, HybridState(np.array([1.0]), 1),
                            IntegratorConfig(step=h, horizon=1.0), 0)
        assert rec.xs[-1, 0] == pytest.approx(np.exp(-0.5), abs=5 * h)

    def test_reproducible(self):
        spec = example51()
        cfg = IntegratorConfig(step=1.0 / 64, horizon=1.0)
        a = simulate_path(spec, HybridState(np.array([0.5]), 1), cfg, 123)
        b = simulate_path(spec, HybridState(np.array([0.5]), 1), cfg, 123)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ks, b.ks)
        assert a.switch_events == b.switch_events
        assert len(a.jump_events) == len(b.jump_events)

    def test_switch_events_match_regime_sequence(self):
        spec = make_model(rates=const_rate_matrix(scale=3.0))
        rec = simulate_path(spec, HybridState(np.array([0.0]), 1),
                            IntegratorConfig(step=0.01, horizon=5.0), 21)
        changes = np.nonzero(np.diff(rec.ks))[0]
        assert len(changes) == len(rec.switch_events)
        for idx, (t, frm, to) in zip(changes, rec.switch_events):
            assert rec.times[idx + 1] == pytest.approx(t)
            assert rec.ks[idx] == frm and rec.ks[idx + 1] == to
        # between consecutive events the regime is constant by construction
        assert len(rec.switch_events) > 0

    def test_censoring_freezes_path(self):
        spec = make_model(drift=lambda x, k: 10.0 * np.asarray(x, dtype=float))
        rec = simulate_path(spec, HybridState(np.array([1.0]), 1),
                            IntegratorConfig(step=0.01, horizon=2.0, r_max=5.0), 3)
        assert rec.exited is not None
        after = rec.times > rec.exited
        assert np.all(rec.xs[after] == rec.xs[after][0])

    def test_csv_npz_roundtrip(self, tmp_path):
        spec = example51()
        rec = simulate_path(spec, HybridState(np.array([0.2]), 1),
                            IntegratorConfig(step=0.01, horizon=0.2), 9)
        rec.to_csv(tmp_path / "p.csv")
        lines = (tmp_path / "p.csv").read_text().strip().split("\n")
        assert lines[0] == "t,x1,k"
        assert len(lines) == len(rec.times) + 1
        rec.to_npz(tmp_path / "p.npz")
        data = np.load(tmp_path / "p.npz")
        assert np.array_equal(data["xs"], rec.xs)
        assert int(data["seed"]) == 9

    def test_small_jump_variance_reported(self):
        spec = example51()
        rec = simulate_path(spec, HybridState(np.array([1.0]), 1),
                            IntegratorConfig(step=0.01, horizon=0.5), 2)
        assert rec.small_jump_var_dropped is not None
        assert rec.small_jump_var_dropped >= 0.0


class TestKilled:
    def test_zero_rate_weight_one(self):
        spec = make_model(sigma=diag_sigma(1.0))
        _, w = simulate_killed_path(spec, HybridState(np.array([0.0]), 1),
                                    IntegratorConfig(step=0.01, horizon=1.0), 5)
        assert w == 1.0

    def test_constant_rate_exact_weight(self):
        c0 = 0.7
        spec = make_model(rates=const_rate_matrix(scale=c0 / ((1.0 / 3.0) / (1.0 - 1.0 / 3.0))))
        # rate row sums to c0 for k far above the support? use explicit check instead
        from rsjd import q_row_truncated
        total = sum(v for _, v in q_row_truncated(spec.rates, np.array([0.0]), 10 ** 6, 1e-12)[0])
        _, w = simulate_killed_path(spec, HybridState(np.array([0.0]), 10 ** 6),
                                    IntegratorConfig(step=0.01, horizon=1.0), 5)
        assert w == pytest.approx(np.exp(-total), rel=1e-9)

    def test_example51_mean_weight_band(self):
        # sup_x q_1(x) = q_1(0) = 1/18 (independent series oracle), so the mean
        # survival weight over [0,1] lies in (e^{-1/18}, 1)
        spec = example51()
        m_sup = (1.0 / 3.0) * ((1.0 / 3.0) ** 2 / (1.0 - 1.0 / 3.0))
        assert m_sup == pytest.approx(1.0 / 18.0)
        ws = []
        for seed in range(40):
            _, w = simulate_killed_path(spec, HybridState(np.array([0.0]), 1),
                                        IntegratorConfig(step=1.0 / 64, horizon=1.0), seed)
            ws.append(w)
        mean_w = np.mean(ws)
        assert np.exp(-m_sup) < mean_w <= 1.0


class TestCompensatorFallback:
    """The quadrature fallback for models without a closed-form compensator."""

    def test_matches_closed_form_at_each_state(self, tmp_path):
        spec = jump_config(tmp_path / "jump.yaml")
        x = np.array([[0.5], [0.5004], [-1.25]])
        k = np.array([1, 1, 3])
        comp = _compensator_quadrature(spec, x, k, 0.05)
        exact = np.log(20.0) * x / k[:, None]
        assert np.allclose(comp, exact, rtol=1e-10, atol=0.0)

    def test_ensemble_independent_of_earlier_runs(self, tmp_path):
        cold_spec = jump_config(tmp_path / "cold.yaml")
        warm_spec = jump_config(tmp_path / "warm.yaml")
        cfg = IntegratorConfig(step=1.0 / 128, horizon=0.25)
        start = HybridState(np.array([0.0]), 1)
        cold = simulate_ensemble(cold_spec, start, cfg, 64, 2)
        simulate_ensemble(warm_spec, start, cfg, 64, 1)
        warm = simulate_ensemble(warm_spec, start, cfg, 64, 2)
        assert cold.x.tobytes() == warm.x.tobytes()
        assert cold.k.tobytes() == warm.k.tobytes()


class TestDeriveRng:
    def test_negative_seed_rejected(self):
        # the seed was masked to 63 bits, so -1 drew the numbers of 2^63 - 1
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            derive_rng(-1, 0, 0)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            simulate_ensemble(example51(), HybridState(np.array([0.0]), 1),
                              IntegratorConfig(step=0.25, horizon=1.0), 8, -3)

    def test_seeds_at_or_above_2_63_are_their_own(self):
        # the mask gave 2^63 + s the numbers of s
        def first(seed):
            return derive_rng(seed, 0, 0).random(4).tobytes()

        for s in (0, 5, 2**63 - 1):
            assert first(2**63 + s) != first(s)

    def test_seeds_below_2_63_keep_their_streams(self):
        for seed in (0, 7, 2**62 + 3, 2**63 - 1):
            ref = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3, 1)))
            assert derive_rng(seed, 3, 1).random(4).tobytes() == ref.random(4).tobytes()


class TestEnsemble:
    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError, match="'switching', 'frozen' or 'killed'"):
            simulate_ensemble(example51(), HybridState(np.array([0.0]), 1),
                              IntegratorConfig(step=1.0 / 16, horizon=1.0), 200, 3,
                              regime="kiled")

    def test_thread_count_invariance(self):
        spec = example51()
        cfg = IntegratorConfig(step=1.0 / 64, horizon=0.5)
        start = HybridState(np.array([0.3]), 1)
        a = simulate_ensemble(spec, start, cfg, 6000, 17, threads=1)
        b = simulate_ensemble(spec, start, cfg, 6000, 17, threads=5)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.k, b.k)
        assert np.array_equal(a.exit_time, b.exit_time)

    def test_martingale_property(self):
        # b = c = 0, sigma = 1: E X(t) = x within 3 standard errors
        spec = make_model(sigma=diag_sigma(1.0))
        ens = simulate_ensemble(spec, HybridState(np.array([0.7]), 1),
                                IntegratorConfig(step=1.0 / 64, horizon=1.0), 20000, 3)
        se = ens.x[:, 0].std(ddof=1) / np.sqrt(len(ens.x))
        assert abs(ens.x[:, 0].mean() - 0.7) < 3 * se

    def test_regime_marginal_vs_matrix_exponential(self):
        # x-independent rates: the regime marginal is a plain CTMC; compare
        # against the truncated-generator matrix exponential
        K = 12
        spec = make_model(rates=const_rate_matrix(scale=2.0))
        t = 1.0
        ens = simulate_ensemble(spec, HybridState(np.array([0.0]), 1),
                                IntegratorConfig(step=1.0 / 256, horizon=t), 20000, 8)
        Q = np.zeros((K, K))
        for i in range(K):
            for j in range(K):
                if i != j:
                    Q[i, j] = 2.0 * (1.0 / 3.0) ** (j + 1)
            Q[i, i] = -Q[i].sum()
        probs = linalg.expm(t * Q)[0]
        counts = np.bincount(np.minimum(ens.k, K) - 1, minlength=K)
        n = counts.sum()
        for j in range(4):  # regimes with non-negligible mass
            p = probs[j]
            se = np.sqrt(p * (1 - p) / n)
            assert abs(counts[j] / n - p) < 3 * se + 2e-3

    def test_second_moment_stable_under_step_halving(self):
        spec = example51()
        start = HybridState(np.array([1.0]), 1)
        vals, ses = [], []
        for level, h in enumerate([2.0 ** -6, 2.0 ** -7, 2.0 ** -8, 2.0 ** -9]):
            ens = simulate_ensemble(spec, start, IntegratorConfig(step=h, horizon=1.0),
                                    20000, 100 + level)
            v = ens.x[:, 0] ** 2
            vals.append(v.mean())
            ses.append(v.std(ddof=1) / np.sqrt(len(v)))
        vals, ses = np.array(vals), np.array(ses)
        assert np.all(np.isfinite(vals))
        for i in range(len(vals) - 1):
            assert abs(vals[i] - vals[i + 1]) < 4 * np.hypot(ses[i], ses[i + 1]) + 0.02

    def test_weak_error_decreases_with_step(self):
        # linear contraction b = -2x with unit noise: the Euler bias in E X_t^2
        # shrinks with h, so consecutive-level gaps must decrease
        spec = make_model(drift=lambda x, k: -2.0 * np.asarray(x, dtype=float),
                          sigma=diag_sigma(1.0))
        start = HybridState(np.array([1.5]), 1)
        means = []
        for h in [2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6]:
            ens = simulate_ensemble(spec, start, IntegratorConfig(step=h, horizon=1.0),
                                    200000, 55)
            means.append((ens.x[:, 0] ** 2).mean())
        gaps = np.abs(np.diff(means))
        assert np.all(np.diff(gaps) < 0), gaps

    def test_gaussian_small_jump_policy_runs(self):
        spec = example51()
        cfg = IntegratorConfig(step=1.0 / 64, horizon=0.5, small_jump_policy="gaussian")
        ens = simulate_ensemble(spec, HybridState(np.array([1.0]), 1), cfg, 2000, 12)
        assert np.all(np.isfinite(ens.x))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.0, horizon=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(step=2.0, horizon=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.1, horizon=1.0, small_jump_policy="nope")
