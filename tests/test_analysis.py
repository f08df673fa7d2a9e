import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from rsjd import (
    CouplingConfig,
    EstimatorResult,
    HybridState,
    IntegratorConfig,
    Partition,
    QuadratureError,
    TestFunction,
    build_F,
    build_G,
    estimate_invariant,
    estimate_killed_subtransition,
    estimate_semigroup,
    estimate_transition,
    example51,
    example52,
    feller_modulus,
    reflection_cross_covariance,
    simulate_ensemble,
    strong_feller_modulus,
    trend_ok,
    verify_coupling_drift,
)
from rsjd.analysis import _clopper_pearson_lower95

from test_simulate import diag_sigma, make_model


def f_const():
    return TestFunction(fn=lambda x, k: np.ones(np.shape(np.asarray(x)[..., 0])),
                        bounded=True, bound=1.0)


def f_tanh():
    return TestFunction(fn=lambda x, k: np.tanh(np.asarray(x, dtype=float)[..., 0])
                        / (1.0 + np.asarray(k, dtype=float)),
                        bounded=True, bound=0.5)


class TestEstimatorResult:
    def test_invariants(self):
        r = EstimatorResult(1.0, 0.1, (0.8, 1.2), 100, 2)
        assert r.n_censored <= r.n_paths
        with pytest.raises(ValueError):
            EstimatorResult(1.0, -0.1, (0.8, 1.2), 100)
        with pytest.raises(ValueError):
            EstimatorResult(2.0, 0.1, (0.8, 1.2), 100)


class TestSemigroup:
    def test_constant_function(self):
        spec = example51()
        res = estimate_semigroup(spec, f_const(), HybridState(np.array([0.0]), 1), 0.25,
                                 500, IntegratorConfig(step=1.0 / 32, horizon=1.0), 3)
        assert res.estimate == 1.0 and res.stderr == 0.0

    def test_zero_model_identity(self):
        spec = make_model(d=1)
        f = TestFunction(fn=lambda x, k: np.asarray(x, dtype=float)[..., 0])
        res = estimate_semigroup(spec, f, HybridState(np.array([1.7]), 1), 0.5,
                                 200, IntegratorConfig(step=1.0 / 16, horizon=1.0), 4)
        assert res.estimate == pytest.approx(1.7, rel=1e-14)
        assert res.stderr <= 1e-15

    def test_regime_survival_band(self):
        # P{K_t = 1} from k=1 exceeds exp(-t sup q_1) with sup q_1 = 1/18
        spec = example51()
        t = 0.5
        f = TestFunction(fn=lambda x, k: (np.asarray(k) == 1).astype(float),
                         bounded=True, bound=1.0)
        res = estimate_semigroup(spec, f, HybridState(np.array([0.0]), 1), t,
                                 20000, IntegratorConfig(step=1.0 / 64, horizon=1.0), 5)
        assert np.exp(-t / 18.0) - 3 * res.stderr < res.estimate <= 1.0


class TestModuli:
    def test_feller_zero_at_equal_starts(self):
        spec = example51()
        cfg = CouplingConfig(step=1.0 / 32, horizon=1.0)
        res = feller_modulus(spec, f_tanh(), np.array([0.2]), [np.array([0.2])], 1,
                             1.0, 400, cfg, 6)
        assert res[0].estimate == 0.0

    def test_strong_feller_constant_function(self):
        spec = example51()
        cfg = CouplingConfig(step=1.0 / 32, horizon=0.5, kind="reflection", lambda_R=1.0)
        res = strong_feller_modulus(spec, f_const(), np.array([0.0]),
                                    [np.array([0.1])], 1, 0.5, 400, cfg, 7)
        assert res[0].estimate == 0.0
        assert res[0].extra["coupling_bound"] >= 0.0
        assert res[0].extra["bound_ok"]

    def test_strong_feller_requires_bound(self):
        spec = example51()
        cfg = CouplingConfig(step=1.0 / 32, horizon=0.5, kind="reflection", lambda_R=1.0)
        with pytest.raises(ValueError):
            strong_feller_modulus(spec, TestFunction(fn=lambda x, k: 0.0),
                                  np.array([0.0]), [np.array([0.1])], 1, 0.5, 100,
                                  cfg, 0)


class TestTransition:
    def test_short_time_stays_near_start(self):
        spec = example51()
        cfg = IntegratorConfig(step=1.0 / 128, horizon=1.0)
        res = estimate_transition(spec, HybridState(np.array([0.0]), 1), 1.0 / 128,
                                  np.array([0.0]), 0.5, 1, 2000, cfg, 8)
        assert res.estimate > 0.95
        assert res.extra["lower95"] > 0.9

    def test_zero_rate_other_regime_impossible(self):
        spec = make_model(sigma=diag_sigma(1.0))
        cfg = IntegratorConfig(step=1.0 / 32, horizon=1.0)
        res = estimate_transition(spec, HybridState(np.array([0.0]), 1), 1.0,
                                  np.array([0.0]), 10.0, 2, 500, cfg, 9)
        assert res.estimate == 0.0 and res.extra["lower95"] == 0.0

    def test_clopper_pearson_monotone_in_n(self):
        lowers = [_clopper_pearson_lower95(int(0.05 * n), n) for n in (100, 400, 1600, 6400)]
        assert all(b >= a for a, b in zip(lowers, lowers[1:]))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @example((1, 1))
    @example((1, 1 << 20))
    @example((1 << 20, 1 << 20))
    @given(st.integers(1, 1 << 20).flatmap(
        lambda n: st.tuples(st.sampled_from([1, n]) | st.integers(1, n), st.just(n))))
    def test_clopper_pearson_matches_beta_ppf(self, sn):
        s, n = sn
        assert _clopper_pearson_lower95(s, n) == float(stats.beta.ppf(0.05, s, n - s + 1))

    def test_regime_below_one_rejected(self):
        cfg = IntegratorConfig(step=1.0 / 32, horizon=1.0)
        with pytest.raises(ValueError, match="target_regime must be >= 1"):
            estimate_transition(example51(), HybridState(np.array([0.0]), 1), 0.25,
                                np.array([0.0]), 0.5, 0, 16, cfg, 1)

    def test_adaptive_growth(self):
        spec = example51()
        cfg = IntegratorConfig(step=1.0 / 64, horizon=2.0)
        res = estimate_transition(spec, HybridState(np.array([0.0]), 1), 2.0,
                                  np.array([1.0]), 0.5, 2, 1000, cfg, 10,
                                  adapt_until_positive=True, max_paths=64000)
        assert res.extra["lower95"] > 0.0


class TestKilledEstimator:
    def test_zero_rates_match_frozen_transition(self):
        # drift-only deterministic model: both estimators are exact indicators
        spec = make_model(drift=lambda x, k: -np.asarray(x, dtype=float))
        cfg = IntegratorConfig(step=1.0 / 64, horizon=1.0)
        start = HybridState(np.array([2.0]), 1)
        killed = estimate_killed_subtransition(spec, start, 1.0, np.array([0.7]), 0.2,
                                               200, cfg, 11)
        frozen = estimate_transition(spec, start, 1.0, np.array([0.7]), 0.2, 1,
                                     200, cfg, 11)
        assert killed.estimate == frozen.estimate == 1.0
        assert killed.extra["mean_weight"] == 1.0

    @pytest.mark.parametrize("t, radius", [(1.0, -1.0), (1.0, 0.0), (1.0, float("nan")),
                                           (0.0, 1.0), (-1.0, 1.0)])
    def test_degenerate_target_rejected(self, t, radius):
        cfg = IntegratorConfig(step=1.0 / 32, horizon=1.0)
        with pytest.raises(ValueError, match="positive target radius and time"):
            estimate_killed_subtransition(example51(), HybridState(np.array([0.0]), 1), t,
                                          np.array([0.0]), radius, 16, cfg, 1)

    def test_censored_paths_reported(self):
        spec = example51()
        cfg = IntegratorConfig(step=1.0 / 64, horizon=1.0, r_max=0.5)
        start = HybridState(np.array([0.0]), 1)
        n = 2000
        killed = estimate_killed_subtransition(spec, start, 1.0, np.array([0.0]), 1.0, n,
                                               cfg, 14)
        ens = simulate_ensemble(spec, start, cfg, n, 14, regime="killed")
        assert 0 < killed.n_censored == ens.n_censored < n
        assert killed.n_paths == n

    def test_example51_survival_inequalities(self):
        spec = example51()
        cfg = IntegratorConfig(step=1.0 / 64, horizon=1.0)
        start = HybridState(np.array([0.0]), 1)
        ball, radius, t = np.array([0.0]), 1.0, 1.0
        killed = estimate_killed_subtransition(spec, start, t, ball, radius, 8000,
                                               cfg, 12)
        # frozen-regime (unkilled) transition via switching-free simulation
        from rsjd.simulate import simulate_ensemble
        from dataclasses import replace
        ens = simulate_ensemble(spec, start, replace(cfg, horizon=t), 8000, 13,
                                regime="frozen")
        p_frozen = float(np.mean(np.abs(ens.x[:, 0]) < radius))
        se = np.sqrt(p_frozen * (1 - p_frozen) / 8000)
        m_sup = 1.0 / 18.0  # independent series oracle for sup_x q_1(x)
        assert killed.estimate >= np.exp(-m_sup * t) * p_frozen - 3 * (killed.stderr + se)
        full = estimate_transition(spec, start, t, ball, radius, 1, 8000, cfg, 14)
        assert full.estimate >= killed.estimate - 3 * (full.stderr + killed.stderr)


class TestInvariantOccupation:
    def test_partition_indexing(self):
        part = Partition(lo=(-1.0, -1.0), hi=(1.0, 1.0), bins=(2, 2), k_max=3)
        x = np.array([[-0.5, -0.5], [0.5, 0.5], [5.0, 0.0]])
        k = np.array([1, 3, 9])
        idx = part.flat_index(x, k)
        assert idx[0] == 0
        assert idx[2] // (part.k_max + 1) == part.n_space - 1  # overflow cell
        assert idx[2] % (part.k_max + 1) == part.k_max          # pooled regime
        assert part.n_cells == 5 * 4

    def test_zero_model_point_masses(self):
        spec = make_model(d=1)
        part = Partition(lo=(-2.0,), hi=(2.0,), bins=(4,), k_max=2)
        rep = estimate_invariant(spec, [HybridState(np.array([-1.5]), 1),
                                        HybridState(np.array([1.5]), 2)],
                                 1.0, 4.0, IntegratorConfig(step=0.25, horizon=4.0),
                                 part, 15, n_paths=8)
        assert rep.pairwise_tv[0, 1] == 1.0
        assert np.all(rep.window_tv == 0.0)

    @pytest.mark.parametrize("kw", [
        dict(lo=(-1.0, -1.0), hi=(1.0,), bins=(2, 2)),      # mismatched lengths
        dict(lo=(-1.0,), hi=(1.0,), bins=(2, 2)),
        dict(lo=(1.0,), hi=(-1.0,), bins=(2,)),             # hi < lo
        dict(lo=(1.0,), hi=(1.0,), bins=(2,)),              # empty box
        dict(lo=(-1.0,), hi=(1.0,), bins=(0,)),
        dict(lo=(-1.0,), hi=(1.0,), bins=(2,), k_max=0),
        dict(lo=(-1.0,), hi=(float("inf"),), bins=(2,)),    # unbounded box
        dict(lo=(-float("inf"), 0.0), hi=(1.0, 1.0), bins=(2, 2)),
    ])
    def test_partition_rejects_degenerate_boxes(self, kw):
        with pytest.raises(ValueError):
            Partition(**{"k_max": 2, **kw})

    def test_invariant_rejects_empty_input(self):
        spec = make_model(d=1)
        part = Partition(lo=(-2.0,), hi=(2.0,), bins=(4,), k_max=2)
        cfg = IntegratorConfig(step=0.25, horizon=4.0)
        with pytest.raises(ValueError, match="start"):
            estimate_invariant(spec, [], 1.0, 4.0, cfg, part, 15, n_paths=8)
        with pytest.raises(ValueError, match="path"):
            estimate_invariant(spec, [HybridState(np.array([0.0]), 1)], 1.0, 4.0, cfg,
                               part, 15, n_paths=0)

    def test_partition_dimension_must_match_state(self):
        # a 1-d partition on 2-d states would bin only the first coordinate
        part = Partition(lo=(-2.0,), hi=(2.0,), bins=(4,), k_max=2)
        with pytest.raises(ValueError):
            part.flat_index(np.zeros((3, 2)), np.ones(3, dtype=int))
        cfg = IntegratorConfig(step=0.25, horizon=4.0)
        with pytest.raises(ValueError, match="axes"):
            estimate_invariant(make_model(d=2), [HybridState(np.zeros(2), 1)], 1.0, 4.0,
                               cfg, part, 15, n_paths=8)

    def test_example52_short_self_consistency(self):
        spec = example52(1.0)
        part = Partition(lo=(-5.0, -5.0), hi=(5.0, 5.0), bins=(6, 6), k_max=6)
        cfg = IntegratorConfig(step=0.05, horizon=1.0, epsilon=0.2)
        rep = estimate_invariant(spec, [HybridState(np.zeros(2), 1),
                                        HybridState(np.array([1.0, -1.0]), 2)],
                                 5.0, 40.0, cfg, part, 16, n_paths=96)
        assert rep.max_pairwise_tv < 0.25  # loose band; the acceptance run is tighter


class TestGandF:
    def test_g_zero_closed_form(self):
        Gf = build_G(1.0, 1.0, lambda r: 0.0)
        rs = np.linspace(0, 1, 200)
        assert np.allclose(Gf(rs), rs - rs ** 2 / 2.0, atol=1e-7)
        assert Gf.alpha == 0.0 and Gf.alpha_boundary

    def test_g_invariants_power_law(self):
        Gf = build_G(8.0, 1.0, lambda r: r ** (-1.0 / 3.0))
        assert Gf.values[0] == 0.0
        d1 = np.diff(Gf.values)
        d2 = np.diff(d1)
        assert float(d1.min()) >= 0.0
        assert float(d2.max()) <= 0.0
        assert Gf.alpha > 0.0 and not Gf.alpha_boundary
        on = Gf.rs <= Gf.alpha
        assert np.all(Gf.rs[on] <= Gf.values[on] + 1e-12)

    def test_g_rejects_divergent_integrand(self):
        with pytest.raises(QuadratureError):
            build_G(1.0, 1.0, lambda r: 1.0 / r)

    def test_f_unit_integrand(self):
        Ff = build_F(lambda r: 0.0)
        rs = np.linspace(0.0, 50.0, 500)
        assert np.allclose(Ff(rs), rs / (1.0 + rs), atol=1e-12)

    def test_f_invariants_power_law(self):
        Ff = build_F(lambda r: r ** (-1.0 / 3.0))
        rs = np.linspace(0.0, 20.0, 2001)
        vals = Ff.tabulate_r(rs)
        cap = rs / (1.0 + rs)
        assert np.all(vals >= 0.0) and np.all(vals <= cap + 1e-12)
        d1 = np.diff(vals) / np.diff(rs)
        assert np.all(d1 >= -1e-15) and np.all(d1 <= 1.0 + 1e-12)
        assert np.max(np.diff(vals, 2)) <= 1e-10


class TestCoupledMomentDiagnostics:
    def test_cross_covariance_example51(self):
        rep = reflection_cross_covariance(example51(), np.array([0.5]), np.array([0.8]),
                                          1, 0.01, 100000, 1.0, 17)
        assert rep.max_z <= 4.0, rep.to_dict()

    def test_cross_covariance_example52(self):
        rep = reflection_cross_covariance(example52(1.0), np.array([0.5, -0.5]),
                                          np.array([0.7, -0.2]), 2, 0.01, 100000,
                                          1.0 / 16.0, 18)
        assert rep.max_z <= 4.0, rep.to_dict()

    def test_drift_pure_brownian_oracle(self):
        # mirror-coupled unit Brownian pair: the exact short-time drift of
        # G(|delta|) with G = r - r^2/2 is 2 G'' lambda = -2
        spec = make_model(sigma=diag_sigma(1.0), ellipticity_floor=1.0)
        Gf = build_G(1.0, 1.0, lambda r: 0.0)
        cfg = CouplingConfig(step=1e-3, horizon=1.0, kind="reflection", lambda_R=1.0,
                             ball_radius=10.0, delta0=1.0)
        rep = verify_coupling_drift(spec, Gf, [(np.array([0.0]), np.array([0.3]), 1)],
                                    1e-3, 200000, cfg, 19)
        assert rep.ok
        assert rep.estimates[0] == pytest.approx(-2.0, abs=5 * rep.stderrs[0] + 0.05)

    def test_drift_separation_bounds_enforced(self):
        spec = make_model(sigma=diag_sigma(1.0), ellipticity_floor=1.0)
        Gf = build_G(1.0, 1.0, lambda r: 0.0)
        cfg = CouplingConfig(step=1e-3, horizon=1.0, kind="reflection", lambda_R=1.0,
                             delta0=0.2)
        with pytest.raises(ValueError):
            verify_coupling_drift(spec, Gf, [(np.array([0.0]), np.array([0.5]), 1)],
                                  1e-3, 100, cfg, 20)


class TestTrend:
    def test_trend_logic(self):
        def res(e, s):
            return EstimatorResult(e, s, (e - 2 * s, e + 2 * s), 10)

        ok, _ = trend_ok([res(0.1, 0.001), res(0.05, 0.001), res(0.02, 0.001)], 0.05)
        assert ok
        ok, _ = trend_ok([res(0.1, 0.001), res(0.2, 0.001), res(0.02, 0.001)], 0.05)
        assert not ok
        ok, _ = trend_ok([res(0.1, 0.001), res(0.05, 0.001), res(0.08, 0.001)], 0.05)
        assert not ok
