from dataclasses import replace

import numpy as np
import pytest

from rsjd import (
    CouplingConfig,
    EllipticityError,
    HybridState,
    couple,
    couple_ensemble,
    example51,
    example52,
    marginal_vs_independent,
    sqrt_psd,
)
from rsjd.coupling import pair_one_step
from rsjd.simulate import derive_rng

from test_simulate import const_rate_matrix, diag_sigma, make_model

ONE_STEP_REFLECTION = CouplingConfig(step=1e-3, horizon=1e-3, kind="reflection", lambda_R=1.0)


class TestSqrtPsd:
    def test_identity(self):
        assert np.array_equal(sqrt_psd(np.eye(3)), np.eye(3))

    def test_random_psd_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            m = rng.normal(size=(d, d))
            a = m @ m.T
            s = sqrt_psd(a)
            assert np.allclose(s, s.T)
            assert np.max(np.abs(s @ s - a)) <= 1e-8 * (1.0 + np.max(np.abs(a)))

    def test_example51_sigma_lambda(self):
        # the residual diffusion after removing the floor 1 is
        # sqrt(|x|^{4/3} + 2|x|^{2/3}) in one dimension
        spec = example51()
        for x in (0.5, 8.0, -2.0):
            a = np.asarray(spec.sigma(np.array([x]), 1), dtype=float)
            a = a @ a.T
            s = sqrt_psd(a - np.eye(1))
            expected = np.sqrt(np.cbrt(x) ** 4 + 2.0 * np.cbrt(x) ** 2)
            assert s[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_clamping_window(self):
        s = sqrt_psd(np.array([[-1e-7]]))
        assert s[0, 0] == 0.0

    def test_violation_raises(self):
        with pytest.raises(EllipticityError):
            sqrt_psd(np.array([[-1e-3]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            sqrt_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestReflectionAlgebra:
    def test_reflection_matrix_involution(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            u = rng.normal(size=d)
            u /= np.linalg.norm(u)
            P = np.eye(d) - 2.0 * np.outer(u, u)
            assert np.allclose(P, P.T, atol=1e-15)
            assert np.allclose(P @ P, np.eye(d), atol=1e-14)

    def test_engine_applies_mirror_in_1d(self):
        # pure Brownian model with floor 1: s_lam = 0, so the second increment
        # must be exactly the negative of the first (modulo the zero drift)
        spec = make_model(sigma=diag_sigma(1.0), ellipticity_floor=1.0)
        rng = derive_rng(0, 0, 0)
        dX, dXt = pair_one_step(spec, np.array([0.0]), np.array([0.5]), 1, 500,
                                ONE_STEP_REFLECTION, rng, with_jumps=False)
        assert np.allclose(dXt, -dX, atol=1e-15)

    def test_engine_reflects_across_hyperplane_2d(self):
        spec = make_model(d=2, sigma=diag_sigma(1.0), ellipticity_floor=1.0)
        x, xt = np.zeros(2), np.array([0.3, 0.4])
        u = (xt - x) / np.linalg.norm(xt - x)
        P = np.eye(2) - 2.0 * np.outer(u, u)
        rng = derive_rng(1, 0, 0)
        dX, dXt = pair_one_step(spec, x, xt, 1, 500, ONE_STEP_REFLECTION, rng,
                                with_jumps=False)
        assert np.allclose(dXt, dX @ P.T, atol=1e-14)


class TestPairOneStep:
    X, XT = np.array([0.5, -0.25]), np.array([-0.75, 1.0])

    def _step(self, spec, n=200, seed=5, **cfg_kw):
        cfg = CouplingConfig(step=0.01, horizon=0.01, **cfg_kw)
        return pair_one_step(spec, self.X, self.XT, 1, n, cfg, derive_rng(seed, 0, 0))

    @pytest.mark.parametrize("kind", ["basic", "reflection"])
    def test_fallback_compensator_matches_closed_form(self, kind):
        closed = self._step(example52(), kind=kind)
        fallback = self._step(replace(example52(), jump_compensator=None), kind=kind)
        for a, b in zip(closed, fallback):
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_cutoff_outside_mark_domain_rejected(self):
        with pytest.raises(ValueError, match="jump cutoff outside the mark domain"):
            self._step(example52(), epsilon=5.0)

    def test_lambda_above_floor_rejected(self):
        # example52 declares the floor 1/16; a - 0.1 I is still PSD at both
        # probe states, so only the declared floor can reject 0.1
        with pytest.raises(ValueError, match="exceeds the model's declared ellipticity floor"):
            self._step(example52(), kind="reflection", lambda_R=0.1)

    @pytest.mark.parametrize("lam", [-1.0, 0.0, float("nan"), float("inf")])
    def test_lambda_not_positive_finite_rejected(self, lam):
        with pytest.raises(ValueError, match="lambda_R must be positive and finite"):
            self._step(example51(), kind="reflection", lambda_R=lam)

    @pytest.mark.parametrize("floor", [0.0, float("nan")])
    def test_model_floor_not_positive_finite_rejected(self, floor):
        # with no lambda_R the declared floor is used; the model constructor
        # rejects a bad floor before any coupling can take it
        with pytest.raises(ValueError, match="ellipticity_floor must be positive and finite"):
            make_model(sigma=diag_sigma(1.0), ellipticity_floor=floor)

    @pytest.mark.parametrize("kind", ["basic", "reflection"])
    def test_gaussian_policy_adds_small_jump_covariance(self, kind):
        # the same stream drives both runs, so the difference is exactly the
        # gaussian substitute sqrt(h) root(cov) zg on each side
        spec = example52()
        n = 20000
        drop = self._step(spec, n=n, kind=kind)
        gauss = self._step(spec, n=n, kind=kind, small_jump_policy="gaussian")
        for x, a, b in zip((self.X, self.XT), drop, gauss):
            cov = np.asarray(spec.small_jump_cov(x[None, :], np.array([1]), 0.1))[0] * 0.01
            emp = np.cov((b - a).T)
            assert np.allclose(emp, cov, rtol=0.05, atol=1e-3 * np.max(np.abs(cov)))


class TestBasicCoupling:
    def test_identical_starts_stay_glued(self):
        spec = example51()
        cfg = CouplingConfig(step=1.0 / 64, horizon=1.0, kind="basic")
        rec = couple(spec, HybridState(np.array([0.4]), 1),
                     HybridState(np.array([0.4]), 1), cfg, 3)
        assert np.all(rec.delta == 0.0)
        assert rec.marks["zeta"] == np.inf
        assert rec.marks["T"] == 0.0

    def test_x_independent_rates_never_split(self):
        # equal rate rows make the one-sided residuals vanish identically
        spec = make_model(sigma=diag_sigma(1.0), rates=const_rate_matrix(scale=3.0))
        cfg = CouplingConfig(step=1.0 / 64, horizon=2.0, kind="basic")
        ens = couple_ensemble(spec, HybridState(np.array([0.0]), 1),
                              HybridState(np.array([0.8]), 1), cfg, 3000, 5)
        assert np.all(np.isinf(ens.zeta))
        assert np.any(ens.k > 1)  # switches do happen, just jointly

    def test_mismatched_regimes_rejected(self):
        spec = example51()
        cfg = CouplingConfig(step=0.25, horizon=0.5)
        with pytest.raises(ValueError):
            couple(spec, HybridState(np.array([0.0]), 1),
                   HybridState(np.array([0.1]), 2), cfg, 0)

    def test_zeta_localized_probability_shrinks(self):
        spec = example51()
        cfg = CouplingConfig(step=1.0 / 64, horizon=1.0, kind="basic",
                             ball_radius=50.0, delta0=1.0)
        probs = []
        for sep in (0.4, 0.1, 0.025):
            ens = couple_ensemble(spec, HybridState(np.array([0.0]), 1),
                                  HybridState(np.array([sep]), 1), cfg, 4096, 7)
            cap = np.minimum(1.0, np.minimum(ens.tau_r, ens.s_delta0))
            probs.append(float(np.mean(ens.zeta <= cap)))
        assert probs[0] >= probs[-1]
        assert probs[-1] <= 0.01

    def test_record_invariants(self):
        spec = example51()
        cfg = CouplingConfig(step=1.0 / 32, horizon=2.0, kind="basic")
        rec = couple(spec, HybridState(np.array([0.0]), 1),
                     HybridState(np.array([0.5]), 1), cfg, 11)
        k1, k2 = rec.first.ks, rec.second.ks
        disagree = np.nonzero(k1 != k2)[0]
        if disagree.size:
            assert rec.marks["zeta"] == pytest.approx(rec.times[disagree[0]])
        else:
            assert rec.marks["zeta"] == np.inf
        assert np.allclose(rec.delta, np.abs(rec.first.xs[:, 0] - rec.second.xs[:, 0]))


class TestReflectionCoupling:
    def test_same_start_coalesces_at_zero(self):
        spec = example51()
        cfg = CouplingConfig(step=1.0 / 64, horizon=0.5, kind="reflection", lambda_R=1.0)
        rec = couple(spec, HybridState(np.array([0.2]), 1),
                     HybridState(np.array([0.2]), 1), cfg, 1)
        assert rec.marks["T"] == 0.0 and rec.coalesced

    def test_identical_after_coalescence(self):
        spec = example51()
        cfg = CouplingConfig(step=1.0 / 128, horizon=1.0, kind="reflection", lambda_R=1.0)
        ens = couple_ensemble(spec, HybridState(np.array([0.0]), 1),
                              HybridState(np.array([0.2]), 1), cfg, 2000, 13)
        co = ens.coalesced
        assert co.mean() > 0.8
        assert np.array_equal(ens.x[co], ens.xt[co])
        assert np.array_equal(ens.k[co], ens.kt[co])

    def test_meeting_probability_monotone_in_separation(self):
        spec = example51()
        cfg = CouplingConfig(step=1.0 / 128, horizon=1.0, kind="reflection", lambda_R=1.0)
        p_no_meet = []
        for sep in (0.2, 0.1, 0.05, 0.025):
            ens = couple_ensemble(spec, HybridState(np.array([0.0]), 1),
                                  HybridState(np.array([sep]), 1), cfg, 4096, 17)
            p_no_meet.append(float(np.mean(~(ens.t_meet <= 1.0))))
        assert all(p_no_meet[i + 1] <= p_no_meet[i] + 0.01 for i in range(3))
        assert p_no_meet[-1] <= 0.05

    def test_lambda_above_floor_rejected(self):
        spec = example51()
        cfg = CouplingConfig(step=0.25, horizon=0.5, kind="reflection", lambda_R=2.0)
        with pytest.raises(ValueError):
            couple(spec, HybridState(np.array([0.0]), 1),
                   HybridState(np.array([0.1]), 1), cfg, 0)

    def test_csv_and_marks_sidecar(self, tmp_path):
        spec = example51()
        cfg = CouplingConfig(step=1.0 / 32, horizon=0.25, kind="reflection", lambda_R=1.0)
        rec = couple(spec, HybridState(np.array([0.0]), 1),
                     HybridState(np.array([0.1]), 1), cfg, 2)
        rec.to_csv(tmp_path / "c.csv")
        header = (tmp_path / "c.csv").read_text().split("\n")[0]
        assert header == "t,x1,xt1,k,kt,abs_delta"
        marks = rec.marks_dict()
        assert set(marks) >= {"tau_R", "S_delta0", "zeta", "T", "T_tilde", "coalesced"}


class TestMarginalCorrectness:
    @pytest.mark.parametrize("kind", ["basic", "reflection"])
    def test_marginals_match_independent_runs(self, kind):
        spec = example51()
        cfg = CouplingConfig(step=1.0 / 128, horizon=1.0, kind=kind,
                             lambda_R=1.0 if kind == "reflection" else None)
        pvals = marginal_vs_independent(spec, HybridState(np.array([0.0]), 1),
                                        HybridState(np.array([0.3]), 1), 1.0, 8000,
                                        cfg, 21)
        # 4 tests at the 5% level with Bonferroni correction
        assert all(p >= 0.05 / 4 for p in pvals.values()), pvals


class TestEnsembleValidation:
    def test_cutoff_outside_mark_domain_rejected(self):
        spec = example51()
        cfg = CouplingConfig(step=0.25, horizon=0.5, epsilon=1.5)
        with pytest.raises(ValueError, match="jump cutoff outside the mark domain"):
            couple_ensemble(spec, HybridState(np.array([0.0]), 1),
                            HybridState(np.array([0.1]), 1), cfg, 8, 0)

    @pytest.mark.parametrize("bad_rate", [float("nan"), float("inf"), -1.0])
    def test_bad_large_jump_rate_rejected(self, bad_rate):
        base = example51()
        spec = replace(base, jump_measure=replace(base.jump_measure,
                                                  large_jump_rate=lambda eps: bad_rate))
        cfg = CouplingConfig(step=0.25, horizon=0.5)
        with pytest.raises(ValueError, match="large-jump rate must be finite and nonnegative"):
            couple_ensemble(spec, HybridState(np.array([0.0]), 1),
                            HybridState(np.array([0.1]), 1), cfg, 8, 0)

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_empty_ensemble_rejected(self, n_pairs):
        cfg = CouplingConfig(step=0.25, horizon=0.5)
        with pytest.raises(ValueError, match="at least one pair"):
            couple_ensemble(example51(), HybridState(np.array([0.0]), 1),
                            HybridState(np.array([0.1]), 1), cfg, n_pairs, 0)
