import hashlib
from dataclasses import replace

import numpy as np
import pytest

from rsjd import (
    HybridState,
    IntegratorConfig,
    LyapunovCertificate,
    TestFunction,
    TruncationError,
    apply_generator,
    check_lyapunov,
    dynkin_check,
    example51,
    example52,
)
from rsjd import generator, simulate
from rsjd.cli import run
from rsjd.model import RateMatrixSpec

from test_simulate import make_model


def f_linear():
    return TestFunction(fn=lambda x, k: np.asarray(x, dtype=float)[..., 0],
                        grad=lambda x, k: np.array([1.0]),
                        hess=lambda x, k: np.zeros((1, 1)),
                        k_independent=True, label="x")


def f_square():
    return TestFunction(fn=lambda x, k: np.asarray(x, dtype=float)[..., 0] ** 2,
                        grad=lambda x, k: np.array([2.0 * float(np.asarray(x)[..., 0])]),
                        hess=lambda x, k: 2.0 * np.eye(1),
                        k_independent=True, label="x^2")


def f_gauss():
    return TestFunction(
        fn=lambda x, k: np.asarray(x, dtype=float)[..., 0]
        * np.exp(-np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)),
        bounded=True, bound=float(np.exp(-0.5) / np.sqrt(2.0)), label="x e^{-x^2}")


class TestApplyGenerator:
    def test_linear_function_drift_only(self):
        # the compensated jump integral of a linear function vanishes and the
        # regime-exchange term is skipped for k-independent f
        spec = example51()
        for x, k in ((2.0, 3), (-1.0, 1), (0.25, 2)):
            gv = apply_generator(spec, f_linear(), np.array([x]), k)
            assert gv.value == pytest.approx(-x / (2.0 * k ** 2), abs=1e-9 + gv.bracket)

    def test_square_function_local_part(self):
        # closed form: -x^2/k^2 + (|x|^{2/3}+1)^2 + x^2/k^2
        spec = example51()
        for x, k in ((2.0, 1), (-0.8, 4)):
            gv = apply_generator(spec, f_square(), np.array([x]), k)
            expected = (np.cbrt(x) ** 2 + 1.0) ** 2
            assert gv.value == pytest.approx(expected, abs=1e-6 + gv.bracket)

    def test_constant_is_zero(self):
        spec = example51()
        const = TestFunction(fn=lambda x, k: np.ones(np.shape(np.asarray(x)[..., 0])),
                             grad=lambda x, k: np.zeros(1),
                             hess=lambda x, k: np.zeros((1, 1)),
                             bounded=True, bound=1.0)
        gv = apply_generator(spec, const, np.array([1.3]), 2)
        assert gv.value == 0.0

    def test_linearity(self):
        spec = example51()
        x, k = np.array([0.7]), 2
        f, g = f_gauss(), f_linear()
        a, b = 1.7, -0.4

        combo = TestFunction(
            fn=lambda xx, kk: a * f.fn(xx, kk) + b * g.fn(xx, kk),
            regime_tail=lambda xx, kk, L: 2.0 * abs(a) * f.bound
            * example51().rates.tail_bound(kk, L))
        vc = apply_generator(spec, combo, x, k)
        vf = apply_generator(spec, f, x, k)
        vg = apply_generator(spec, g, x, k)
        assert vc.value == pytest.approx(a * vf.value + b * vg.value,
                                         abs=1e-7 + vc.bracket + abs(a) * vf.bracket)

    def test_k_independent_flag_matches_zero_tail(self):
        spec = example51()
        f1 = f_square()
        f2 = TestFunction(fn=f1.fn, grad=f1.grad, hess=f1.hess,
                          regime_tail=lambda x, k, L: 0.0)
        x, k = np.array([1.1]), 3
        v1 = apply_generator(spec, f1, x, k)
        v2 = apply_generator(spec, f2, x, k)
        assert v1.value == pytest.approx(v2.value, rel=1e-12)

    def test_bracket_positive_with_curvature(self):
        spec = example51()
        gv = apply_generator(spec, f_square(), np.array([1.0]), 1)
        assert gv.bracket > 0.0

    def test_unbounded_without_tail_rejected(self):
        spec = example51()
        bad = TestFunction(fn=lambda x, k: np.asarray(k, dtype=float))
        with pytest.raises(ValueError):
            apply_generator(spec, bad, np.array([0.0]), 1)

    def test_missing_tail_bound_rejected(self):
        rates = RateMatrixSpec(rate=lambda x, k, l: np.ones(np.shape(l)), tail_bound=None)
        spec = make_model(rates=rates)
        with pytest.raises(TruncationError):
            apply_generator(spec, f_gauss(), np.array([0.0]), 1)

    def test_fd_fallback_matches_analytic(self):
        spec = example51()
        fd = TestFunction(fn=f_gauss().fn, bounded=True, bound=f_gauss().bound)
        v_fd = apply_generator(spec, fd, np.array([0.4]), 1)
        v_an = apply_generator(
            spec,
            TestFunction(
                fn=fd.fn,
                grad=lambda x, k: np.array([
                    (1.0 - 2.0 * float(np.asarray(x)[..., 0]) ** 2)
                    * np.exp(-float(np.asarray(x)[..., 0]) ** 2)]),
                bounded=True, bound=fd.bound),
            np.array([0.4]), 1)
        assert v_fd.value == pytest.approx(v_an.value, abs=1e-5)


class TestDerivativeChecks:
    def test_analytic_vs_fd(self):
        V = example52().default_lyapunov
        pts = [HybridState(np.array([0.3, -1.2]), 2), HybridState(np.array([2.0, 1.0]), 5)]
        assert V.check_derivatives(pts) <= 1e-5

    def test_bounded_requires_bound(self):
        with pytest.raises(ValueError):
            TestFunction(fn=lambda x, k: 0.0, bounded=True)

    def test_bound_requires_bounded(self):
        # the estimators read bound while the generator reads bounded, so a
        # bound alone made the two disagree on whether f is bounded
        with pytest.raises(ValueError, match="bound needs bounded=True"):
            TestFunction(fn=lambda x, k: 0.0, bound=1.0)


class TestLyapunov:
    def test_zero_model_any_beta(self):
        spec = make_model(d=1)
        V = TestFunction(fn=lambda x, k: np.sum(np.asarray(x, dtype=float) ** 2, axis=-1) + 1.0,
                         grad=lambda x, k: 2.0 * np.asarray(x, dtype=float),
                         hess=lambda x, k: 2.0 * np.eye(1),
                         regime_tail=lambda x, k, L: 0.0)
        cert = LyapunovCertificate(V=V, alpha=0.0, beta=1e-3,
                                   rate_fn=lambda x, k: 1.0)
        xs = np.linspace(-2, 2, 9)[:, None]
        rep = check_lyapunov(spec, cert, xs, np.ones(9, dtype=int))
        assert rep.ok and rep.max_margin <= 0.0

    @pytest.mark.parametrize("field", ["alpha", "beta", "tol"])
    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_constants_must_be_finite(self, field, bad):
        # an infinite tol or beta made every margin pass, and NaN none
        spec = example52(1.0)
        consts = {"alpha": 1.0 / 6.0, "beta": 2.5, "tol": 1e-6, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            cert = LyapunovCertificate(V=spec.default_lyapunov, alpha=consts["alpha"],
                                       beta=consts["beta"])
            check_lyapunov(spec, cert, np.zeros((1, 2)), np.ones(1, dtype=int),
                           tol=consts["tol"])

    def test_example52_small_grid(self):
        spec = example52(1.0)
        cert = LyapunovCertificate(V=spec.default_lyapunov, alpha=1.0 / 6.0, beta=2.5)
        pts = np.array([[x, y] for x in (-4.0, 0.0, 3.0) for y in (-2.0, 1.0)])
        xs = np.repeat(pts, 4, axis=0)
        ks = np.tile(np.array([1, 2, 7, 20]), len(pts))
        rep = check_lyapunov(spec, cert, xs, ks, tol=1e-6)
        assert rep.ok, rep.summary()
        assert rep.max_margin < 0.0

    def test_example51_diagnostic_runs(self):
        # V = x^2 + k on the 1-d model: no claim, just a finite margin report
        spec = example51()

        def tail(x, k, L):
            t3 = 3.0 ** -L
            return (k * 3.0 ** -k) * (t3 * (L / 2.0 + 0.75) + k * t3 / 2.0)

        V = TestFunction(fn=lambda x, k: np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
                         + np.asarray(k, dtype=float),
                         grad=lambda x, k: 2.0 * np.asarray(x, dtype=float),
                         hess=lambda x, k: 2.0 * np.eye(1),
                         regime_tail=tail)
        cert = LyapunovCertificate(V=V, alpha=0.1, beta=5.0)
        xs = np.linspace(-3, 3, 7)[:, None]
        rep = check_lyapunov(spec, cert, xs, np.full(7, 2, dtype=int))
        assert np.all(np.isfinite(rep.margins))

    def test_failures_collected_per_point(self):
        spec = example51()
        bad_V = TestFunction(fn=lambda x, k: float("nan") * np.ones(np.shape(np.asarray(x)[..., 0])),
                             regime_tail=lambda x, k, L: 0.0)
        cert = LyapunovCertificate(V=bad_V, alpha=0.1, beta=1.0,
                                   rate_fn=lambda x, k: 1.0)
        rep = check_lyapunov(spec, cert, np.zeros((2, 1)), np.array([1, 2]))
        assert len(rep.failures) == 2 and not rep.ok


    def test_failing_point_fails_alone(self):
        # V is NaN beyond |x| = 3.5, which the jumps from (3.4, 0) reach but
        # those from the other points do not: only that point's mark
        # integral fails, and its block-mates keep their values
        spec = example52(1.0)
        V0 = spec.default_lyapunov

        def fn(x, k):
            x = np.asarray(x, dtype=float)
            return np.where(np.linalg.norm(x, axis=-1) > 3.5, np.nan, V0.fn(x, k))

        cert = LyapunovCertificate(V=replace(V0, fn=fn), alpha=1.0 / 6.0, beta=2.5)
        xs = np.array([[0.0, 0.0], [1.0, 1.0], [3.4, 0.0], [-1.0, 0.5]])
        ks = np.array([1, 2, 1, 3])
        rep = check_lyapunov(spec, cert, xs, ks)
        assert len(rep.failures) == 1 and rep.failures[0].startswith("([3.4, 0.0], 1)")
        assert "did not converge" in rep.failures[0]
        assert np.isnan(rep.values[2]) and np.isnan(rep.margins[2])
        for i in (0, 1, 3):
            gv = apply_generator(spec, V0, xs[i], int(ks[i]))
            assert rep.values[i] == pytest.approx(gv.value, rel=1e-12, abs=1e-12)
            assert rep.brackets[i] == pytest.approx(gv.bracket, rel=1e-6, abs=1e-15)
            assert np.isfinite(rep.margins[i])


class TestBroadcastingDeclaration:
    """example52's V declares that its derivatives and regime tail broadcast,
    so the generator and the Lyapunov check evaluate whole blocks at once;
    with the declaration turned off they go point by point."""

    def test_declared_matches_pointwise(self):
        spec = example52(1.0)
        V0 = spec.default_lyapunov
        assert V0.broadcasting

        def fn(x, k):
            # NaN beyond |x| = 3.5: (3.4, 0) fails in its mark integral and
            # (4, 0) in the preconditions
            x = np.asarray(x, dtype=float)
            return np.where(np.linalg.norm(x, axis=-1) > 3.5, np.nan, V0.fn(x, k))

        def rate_fn(x, k):
            # V - 1, which is below 1 near the origin in regime 1
            return V0.fn(x, k) - 1.0

        axes = np.meshgrid(np.linspace(-1.5, 1.5, 5), np.linspace(-1.5, 1.5, 5), indexing="ij")
        pts = np.concatenate([np.stack([a.ravel() for a in axes], axis=-1),
                              [[3.4, 0.0], [4.0, 0.0], [0.5, -0.5]]])
        xs = np.repeat(pts, 3, axis=0)
        ks = np.tile(np.array([1, 2, 5]), len(pts))
        reports = []
        for broadcasting in (True, False):
            V = replace(V0, fn=fn, broadcasting=broadcasting)
            cert = LyapunovCertificate(V=V, alpha=1.0 / 6.0, beta=2.5, rate_fn=rate_fn,
                                       box=((-1.0, -2.0), (2.0, 1.0)), regimes=(1, 2))
            reports.append(check_lyapunov(spec, cert, xs, ks))
        declared, pointwise = reports
        for name in ("values", "margins", "brackets"):
            assert getattr(declared, name).tobytes() == getattr(pointwise, name).tobytes(), name
        assert declared.failures == pointwise.failures
        # every kind of failure is present: a precondition with rate < 1, one
        # with V not finite, and a mark integral that does not converge
        assert any("([0.0, 0.0], 1): certificate preconditions violated: V=1.0, rate=0.0"
                   == msg for msg in declared.failures)
        assert any(msg.startswith("([4.0, 0.0], 1): certificate preconditions violated: V=nan")
                   for msg in declared.failures)
        assert any(msg.startswith("([3.4, 0.0], 1)") and "did not converge" in msg
                   for msg in declared.failures)
        assert np.isfinite(declared.margins).sum() > 60

    def test_wrong_shape_raises(self):
        # a declared derivative of the wrong shape would broadcast silently
        # in the generator's sums
        spec = example52(1.0)
        V0 = spec.default_lyapunov
        x = np.array([1.0, 0.5])
        for field, pointwise in (("grad", lambda x, k: 2.0 * np.ones(2)),
                                 ("hess", lambda x, k: 2.0 * np.eye(2)),
                                 ("regime_tail", lambda x, k, L: 3.0 ** -L)):
            bad = replace(V0, **{field: pointwise})
            with pytest.raises(ValueError, match="declared to broadcast returned shape"):
                apply_generator(spec, bad, x, 1)
            # the same callable is fine without the declaration
            gv = apply_generator(spec, replace(bad, broadcasting=False), x, 1)
            assert np.isfinite(gv.value)

    def test_cli_payload_digests(self, tmp_path):
        # the benchmark's lyapunov arguments; both digests were recorded
        # while every point was still evaluated on its own
        assert run(["lyapunov", "--model", "example52:1.0", "--grid=-5:5:9", "--kmax", "10",
                    "--seed", "1000", "--outdir", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("lyapunov.json", "lyapunov.csv")}
        assert digests == {
            "lyapunov.json": "5c4df7826d6d0fb95722f43ac5657c2d5b698f4cd5d57dc91c7144a9a65ba0c4",
            "lyapunov.csv": "741c3fb1cb2729a08d476e55a739d0e856cd97f95e2b8801fbc9d1ce7ae696d0",
        }


class TestDynkin:
    def test_zero_model_exact(self):
        spec = make_model(d=1)
        res = dynkin_check(spec, f_gauss(), np.array([0.5]), 1, 2.0 ** -6, 2000,
                           IntegratorConfig(step=2.0 ** -9, horizon=1.0), 3)
        assert res.lhs == pytest.approx(0.0, abs=1e-12)
        assert res.rhs == pytest.approx(0.0, abs=1e-12)
        assert res.z_score <= 1e-9

    def test_example51_smooth_function(self):
        spec = example51()
        cfg = IntegratorConfig(step=2.0 ** -14, horizon=1.0, epsilon=0.02)
        res = dynkin_check(spec, f_gauss(), np.array([0.5]), 1, 2.0 ** -8, 50000,
                           cfg, 7)
        assert res.z_score <= 4.0, res

    def test_pure_switching_rate_identity(self):
        # b = sigma = c = 0 with the 1-d built-in's rates: the short-time slope
        # of P{K_t = 2} from k=1 is q_12(x)
        spec = make_model(rates=example51().rates)
        x = np.array([0.3])
        f = TestFunction(fn=lambda xx, kk: (np.asarray(kk) == 2).astype(float),
                         bounded=True, bound=1.0)
        rhs_oracle = float(example51().rates.rate(x, 1, np.array([2]))[0])
        cfg = IntegratorConfig(step=2.0 ** -12, horizon=1.0)
        res = dynkin_check(spec, f, x, 1, 2.0 ** -6, 200000, cfg, 11)
        assert res.rhs == pytest.approx(rhs_oracle, abs=1e-8)
        assert res.z_score <= 4.0, res

    def test_one_path_is_an_input_error(self, monkeypatch):
        # one path gave a NaN stderr, two RuntimeWarnings and z=nan (FAIL)
        def never(*args, **kwargs):
            raise AssertionError("evaluated before checking n_paths")

        monkeypatch.setattr(generator, "apply_generator", never)
        monkeypatch.setattr(simulate, "simulate_ensemble", never)
        cfg = IntegratorConfig(step=1e-3, horizon=1.0)
        for n in (1, 0):
            with pytest.raises(ValueError, match="at least two paths"):
                dynkin_check(example51(), f_gauss(), np.array([0.5]), 1, 4e-3, n, cfg, 3)
