from dataclasses import replace

import numpy as np
import pytest

from rsjd import (
    HybridState,
    ModelSpec,
    RateMatrixSpec,
    TruncationError,
    example51,
    example52,
    q_row_truncated,
    validate_model,
)
from rsjd.model import RowTruncator


def geometric_tail(ratio, start):
    # sum_{l >= start} ratio^l
    return ratio ** start / (1.0 - ratio)


def zero_rates():
    def rate(x, k, l):
        shape = np.broadcast(np.asarray(x)[..., 0], np.asarray(k), np.asarray(l)).shape
        return np.zeros(shape)

    return RateMatrixSpec(rate=rate, tail_bound=lambda k, L: 0.0)


def zero_model(d=1):
    return ModelSpec(
        d=d,
        drift=lambda x, k: np.zeros_like(np.asarray(x, dtype=float)),
        sigma=lambda x, k: np.zeros(np.asarray(x, dtype=float).shape + (d,)),
        rates=zero_rates(),
        name="zero",
    )


class TestHybridState:
    def test_basic(self):
        s = HybridState(np.array([1.0, 2.0]), 3)
        assert s.d == 2 and s.k == 3

    def test_regime_positive(self):
        with pytest.raises(ValueError):
            HybridState(np.array([0.0]), 0)

    def test_finite(self):
        with pytest.raises(ValueError):
            HybridState(np.array([np.inf]), 1)


class TestRowTruncation:
    def test_example51_row_sum_origin(self):
        # independent oracle: q_1l(0) = 3^-(1+l), so the row sum is
        # (1/3) * sum_{l>=2} 3^-l = (1/3) * (1/6) = 1/18
        expected = geometric_tail(1.0 / 3.0, 2) / 3.0
        partial, tail = q_row_truncated(example51().rates, np.array([0.0]), 1, 1e-12)
        total = sum(v for _, v in partial) + tail
        assert total == pytest.approx(expected, rel=1e-10)
        assert expected == pytest.approx(1.0 / 18.0)

    def test_example52_row_sum_origin(self):
        # (3/2) * sum_{l>=2} 3^-l = 1/4
        partial, tail = q_row_truncated(example52().rates, np.zeros(2), 1, 1e-12)
        assert sum(v for _, v in partial) + tail == pytest.approx(0.25, rel=1e-10)

    def test_zero_rates_empty(self):
        partial, tail = q_row_truncated(zero_rates(), np.array([0.0]), 1, 1e-10)
        assert partial == [] and tail == 0.0

    def test_certificate(self):
        partial, tail = q_row_truncated(example51().rates, np.array([2.0]), 3, 1e-8)
        s = sum(v for _, v in partial)
        assert tail <= 1e-8 * (s + tail)

    def test_partial_sums_monotone_and_bounded(self):
        rates = example51().rates
        x = np.array([1.5])
        partial, tail = q_row_truncated(rates, x, 2, 1e-12)
        csum = np.cumsum([v for _, v in partial])
        assert np.all(np.diff(csum) >= 0)
        total = csum[-1] + tail
        for cut in range(1, len(csum)):
            assert csum[cut] <= total + 1e-15

    def test_missing_tail_bound(self):
        bad = RateMatrixSpec(rate=lambda x, k, l: np.ones(np.shape(l)), tail_bound=None)
        with pytest.raises(TruncationError):
            q_row_truncated(bad, np.array([0.0]), 1, 1e-6)

    def test_batched_rows_match_pointwise(self):
        # reference built entry by entry from the model's own rate function
        rates = example51().rates
        trunc = RowTruncator(rates, 1e-10)
        xs = np.array([[0.0], [1.0], [-2.0]])
        ks = np.array([1, 2, 5])
        rows, ls = trunc.rows(xs, ks)
        for i in range(3):
            dense = np.array([0.0 if l == ks[i] else float(rates.rate(xs[i], int(ks[i]), int(l)))
                              for l in ls])
            assert np.allclose(rows[i], dense, rtol=1e-12, atol=1e-300)
            tail = rates.tail_bound(int(ks[i]), len(ls))
            assert tail <= 1e-10 * (dense.sum() + tail)


class TestDeclaredConstants:
    """The declared model constants are checked when the spec is built; a
    NaN floor used to reach ``validate_model`` as a failed check."""

    @pytest.mark.parametrize("field, bad", [
        ("ellipticity_floor", float("nan")), ("ellipticity_floor", -1.0),
        ("ellipticity_floor", 0.0), ("ellipticity_floor", float("inf")),
        ("growth_constant", float("nan")), ("growth_constant", float("inf")),
        ("growth_constant", -1.0),
    ])
    def test_model_constants(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            replace(example51(), **{field: bad})

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, 0.0, float("inf")])
    def test_kappa0(self, bad):
        with pytest.raises(ValueError, match="kappa0 must be positive and finite"):
            replace(example51().rates, kappa0=bad)

    def test_none_means_undeclared(self):
        spec = replace(example51(), ellipticity_floor=None, growth_constant=None,
                       rates=replace(example51().rates, kappa0=None))
        assert spec.ellipticity_floor is None and spec.rates.kappa0 is None

    @pytest.mark.parametrize("radius_max", [float("inf"), float("nan"), 0.05, 0.01])
    def test_radius_max(self, radius_max):
        # +inf used to pass here and fail only later, in quadrature.integrate
        with pytest.raises(ValueError, match="small-jump cutoff must lie inside the bounded"):
            replace(example51().jump_measure, radius_max=radius_max)


class TestValidateModel:
    def probes(self, spec, lo=-10.0, hi=10.0, n=9, kmax=8):
        xs = np.linspace(lo, hi, n)
        if spec.d == 1:
            pts = [(np.array([v]), k) for v in xs for k in range(1, kmax + 1)]
        else:
            pts = [(np.array([v, w]), k)
                   for v in xs for w in xs[::2] for k in range(1, kmax + 1)]
        return np.stack([x for x, _ in pts]), np.array([k for _, k in pts])

    def test_example51_passes(self):
        spec = example51()
        rep = validate_model(spec, *self.probes(spec), quad_crosscheck=2)
        assert rep.passed, rep.summary()

    def test_example51_ellipticity_at_least_one(self):
        # a(x,k) = (|x|^{2/3}+1)^2 >= 1 everywhere, floor declared as 1
        spec = example51()
        rep = validate_model(spec, *self.probes(spec))
        check = {c.name: c for c in rep.checks}["ellipticity-floor"]
        assert check.margin <= 1e-10

    def test_example51_growth_kappa4(self):
        spec = example51()
        rep = validate_model(spec, *self.probes(spec))
        check = {c.name: c for c in rep.checks}["growth-diffusion-jump"]
        assert check.passed and check.margin <= 0.0

    def test_zero_model_growth_trivial(self):
        spec = ModelSpec(
            d=1,
            drift=zero_model().drift,
            sigma=zero_model().sigma,
            rates=zero_rates(),
            growth_constant=1e-6,
        )
        rep = validate_model(spec, *self.probes(spec, kmax=2))
        assert rep.passed

    def test_example52_passes(self):
        spec = example52(1.0)
        rep = validate_model(spec, *self.probes(spec, lo=-5, hi=5, n=5, kmax=5),
                             quad_crosscheck=2)
        assert rep.passed, rep.summary()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            validate_model(example51(), np.zeros((1, 2)), [1])

    @pytest.mark.parametrize("xs, ks", [
        ([[np.nan]], [1]), ([[np.inf]], [1]), ([[0.0]], [0]), (np.zeros((0, 1)), []),
        ([[0.0], [1.0]], [1]), ([0.0], [1]),
    ])
    def test_bad_probes_rejected(self, xs, ks):
        with pytest.raises(ValueError):
            validate_model(example51(), xs, ks)

    def test_nonfinite_coefficient_reported(self):
        spec = ModelSpec(
            d=1,
            drift=lambda x, k: np.where(np.asarray(x) > 5, np.inf, 0.0),
            sigma=zero_model().sigma,
            rates=zero_rates(),
        )
        rep = validate_model(spec, np.array([[10.0]]), [1])
        assert not rep.passed

    def test_pure(self):
        spec = example51()
        probes = self.probes(spec, n=5, kmax=3)
        a = validate_model(spec, *probes).to_dict()
        b = validate_model(spec, *probes).to_dict()
        assert a == b

    def test_batched_checks_match_pointwise(self):
        # each coefficient is evaluated once over all probes; the margins and
        # worst points must be those of a per-point loop, bit for bit (the
        # coefficients are elementwise, so a batched call returns the numbers
        # that per-point calls do)
        d = 3
        m = np.random.default_rng(3).normal(size=(d, d))

        def drift(x, k):
            x = np.asarray(x, dtype=float)
            return 3.0 * np.sin(x[..., ::-1]) - x / (1.0 + np.asarray(k, dtype=float)[..., None])

        def sigma(x, k):
            x = np.asarray(x, dtype=float)
            return np.eye(d) * 2.0 + np.cos(x)[..., :, None] * m

        spec = ModelSpec(d=d, drift=drift, sigma=sigma, rates=zero_rates(),
                         ellipticity_floor=0.01, growth_constant=9.0)
        rng = np.random.default_rng(4)
        probes = [HybridState(rng.normal(size=d) * 3.0, int(rng.integers(1, 5)))
                  for _ in range(160)]
        raw_dirs = list(rng.normal(size=(2, d)))
        dirs = [v / np.linalg.norm(v) for v in raw_dirs]  # as validate_model scales them
        sigs = np.stack([sigma(p.x, p.k) for p in probes])
        a = np.einsum("nij,nkj->nik", sigs, sigs)
        cap = [9.0 * (float(p.x @ p.x) + 1.0) for p in probes]
        # per-probe reference values; the ellipticity check has one per direction
        ref = {
            "a-psd": [[-float(np.linalg.eigvalsh(ai)[0])] for ai in a],
            "ellipticity-floor": [[0.01 - float(v @ ai @ v) for v in dirs] for ai in a],
            "growth-drift": [[2.0 * float(p.x @ drift(p.x, p.k)) - c]
                             for p, c in zip(probes, cap)],
            "growth-diffusion-jump": [[float(np.sum(si * si)) - c]
                                      for si, c in zip(sigs, cap)],
        }
        # a report shows only the worst value, so small groups expose most values
        for lo in range(0, len(probes), 4):
            group = probes[lo:lo + 4]
            checks = {c.name: c for c in validate_model(
                spec, np.stack([p.x for p in group]), [p.k for p in group],
                directions=raw_dirs).checks}
            for name, per_probe in ref.items():
                vals = [v for vs in per_probe[lo:lo + 4] for v in vs]
                i = int(np.argmax(vals))
                worst = group[i // len(per_probe[lo])]
                assert checks[name].margin == vals[i], name
                assert np.array_equal(checks[name].worst_point[0], worst.x), name
                assert checks[name].worst_point[1] == worst.k, name

    def test_rate_uniform_bound_checked(self):
        spec = example51()
        rep = validate_model(spec, *self.probes(spec, n=5, kmax=4))
        names = [c.name for c in rep.checks]
        assert "rate-uniform-bound" in names
        assert {c.name: c for c in rep.checks}["rate-uniform-bound"].passed


class TestModulusProbe:
    def test_example51_closed_forms(self):
        # c is linear in x, so the jump increment integral is exactly
        # |x - z|^2 / k^2; the rate-row increment obeys the 3/4 slope
        from rsjd.analysis import modulus_probe
        spec = example51()
        pairs = [(np.array([0.0]), np.array([0.5])), (np.array([1.0]), np.array([1.25]))]
        probe = modulus_probe(spec, 2, pairs)
        assert np.allclose(probe["jump_sq"], probe["separation"] ** 2 / 4.0, rtol=1e-8)
        assert np.all(probe["rate_row"] <= 0.75 * probe["separation"] + 1e-9)
        assert np.all(probe["drift_pairing"] <= 0.0)
