import numpy as np
import pytest
from scipy import integrate

from rsjd import example51, example52, example52_drift_bound
from rsjd.examples import example51_coupling_kappa


class TestExample51:
    def setup_method(self):
        self.spec = example51()

    def test_sigma_at_eight(self):
        for k in (1, 2, 7):
            assert float(self.spec.sigma(np.array([8.0]), k)[0, 0]) == pytest.approx(5.0)

    def test_drift_zero_at_origin(self):
        for k in (1, 3):
            assert float(self.spec.drift(np.array([0.0]), k)[0]) == 0.0

    def test_jump_second_moment_quadrature_oracle(self):
        # 2 * int_0^1 (u*x/sqrt(2k))^2 u^-2 du at x=2, k=1 -> 4
        oracle = 2.0 * integrate.quad(lambda u: (u * 2.0 / np.sqrt(2.0)) ** 2 * u ** -2,
                                      0.0, 1.0)[0]
        assert oracle == pytest.approx(4.0, rel=1e-10)
        closed = float(self.spec.jump_measure.c_second_moment(np.array([2.0]), 1))
        assert closed == pytest.approx(oracle, rel=1e-10)

    def test_large_jump_rate(self):
        # nu({eps < |u| < 1}) = 2 (1/eps - 1) against direct quadrature
        eps = 0.07
        oracle = 2.0 * integrate.quad(lambda u: u ** -2, eps, 1.0)[0]
        assert self.spec.jump_measure.large_jump_rate(eps) == pytest.approx(oracle, rel=1e-10)

    def test_sampler_in_domain_and_mean_magnitude(self):
        eps = 0.1
        rng = np.random.default_rng(5)
        u = self.spec.jump_measure.large_jump_quantile(eps, rng.random((2, 20000)))
        mags = np.abs(u[:, 0])
        assert mags.min() >= eps and mags.max() <= 1.0
        # E|u| under the normalized restriction: log(1/eps)/(1/eps - 1)
        expected = np.log(1.0 / eps) / (1.0 / eps - 1.0)
        se = mags.std() / np.sqrt(len(mags))
        assert abs(mags.mean() - expected) < 4 * se

    def test_row_lipschitz_constant(self):
        # sum_l |q_kl(x) - q_kl(y)| <= 0.75 |x - y| (truncated sum plus tail)
        rng = np.random.default_rng(11)
        rates = self.spec.rates
        L = 80
        ls = np.arange(1, L + 1)
        for _ in range(500):
            x, y = rng.uniform(-10, 10, 2)
            k = int(rng.integers(1, 31))
            qx = np.asarray(rates.rate(np.array([x]), k, ls))
            qy = np.asarray(rates.rate(np.array([y]), k, ls))
            qx[ls == k] = qy[ls == k] = 0.0
            s = float(np.abs(qx - qy).sum()) + 2.0 * rates.tail_bound(k, L)
            assert s <= 0.75 * abs(x - y) + 1e-10

    def test_declared_constants(self):
        assert self.spec.ellipticity_floor == 1.0
        assert self.spec.growth_constant == 4.0
        assert example51_coupling_kappa(1.0) == pytest.approx(8.0)

    def test_compensator_odd_symmetry(self):
        comp = self.spec.jump_compensator(np.array([[1.5]]), np.array([2]), 0.05)
        assert np.all(comp == 0.0)

    def test_small_jump_cov_closed_form(self):
        # int_{|u|<=eps} c^2 nu = eps x^2 / k^2, cross-checked by quadrature
        eps, x, k = 0.2, 1.7, 3
        oracle = 2.0 * integrate.quad(
            lambda u: (u * x / (np.sqrt(2.0) * k)) ** 2 * u ** -2, 0.0, eps)[0]
        closed = float(self.spec.small_jump_cov(np.array([x]), k, eps)[0, 0])
        assert closed == pytest.approx(oracle, rel=1e-10)


class TestExample52:
    def setup_method(self):
        self.spec = example52(1.0)

    def test_gamma_normalization(self):
        # gamma^2 int |u|^2 nu(du) = 1; for delta the integral is 2 pi/(2-delta)
        for delta in (0.5, 1.0, 1.5):
            gamma_sq = (2.0 - delta) / (2.0 * np.pi)
            integral = 2.0 * np.pi * integrate.quad(lambda r: r ** (1.0 - delta), 0, 1)[0]
            assert gamma_sq * integral == pytest.approx(1.0, rel=1e-10)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            example52(0.0)
        with pytest.raises(ValueError):
            example52(2.0)

    def test_rate_12_origin(self):
        # (2 + cos 0) / (3^2 (2 + sin 0)) = 1/6
        v = float(self.spec.rates.rate(np.zeros(2), 1, np.array([2]))[0])
        assert v == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_drift_large_k_limit(self):
        x = np.array([1.0, -2.0])
        b = self.spec.drift(x, 10 ** 6)
        assert np.linalg.norm(b + x) <= 1e-6 * np.linalg.norm(x)

    def test_second_moment_closed_form(self):
        x = np.array([0.5, -1.0])
        for k in (1, 4):
            v = float(self.spec.jump_measure.c_second_moment(x, k))
            assert v == pytest.approx(k / (k + 1.0) * float(x @ x), rel=1e-12)

    def test_jump_coeff_vanishes_at_origin(self):
        u = np.array([0.3, 0.1])
        assert np.all(self.spec.jump_coeff(np.zeros(2), 2, u) == 0.0)

    def test_sampler_radial_law(self):
        eps = 0.2
        rng = np.random.default_rng(9)
        u = self.spec.jump_measure.large_jump_quantile(eps, rng.random((2, 20000)))
        r = np.linalg.norm(u, axis=1)
        assert r.min() >= eps and r.max() <= 1.0
        # E r for density prop to r^{-2} on (eps, 1): log(1/eps)/(1/eps - 1)
        expected = np.log(1.0 / eps) / (1.0 / eps - 1.0)
        assert abs(r.mean() - expected) < 4 * r.std() / np.sqrt(len(r))

    def test_drift_bound_origin(self):
        # series oracle: trace term 1/8 plus (3/2) sum_{l>=2} (l-1) 3^-l = 1/2
        tail = sum((l - 1) * 3.0 ** -l for l in range(2, 200))
        assert tail == pytest.approx(0.25, rel=1e-12)
        lhs, rhs = example52_drift_bound(np.zeros(2), 1)
        assert lhs.value == pytest.approx(1.0 / 8.0 + 1.5 * tail, abs=1e-8)
        assert rhs == pytest.approx(-1.0 / 6.0 + 2.5)
        assert lhs.value <= rhs + lhs.bracket

    def test_drift_bound_small_grid(self):
        for x in (np.array([2.0, -1.0]), np.array([-4.0, 4.0]), np.array([0.5, 0.5])):
            for k in (1, 3, 12):
                lhs, rhs = example52_drift_bound(x, k)
                assert lhs.value <= rhs + lhs.bracket + 1e-6

    def test_compensator_closed_form(self):
        # int_{|u|>eps} |u| nu(du) = 2 pi log(1/eps) at delta=1, times the state factor
        eps = 0.1
        x = np.array([1.0, 2.0])
        k = 3
        gamma = np.sqrt(1.0 / (2.0 * np.pi))
        oracle = np.sqrt(k / (k + 1.0)) * gamma * 2.0 * np.pi * np.log(1.0 / eps) * x
        comp = self.spec.jump_compensator(x, k, eps)
        assert np.allclose(comp, oracle, rtol=1e-12)

    def test_compensator_near_delta_one(self):
        # 2 pi (1 - eps^(1-delta)) / (1 - delta) cancels as delta -> 1; the
        # expm1 form keeps the digits
        delta, eps, k = 0.99999, 0.5, 3
        x = np.array([1.0, 2.0])
        a = 1.0 - delta
        gamma = np.sqrt((2.0 - delta) / (2.0 * np.pi))
        moment = 2.0 * np.pi * -np.expm1(a * np.log(eps)) / a
        oracle = np.sqrt(k / (k + 1.0)) * gamma * moment * x
        comp = example52(delta).jump_compensator(x, k, eps)
        assert np.all(np.abs(comp - oracle) <= 1e-14 * np.abs(oracle))

    def test_row_sum_closed_form_matches_truncation(self):
        from rsjd import q_row_truncated
        x = np.array([0.7, -0.3])
        for k in (1, 2, 6):
            partial, tail = q_row_truncated(self.spec.rates, x, k, 1e-13)
            closed = float(self.spec.rates.row_sum(x, k))
            assert sum(v for _, v in partial) + tail == pytest.approx(closed, rel=1e-10)
