"""The batched mark-quadrature rule against closed forms and against
scipy's adaptive quadrature over the same segments."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsjd import QuadratureError, TestFunction, apply_generator, example51, example52
from rsjd import quadrature
from rsjd.config import load_model_config
from rsjd.generator import _jump_outer_integral, _small_second_moment

from test_mark_draw import JUMP1D
from test_simulate import jump_config

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
EXPONENTS = (1.5, 2.0, 2.5)

coords = st.floats(-5.0, 5.0).map(lambda v: round(v, 6))
regimes = st.integers(1, 30)
cutoffs = st.floats(1e-4, 0.9)


def c_squared(spec):
    def c2(x, k, u):
        c = spec.jump_coeff(x, k, u)
        return np.sum(c * c, axis=-1)
    return c2


def power_moment(a, eps):
    """int_eps^1 r^(a-1) dr, free of cancellation: log(1/eps) at a = 0."""
    return -np.log(eps) if a == 0.0 else -np.expm1(a * np.log(eps)) / a


def assert_rule_matches(value, error, exact, scale):
    """1e-10 relative agreement, and the error estimate bounds the true error."""
    assert np.all(np.abs(value - exact) <= 1e-10 * scale)
    assert np.all(np.abs(value - exact) <= error)


@pytest.fixture(scope="module")
def power_law_specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("power-law")
    return {p: jump_config(root / f"p{p}.yaml", p) for p in EXPONENTS}


class TestClosedForms:
    @PROPERTY
    @given(x=coords, k=regimes, eps=cutoffs)
    def test_example51_compensator(self, x, k, eps):
        # the integrand is odd in u under the symmetric measure: exactly zero
        spec = example51()
        xs, ks = np.array([[x]]), np.array([k])
        value, error = quadrature.integrate(spec, spec.jump_coeff, (xs, ks), eps, 1.0, 1e-10)
        scale = 2.0 * np.log(1.0 / eps) * abs(x) / (np.sqrt(2.0) * k)  # int |c| nu
        assert_rule_matches(value, error, spec.jump_compensator(x, k, eps), scale)

    @PROPERTY
    @given(x1=coords, x2=coords, k=regimes, eps=cutoffs, delta=st.floats(0.1, 1.9))
    def test_example52_compensator(self, x1, x2, k, eps, delta):
        spec = example52(delta)
        xs, ks = np.array([[x1, x2], [x2, -x1]]), np.array([k, k + 1])
        value, error = quadrature.integrate(spec, spec.jump_coeff, (xs, ks), eps, 1.0, 1e-10)
        exact = spec.jump_compensator(xs, ks, eps)
        assert_rule_matches(value, error, exact, np.abs(exact))

    @PROPERTY
    @given(x=coords, k=regimes, eps=cutoffs, p=st.sampled_from(EXPONENTS))
    def test_power_law_config_compensator(self, power_law_specs, x, k, eps, p):
        spec = power_law_specs[p]
        xs, ks = np.array([[x]]), np.array([k])
        value, error = quadrature.integrate(spec, spec.jump_coeff, (xs, ks), eps, 1.0, 1e-10)
        exact = power_moment(2.0 - p, eps) * x / k
        assert_rule_matches(value, error, exact, abs(exact))

    @PROPERTY
    @given(x=coords, k=regimes, eps=cutoffs)
    def test_example51_small_second_moment(self, x, k, eps):
        spec = example51()
        xs, ks = np.array([[x]]), np.array([k])
        value, error = quadrature.integrate(spec, c_squared(spec), (xs, ks), 0.0, eps, 1e-10)
        exact = np.trace(spec.small_jump_cov(xs, ks, eps), axis1=-2, axis2=-1)
        assert_rule_matches(value, error, exact, exact)

    @PROPERTY
    @given(x1=coords, x2=coords, k=regimes, eps=cutoffs, delta=st.floats(0.1, 1.5))
    def test_example52_small_second_moment(self, x1, x2, k, eps, delta):
        # |c|^2 nu ~ r^(1-delta) dr is singular at the origin for delta > 1
        spec = example52(delta)
        xs, ks = np.array([[x1, x2]]), np.array([k])
        value, error = quadrature.integrate(spec, c_squared(spec), (xs, ks), 0.0, eps, 1e-10)
        exact = np.trace(spec.small_jump_cov(xs, ks, eps), axis1=-2, axis2=-1)
        assert_rule_matches(value, error, exact, exact)

    def test_generator_routes_small_moment_through_the_rule(self):
        spec = example52(1.3)
        xs, ks = np.array([[1.5, -0.5], [0.0, 2.0]]), np.array([1, 4])
        closed = _small_second_moment(spec, xs, ks, 0.2, 1e-9)
        ruled = _small_second_moment(replace(spec, small_jump_cov=None), xs, ks, 0.2, 1e-9)
        assert np.allclose(ruled, closed, rtol=1e-10, atol=0.0)


class TestDispatch:
    def test_radial_density_fallback(self):
        # without radial_density the ray weight is 2 pi r density(r e)
        spec = example52(0.7)
        bare = replace(spec, jump_measure=replace(spec.jump_measure, radial_density=None))
        xs, ks = np.array([[1.0, 2.0]]), np.array([3])
        a = quadrature.integrate(spec, spec.jump_coeff, (xs, ks), 0.05, 1.0, 1e-10)[0]
        b = quadrature.integrate(bare, spec.jump_coeff, (xs, ks), 0.05, 1.0, 1e-10)[0]
        assert np.allclose(a, b, rtol=1e-13, atol=0.0)

    def test_non_radial_2d_marks_rejected(self):
        spec = replace(example52(), jump_radial=False)
        with pytest.raises(NotImplementedError):
            quadrature.segments(spec)

    def test_blocks_do_not_change_values(self, monkeypatch):
        spec = example52()
        xs = np.random.default_rng(4).normal(size=(50, 2))
        ks = np.arange(1, 51)
        whole = quadrature.integrate(spec, spec.jump_coeff, (xs, ks), 0.01, 1.0, 1e-10)
        monkeypatch.setattr(quadrature, "BLOCK", 1000)   # a few rows per call
        blocked = quadrature.integrate(spec, spec.jump_coeff, (xs, ks), 0.01, 1.0, 1e-10)
        for a, b in zip(whole, blocked):
            assert np.allclose(a, b, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("make", [lambda: load_model_config(JUMP1D), example52],
                             ids=["jump1d", "example52"])
    def test_no_states(self, make):
        # a batch of zero states gives empty values of the integrand's
        # trailing shape; it used to raise TypeError
        spec = make()
        xs, ks = np.zeros((0, spec.d)), np.zeros(0, dtype=np.int64)
        for integrand, shape in ((spec.jump_coeff, (0, spec.d)), (c_squared(spec), (0,))):
            value, error = quadrature.integrate(spec, integrand, (xs, ks), 0.05, 1.0, 1e-10)
            assert value.shape == error.shape == shape

    def test_rule_is_shared_and_read_only(self):
        r, w = quadrature._rule(0.05, 1.0)
        assert quadrature._rule(0.05, 1.0)[0] is r
        for a in (r, w):
            with pytest.raises(ValueError):
                a[0] = 0.0
        spec = example51()
        xs, ks = np.array([[0.5], [1.5]]), np.array([1, 2])
        first = quadrature.integrate(spec, spec.jump_coeff, (xs, ks), 0.05, 1.0, 1e-10)
        again = quadrature.integrate(spec, spec.jump_coeff, (xs, ks), 0.05, 1.0, 1e-10)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)

    def test_unresolved_singularity_raises(self):
        # |c|^2 nu ~ r^-0.9 dr: the innermost panel holds too much mass
        spec = example52(1.9)
        with pytest.raises(QuadratureError):
            quadrature.integrate(spec, c_squared(spec), (np.array([[1.0, 1.0]]), np.array([1])),
                                 0.0, 0.1, 1e-10)

    def test_non_finite_integrand_raises(self):
        spec = example51()

        def g(x, k, u):
            return np.where(x[..., 0] > 1.0, np.nan, 1.0) * u[..., 0] ** 2

        with pytest.raises(QuadratureError, match="1 of 2"):
            quadrature.integrate(spec, g, (np.array([[0.0], [2.0]]), np.array([1, 1])),
                                 0.1, 1.0, 1e-10)


# sha256 of value.tobytes() + error.tobytes() of ``integrate`` before the
# plan existed, at the states of ``TestPlan.test_values_unchanged``; the
# c^2 integrals are matmuls of shape (rows, m) @ (m, 3), whose last bits
# depend on the rows per call, so BLOCK 8192 (3 rows) differs from 1000 (1 row)
PLAN_DIGESTS = {
    ("jump1d", "comp"): {None: "b41252598962e3b4d9227902c356151d99d9ab80026d837f34de06116825487a"},
    ("jump1d", "small"): {
        8192: "395ca3b72b49290b3c2471f0d62629ebde99589e276e0ca31d41e19269e8c702",
        None: "4c9c078516368f90e351aea6e450720eed3e2612f9c42b32e99e511d7d82c2ba"},
    ("example51", "comp"): {
        None: "43fdb15766626a3d2c9e549b46c264d538bf5f4100908c3ee9d60f3d46477add"},
    ("example51", "small"): {
        8192: "01a147723a176bdceb916e57987dc21177eff2fd32921e0cff59289d2f5941fd",
        None: "7ce6ec7d771070f458d14b6cd757606979ba9ab1d7248101bf2caa837ec31e94"},
}


class TestPlan:
    def test_values_unchanged(self, monkeypatch):
        specs = {"jump1d": load_model_config(JUMP1D),
                 "example51": replace(example51(), jump_compensator=None)}
        xs = np.linspace(-3.0, 3.0, 37)[:, None]
        ks = np.arange(37) % 5 + 1
        for block in (1 << 13, 1000, 100, 1):
            monkeypatch.setattr(quadrature, "BLOCK", block)
            for name, spec in specs.items():
                for part, integrand, lo, hi in (("comp", spec.jump_coeff, 0.05, 1.0),
                                                ("small", c_squared(spec), 0.0, 0.05)):
                    value, error = quadrature.integrate(spec, integrand, (xs, ks), lo, hi,
                                                        1e-10)
                    digest = hashlib.sha256(value.tobytes() + error.tobytes()).hexdigest()
                    want = PLAN_DIGESTS[name, part]
                    assert digest == want.get(block, want[None]), (name, part, block)

    def test_shared_and_read_only(self):
        spec = load_model_config(JUMP1D)
        plan = quadrature._plan(spec.jump_measure, spec.jump_radial, 0.05, 1.0)
        assert quadrature._plan(spec.jump_measure, spec.jump_radial, 0.05, 1.0) is plan
        r = quadrature._rule(0.05, 1.0)[0]
        assert plan.marks.shape == (1, 2 * r.size, 1)
        arrays = [plan.marks] + [a for _, weights, mass in plan.parts for a in (weights, mass)]
        for a in arrays:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0.0

    def test_keyed_on_the_measure_fields(self, tmp_path):
        # equal fields share a plan whatever the object; a changed field never does
        a = jump_config(tmp_path / "a.yaml", 1.5)
        b = jump_config(tmp_path / "b.yaml", 2.5)
        ma = a.jump_measure
        plan = quadrature._plan(ma, False, 0.05, 1.0)
        assert quadrature._plan(replace(ma), False, 0.05, 1.0) is plan
        other = quadrature._plan(b.jump_measure, False, 0.05, 1.0)
        assert other is not plan
        np.testing.assert_array_equal(other.marks, plan.marks)
        assert not np.array_equal(other.parts[0][1], plan.parts[0][1])
        for changed in (replace(ma, density=b.jump_measure.density),
                        replace(ma, radius_max=2.0), replace(ma, epsilon=0.1)):
            assert quadrature._plan(changed, False, 0.05, 1.0) is not plan
        assert quadrature._plan(ma, False, 0.05, 0.5) is not plan

    def test_example52_deltas_do_not_share(self):
        xs, ks = np.array([[1.0, -2.0]]), np.array([2])
        for delta in (1.0, 1.3, 1.0, 1.3):
            spec = example52(delta)
            value, _ = quadrature.integrate(spec, spec.jump_coeff, (xs, ks), 0.05, 1.0, 1e-10)
            exact = spec.jump_compensator(xs, ks, 0.05)
            assert np.allclose(value, exact, rtol=1e-12, atol=0.0), delta

    def test_many_short_lived_measures(self, tmp_path):
        # more measures than the cache holds, each dropped after use: every
        # integral is its own exponent's, whatever object ids get reused
        p = tmp_path / "m.yaml"
        xs, ks = np.array([[1.0]]), np.array([1])
        for i in range(2 * quadrature._plan.cache_info().maxsize):
            exponent = (1.5, 2.0, 2.5)[i % 3]
            spec = jump_config(p, exponent)
            value, _ = quadrature.integrate(spec, spec.jump_coeff, (xs, ks), 0.05, 1.0, 1e-10)
            exact = 0.5 * 2.0 * power_moment(2.0 - exponent, 0.05)
            assert np.allclose(value, exact, rtol=1e-12, atol=0.0), exponent
            del spec


def f_gauss_fn(x, k):
    x = np.asarray(x, dtype=float)
    return x[..., 0] * np.exp(-np.sum(x * x, axis=-1))


GRIDS = [
    ("example51", example51, [np.array([v]) for v in np.linspace(-3.0, 3.0, 7)], (1, 2, 5)),
    ("example52", example52,
     [np.array([a, b]) for a in (-4.0, 0.0, 3.0) for b in (-2.0, 1.0)], (1, 2, 7, 20)),
]


class TestGeneratorAgainstQuad:
    @pytest.mark.parametrize("name,model,points,regime_set", GRIDS)
    def test_bracket_covers_quad_reference(self, name, model, points, regime_set):
        spec = model()
        if spec.default_lyapunov is not None:
            f = spec.default_lyapunov
        else:
            f = TestFunction(fn=f_gauss_fn, bounded=True,
                             bound=float(np.exp(-0.5) / np.sqrt(2.0)))
        eps = 1e-5
        for x in points:
            for k in regime_set:
                xs, ks = x[None], np.array([k])
                grads = np.array([f.gradient(x, k)])
                f0 = np.asarray(f.fn(xs, ks), dtype=float)
                outer, err = _jump_outer_integral(spec, f, xs, ks, f0, grads, eps, 1e-9)

                def increment(xx, kk, f0, g, u):
                    c = spec.jump_coeff(xx, kk, u)
                    return f.fn(xx + c, kk) - f0 - np.sum(g * c, axis=-1)

                ref = quadrature.quad_reference(spec, increment, (xs, ks, f0, grads), eps, 1.0,
                                                1e-10)
                gen = apply_generator(spec, f, x, k)
                assert abs(outer[0] - ref[0]) <= gen.bracket, (name, x, k)
                assert abs(outer[0] - ref[0]) <= err[0] + 1e-9 * (1.0 + abs(ref[0]))
