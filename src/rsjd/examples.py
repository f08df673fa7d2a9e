"""Built-in models: a 1-d and a 2-d regime-switching jump diffusion.

Both come with closed-form tail bounds, jump compensators and small-jump
covariances, so the integrators never need per-step quadrature on them;
``example52`` also declares a closed-form row sum.  All coefficients follow
the broadcasting convention documented in :mod:`rsjd.model`.
"""

from __future__ import annotations

import numpy as np

from ._linalg import row_norm, sum_last
from .generator import TestFunction
from .model import JumpMeasureSpec, ModelSpec, RateMatrixSpec

__all__ = ["example51", "example52", "example51_coupling_kappa", "example52_drift_bound"]

_LOG3 = np.log(3.0)


# ---------------------------------------------------------------------------
# 1-d model: sigma = |x|^{2/3} + 1, b = -x/(2k^2), c = u x/(sqrt(2) k),
# nu(du) = du/u^2 on 0 < |u| < 1, q_kl(x) = (k/3^{l+k}) / (1 + l x^2).


def _abs23(x):
    # |x|^{2/3} through the real cube root; keeps a(x,k) >= 1 on both branches
    return np.cbrt(x) ** 2


def example51() -> ModelSpec:
    """1-d built-in with Hoelder diffusion and a symmetric power-law jump measure.

    Declares ellipticity floor 1 (a = (|x|^{2/3}+1)^2 >= 1) and growth
    constant 4 (|sigma|^2 + int |c|^2 nu = (|x|^{2/3}+1)^2 + x^2/k^2 <= 4(x^2+1)).
    """

    def drift(x, k):
        x = np.asarray(x, dtype=float)
        k = np.asarray(k, dtype=float)
        return -x / (2.0 * k[..., None] ** 2)

    def sigma(x, k):
        x = np.asarray(x, dtype=float)
        s = _abs23(x[..., 0]) + 1.0
        return s[..., None, None]

    def jump_coeff(x, k, u):
        x = np.asarray(x, dtype=float)
        k = np.asarray(k, dtype=float)
        u = np.asarray(u, dtype=float)
        return u[..., 0, None] * x / (np.sqrt(2.0) * k[..., None])

    def density(u):
        # marks carry a trailing axis of size mark_dim
        u = np.asarray(u, dtype=float)
        return np.abs(u[..., 0]) ** -2.0

    def large_jump_rate(eps):
        return 2.0 * (1.0 / eps - 1.0)

    def large_jump_quantile(eps, U):
        # inverse CDF of the normalized |u| density u^-2 on (eps, 1); row 1
        # picks the sign
        mag = 1.0 / (1.0 / eps - U[0] * (1.0 / eps - 1.0))
        sign = np.where(U[1] < 0.5, -1.0, 1.0)
        return (sign * mag)[:, None]

    def c_second_moment(x, k):
        x = np.asarray(x, dtype=float)
        k = np.asarray(k, dtype=float)
        return x[..., 0] ** 2 / k ** 2

    def jump_compensator(x, k, eps):
        # integrand odd in u under the symmetric measure
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x)

    def small_jump_cov(x, k, eps):
        x = np.asarray(x, dtype=float)
        k = np.asarray(k, dtype=float)
        v = eps * x[..., 0] ** 2 / k ** 2
        return v[..., None, None]

    def rate(x, k, l):
        x = np.asarray(x, dtype=float)
        k = np.asarray(k, dtype=float)
        l = np.asarray(l, dtype=float)
        x2 = sum_last(x * x)
        return k * np.exp(-(l + k) * _LOG3) / (1.0 + l * x2)

    def tail_bound(k, L):
        # sum_{l>L} k 3^{-(l+k)} = (k 3^{-k}) 3^{-L} / 2, uniform in x
        return 0.5 * k * np.exp(-(k + L) * _LOG3)

    measure = JumpMeasureSpec(
        mark_dim=1,
        density=density,
        epsilon=0.05,
        large_jump_rate=large_jump_rate,
        large_jump_quantile=large_jump_quantile,
        c_second_moment=c_second_moment,
        radius_max=1.0,
    )
    rates = RateMatrixSpec(rate=rate, tail_bound=tail_bound, kappa0=1.0 / 3.0)
    return ModelSpec(
        d=1,
        drift=drift,
        sigma=sigma,
        rates=rates,
        jump_coeff=jump_coeff,
        jump_measure=measure,
        ellipticity_floor=1.0,
        growth_constant=4.0,
        jump_compensator=jump_compensator,
        small_jump_cov=small_jump_cov,
        name="example51",
    )


def example51_coupling_kappa(R: float) -> float:
    """Coefficient-modulus constant 4(R^{2/3}+1) that pairs with g(r)=r^{-1/3}
    on the ball |x| <= R for the 1-d built-in."""
    return 4.0 * (R ** (2.0 / 3.0) + 1.0)


# ---------------------------------------------------------------------------
# 2-d model: sigma = ((|x|+1)/4) I, b = -(k/(k+1)) x, c = sqrt(k/(k+1)) gamma |u| x,
# nu(du) = du/|u|^{2+delta} on 0 < |u| < 1 in R^2,
# q_kl(x) = (2+cos(k|x|)) / (3^l (2+sin(|x|^2))).


def example52(delta: float = 1.0) -> ModelSpec:
    """2-d built-in with isotropic diffusion, multiplicative radial jumps and a
    default quadratic-plus-regime Lyapunov function V(x,k) = |x|^2 + k.

    ``gamma`` is chosen so that gamma^2 int |u|^2 nu(du) = 1; the jump second
    moment is then (k/(k+1)) |x|^2 exactly.
    """
    if not (0.0 < delta < 2.0):
        raise ValueError("delta must lie in (0, 2)")
    gamma = np.sqrt((2.0 - delta) / (2.0 * np.pi))
    eye = np.eye(2)

    def drift(x, k):
        x = np.asarray(x, dtype=float)
        k = np.asarray(k, dtype=float)
        return -(k / (k + 1.0))[..., None] * x

    def sigma(x, k):
        x = np.asarray(x, dtype=float)
        r = row_norm(x)
        fac = (r + 1.0) / 4.0
        return fac[..., None, None] * eye

    def jump_coeff(x, k, u):
        x = np.asarray(x, dtype=float)
        k = np.asarray(k, dtype=float)
        u = np.asarray(u, dtype=float)
        mag = row_norm(u)
        amp = np.sqrt(k / (k + 1.0)) * gamma * mag
        if x.ndim != amp.ndim + 1:
            return amp[..., None] * x
        # the same product with the coordinate axis outermost in memory, so it
        # loops over rows and marks, not over 2-vectors; transposes align the
        # axes from the left, hence the equal ranks
        return (amp.T * x.T).T

    def density(u):
        u = np.asarray(u, dtype=float)
        return row_norm(u) ** -(2.0 + delta)

    def radial_density(r):
        r = np.asarray(r, dtype=float)
        return 2.0 * np.pi * r ** -(1.0 + delta)

    def large_jump_rate(eps):
        return 2.0 * np.pi * (eps ** -delta - 1.0) / delta

    def large_jump_quantile(eps, U):
        # radius by the inverse CDF of r^-(1+delta) on (eps, 1), uniform angle
        r = (eps ** -delta - U[0] * (eps ** -delta - 1.0)) ** (-1.0 / delta)
        theta = U[1] * 2.0 * np.pi
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)

    def c_second_moment(x, k):
        x = np.asarray(x, dtype=float)
        k = np.asarray(k, dtype=float)
        return (k / (k + 1.0)) * sum_last(x * x)

    def _abs_moment_above(eps):
        # int_{eps<|u|<1} |u| nu(du) = 2 pi int_eps^1 r^-delta dr; expm1 keeps
        # the digits that 1 - eps^(1-delta) cancels near delta = 1
        if abs(delta - 1.0) < 1e-12:
            return 2.0 * np.pi * np.log(1.0 / eps)
        return 2.0 * np.pi * -np.expm1((1.0 - delta) * np.log(eps)) / (1.0 - delta)

    def jump_compensator(x, k, eps):
        x = np.asarray(x, dtype=float)
        k = np.asarray(k, dtype=float)
        amp = np.sqrt(k / (k + 1.0)) * gamma * _abs_moment_above(eps)
        return amp[..., None] * x

    def small_jump_cov(x, k, eps):
        # gamma^2 * 2 pi eps^(2-delta)/(2-delta) = eps^(2-delta)
        x = np.asarray(x, dtype=float)
        k = np.asarray(k, dtype=float)
        amp = (k / (k + 1.0)) * eps ** (2.0 - delta)
        return amp[..., None, None] * np.einsum("...i,...j->...ij", x, x)

    def rate(x, k, l):
        x = np.asarray(x, dtype=float)
        k = np.asarray(k, dtype=float)
        l = np.asarray(l, dtype=float)
        r = row_norm(x)
        return (2.0 + np.cos(k * r)) * np.exp(-l * _LOG3) / (2.0 + np.sin(r * r))

    def row_sum(x, k):
        x = np.asarray(x, dtype=float)
        k = np.asarray(k, dtype=float)
        r = row_norm(x)
        geo = 0.5 - np.exp(-k * _LOG3)
        return (2.0 + np.cos(k * r)) / (2.0 + np.sin(r * r)) * geo

    def tail_bound(k, L):
        # (2+cos)/(2+sin) <= 3, so the tail is below 3 * 3^{-L} / 2
        return 1.5 * np.exp(-L * _LOG3)

    def lyap_regime_tail(x, k, L):
        # bound on sum_{l>L} q_kl(x) |l - k| via sum_{l>L} (l+k) 3^{-l}
        t = np.exp(-L * _LOG3)
        return 3.0 * (t * (L / 2.0 + 0.75) + k * t / 2.0)

    V = TestFunction(
        fn=lambda x, k: sum_last(np.asarray(x, dtype=float) ** 2) + np.asarray(k, dtype=float),
        grad=lambda x, k: 2.0 * np.asarray(x, dtype=float),
        hess=lambda x, k: 2.0 * np.broadcast_to(np.eye(2), np.shape(x) + (2,)),
        bounded=False,
        regime_tail=lyap_regime_tail,
        label="V(x,k)=|x|^2+k",
        broadcasting=True,
    )

    measure = JumpMeasureSpec(
        mark_dim=2,
        density=density,
        epsilon=0.1,
        large_jump_rate=large_jump_rate,
        large_jump_quantile=large_jump_quantile,
        c_second_moment=c_second_moment,
        radial_density=radial_density,
        radius_max=1.0,
    )
    rates = RateMatrixSpec(rate=rate, tail_bound=tail_bound, row_sum=row_sum, kappa0=3.0)
    return ModelSpec(
        d=2,
        drift=drift,
        sigma=sigma,
        rates=rates,
        jump_coeff=jump_coeff,
        jump_measure=measure,
        ellipticity_floor=1.0 / 16.0,
        growth_constant=1.5,
        jump_compensator=jump_compensator,
        small_jump_cov=small_jump_cov,
        jump_radial=True,
        default_lyapunov=V,
        name="example52",
    )


def example52_drift_bound(x, k: int):
    """Both sides of the dissipation inequality for the 2-d built-in's V.

    Returns (lhs, rhs) with lhs the generator applied to V(x,k)=|x|^2+k
    (including its truncation/quadrature bracket) and rhs = -V/6 + 5/2.
    Callers assert lhs.value <= rhs + lhs.bracket + tol.
    """
    from .generator import apply_generator

    spec = example52()
    x = np.asarray(x, dtype=float)
    lhs = apply_generator(spec, spec.default_lyapunov, x, int(k))
    rhs = -(float(x @ x) + k) / 6.0 + 2.5
    return lhs, rhs
