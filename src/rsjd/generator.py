"""Numeric evaluation of the hybrid-process generator and drift certificates.

The generator of the pair (analog state, regime) splits into a local
differential part, a compensated jump integral over the mark measure, and a
regime-exchange sum with state-dependent rates:

    A f(x,k) = 1/2 tr(a D^2 f) + <b, D f>
               + int_U [f(x + c(x,k,u), k) - f(x,k) - <D f, c(x,k,u)>] nu(du)
               + sum_l q_kl(x) [f(x,l) - f(x,k)].

The mark integral is split at a small cutoff: the outer part is computed by
the batched mark-quadrature rule of :mod:`rsjd.quadrature`, whose two-order
error estimate joins the reported bracket; the inner part is bounded by a
second-order Taylor estimate and reported as an interval half-width instead
of being silently absorbed.  The regime sum is truncated with the rate
matrix's certified tail bound; the residual also lands in the reported
bracket.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import quadrature
from ._csv import write_csv
from ._linalg import row_norm, sum_last
from .errors import TruncationError
from .model import L_CAP, HybridState, ModelSpec, certified_tail, rate_rows

__all__ = [
    "TestFunction",
    "as_test_function",
    "GeneratorValue",
    "GeneratorBatch",
    "apply_generator",
    "apply_generator_batch",
    "LyapunovCertificate",
    "DriftReport",
    "check_lyapunov",
    "DynkinResult",
    "dynkin_check",
]

# The generator's bracket: above SMALL_CUTOFF the mark-quadrature rule's error
# estimate joins it (QuadratureError above QUAD_TOL's threshold), below it a
# Taylor bound; the regime sum stops once its certified tail is below TAIL_TOL.
QUAD_TOL = 1e-9
SMALL_CUTOFF = 1e-5
TAIL_TOL = 1e-10
CROSSCHECK_QUAD_TOL = 1e-10   # scipy quad tolerance of the second-moment cross-check
FD_SCALE = 1e-5               # finite-difference step scale of TestFunction


# ---------------------------------------------------------------------------
# Test functions


@dataclass(frozen=True)
class TestFunction:
    """A scalar function of the hybrid state with optional analytic derivatives.

    ``fn(x, k)`` follows the usual broadcasting convention (x: (..., d),
    k: (...)).  When ``grad``/``hess`` are absent, central finite differences
    with step ``FD_SCALE * (1 + |x|)`` are used.  ``bounded``/``bound`` feed
    the estimators that require sup|f| and come together: either both or
    neither is set.  ``regime_tail(x, k, L)`` bounds
    sum_{l>L} q_kl(x) |f(x,l) - f(x,k)| for unbounded-in-k functions;
    ``k_independent`` declares that the regime-exchange term vanishes
    identically.

    ``broadcasting`` declares that ``grad``, ``hess`` and ``regime_tail``
    follow ``fn``'s convention too: for x (..., d) and k (...) they return
    shapes (..., d), (..., d, d) and (...).  The generator then evaluates a
    whole batch of points in one call of each, and a declared callable that
    returns any other shape raises ``ValueError``.  Without the declaration
    they are called one point at a time, as are the finite differences.
    """

    fn: Callable[..., np.ndarray]
    grad: Callable[..., np.ndarray] | None = None
    hess: Callable[..., np.ndarray] | None = None
    bounded: bool = False
    bound: float | None = None
    regime_tail: Callable[..., float] | None = None
    k_independent: bool = False
    label: str = "f"
    broadcasting: bool = False

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self):
        if self.bounded and self.bound is None:
            raise ValueError("bounded test functions must declare their sup-norm bound")
        if self.bound is not None and not self.bounded:
            raise ValueError("a sup-norm bound needs bounded=True")

    def _fd_step(self, x: np.ndarray) -> float:
        return FD_SCALE * (1.0 + float(np.linalg.norm(x)))

    def gradient(self, x, k) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(x, k), dtype=float)
        h = self._fd_step(x)
        g = np.empty_like(x)
        for i in range(x.shape[0]):
            e = np.zeros_like(x)
            e[i] = h
            g[i] = (float(self.fn(x + e, k)) - float(self.fn(x - e, k))) / (2.0 * h)
        return g

    def hessian(self, x, k) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.hess is not None:
            return np.asarray(self.hess(x, k), dtype=float)
        d = x.shape[0]
        h = self._fd_step(x)
        H = np.empty((d, d))
        f0 = float(self.fn(x, k))
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = h
            H[i, i] = (float(self.fn(x + ei, k)) - 2.0 * f0 + float(self.fn(x - ei, k))) / h ** 2
            for j in range(i + 1, d):
                ej = np.zeros(d)
                ej[j] = h
                H[i, j] = H[j, i] = (
                    float(self.fn(x + ei + ej, k)) - float(self.fn(x + ei - ej, k))
                    - float(self.fn(x - ei + ej, k)) + float(self.fn(x - ei - ej, k))
                ) / (4.0 * h ** 2)
        return H

    def gradients(self, xs, ks) -> np.ndarray:
        """``gradient`` at every point of a batch (xs: (..., d), ks: (...))."""
        return self._batched("grad", self.gradient, xs, ks, xs.shape)

    def hessians(self, xs, ks) -> np.ndarray:
        """``hessian`` at every point of a batch (xs: (..., d), ks: (...))."""
        return self._batched("hess", self.hessian, xs, ks, xs.shape + xs.shape[-1:])

    def regime_tails(self, xs, ks, L: int) -> np.ndarray:
        """``regime_tail`` at level L at every point of a batch."""
        return self._batched("regime_tail", lambda x, k, L: float(self.regime_tail(x, k, L)),
                             xs, ks, xs.shape[:-1], L)

    def _batched(self, name, pointwise, xs, ks, shape, *args) -> np.ndarray:
        """One call of the field ``name`` on the whole batch when this
        function broadcasts, else ``pointwise`` at each point; ``shape`` is
        the shape that the declaration promises."""
        ks = np.broadcast_to(ks, xs.shape[:-1])
        declared = getattr(self, name)
        if self.broadcasting and declared is not None:
            out = np.asarray(declared(xs, ks, *args), dtype=float)
            if out.shape != shape:
                raise ValueError(f"{self.label}: {name} declared to broadcast returned "
                                 f"shape {out.shape}, expected {shape}")
            return out
        out = np.array([pointwise(x, k, *args) for x, k in
                        zip(xs.reshape(-1, xs.shape[-1]), ks.ravel().tolist())])
        return out.reshape(xs.shape[:-1] + out.shape[1:])

    def check_derivatives(self, points) -> float:
        """Worst relative mismatch between analytic derivatives and central
        finite differences over the probe points (0.0 when none declared)."""
        worst = 0.0
        fd = TestFunction(self.fn)
        for p in points:
            x, k = np.asarray(p.x, dtype=float), p.k
            for declared, numeric in ((self.grad, fd.gradient), (self.hess, fd.hessian)):
                if declared is not None:
                    ref = numeric(x, k)
                    num = np.linalg.norm(np.asarray(declared(x, k), dtype=float) - ref)
                    worst = max(worst, num / (1.0 + np.linalg.norm(ref)))
        return worst


def as_test_function(f) -> TestFunction:
    return f if isinstance(f, TestFunction) else TestFunction(fn=f)


class GeneratorValue(NamedTuple):
    """A generator evaluation as [value +/- bracket]."""

    value: float
    bracket: float


class GeneratorBatch(NamedTuple):
    """Generator evaluations at a batch of points: ``value`` and ``bracket``
    (N,), NaN where the point failed, and ``failures`` mapping the index of
    each failed point to its error message."""

    value: np.ndarray
    bracket: np.ndarray
    failures: dict


# ---------------------------------------------------------------------------
# Jump terms, batched over points (x: (N, d), k: (N,))


def _c_squared(spec: ModelSpec):
    def c2(x, k, u):
        c = np.asarray(spec.jump_coeff(x, k, u), dtype=float)
        return sum_last(c * c)
    return c2


def _jump_outer_integral(spec: ModelSpec, f: TestFunction, xs: np.ndarray, ks: np.ndarray,
                         f0: np.ndarray, grads: np.ndarray, eps: float, quad_tol: float):
    """int_{|u|>eps} [f(x+c) - f(x) - <Df, c>] nu(du) and its quadrature
    error estimate, per point; f0 and grads are f and Df at the points."""
    def increment(x, k, f0, grad, u):
        c = np.asarray(spec.jump_coeff(x, k, u), dtype=float)
        return np.asarray(f.fn(x + c, k), dtype=float) - f0 - sum_last(grad * c)

    return quadrature.integrate(spec, increment, (xs, ks, f0, grads), eps,
                                spec.jump_measure.radius_max, quad_tol)


def _small_second_moment(spec: ModelSpec, xs: np.ndarray, ks: np.ndarray, eps: float,
                         quad_tol: float) -> np.ndarray:
    """int_{|u|<=eps} |c(x,k,u)|^2 nu(du) per point, closed form when available."""
    if spec.small_jump_cov is not None:
        cov = np.asarray(spec.small_jump_cov(xs, ks, eps), dtype=float)
        return np.trace(cov, axis1=-2, axis2=-1)
    return quadrature.integrate(spec, _c_squared(spec), (xs, ks), 0.0, eps, quad_tol)[0]


def _jump_second_moment_quadrature(spec: ModelSpec, x, k: int) -> float:
    """int |c(x,k,u)|^2 nu(du) by ``scipy.integrate.quad`` over the mark
    segments: the independent cross-check of the closed-form second moment."""
    x = np.asarray(x, dtype=float)
    value = quadrature.quad_reference(spec, _c_squared(spec), (x[None], np.array([int(k)])),
                                      0.0, spec.jump_measure.radius_max, CROSSCHECK_QUAD_TOL)
    return float(value[0])


def _hessian_sup_estimate(spec: ModelSpec, f: TestFunction, xs: np.ndarray, ks: np.ndarray,
                          eps: float) -> np.ndarray:
    """Heuristic sup of ||D^2 f|| over the range reachable by small jumps, per point.

    Probes the Hessian spectral norm at x and at axis displacements of size
    sup_{|u|=eps} |c(x,k,u)|; a bound estimate for the reported bracket, not
    a certified constant.
    """
    if spec.jump_measure.mark_dim == 1:
        dirs = np.array([[eps], [-eps]])
    else:
        angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        dirs = eps * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    c = np.asarray(spec.jump_coeff(xs[:, None, :], ks[:, None], dirs[None]), dtype=float)
    csup = np.max(row_norm(c), axis=1)
    d = xs.shape[1]
    shifts = np.concatenate([np.zeros((1, d)), np.eye(d), -np.eye(d)])
    probes = xs[:, None, :] + csup[:, None, None] * shifts
    hess = f.hessians(probes, ks[:, None])
    return np.max(np.abs(np.linalg.eigvalsh(hess)), axis=(1, 2))


# ---------------------------------------------------------------------------
# Generator evaluation


def _regime_levels(f: TestFunction, rates, xs: np.ndarray, ks: np.ndarray):
    """Truncation level L of the regime sum at every point and its certified
    tail: L doubles from 16 until the tail is below TAIL_TOL."""
    if f.regime_tail is None and not f.bounded:
        raise ValueError(
            "unbounded test function needs a regime_tail bound for the regime sum")
    levels = np.empty(len(ks), dtype=np.int64)
    tails = np.empty(len(ks))
    todo = np.arange(len(ks))
    L = 16
    while todo.size:
        if f.regime_tail is not None:
            tail = f.regime_tails(xs[todo], ks[todo], L)
        else:
            uk, inv = np.unique(ks[todo], return_inverse=True)
            tail = 2.0 * float(f.bound) * np.array(
                [certified_tail(rates, k, L) for k in uk.tolist()])[inv]
        done = tail <= TAIL_TOL
        levels[todo[done]] = L
        tails[todo[done]] = tail[done]
        todo = todo[~done]
        if todo.size and L >= L_CAP:
            raise TruncationError(f"regime sum tail not below {TAIL_TOL} within L={L_CAP}")
        L *= 2
    return levels, tails


def _generator(spec: ModelSpec, f: TestFunction, xs: np.ndarray, ks: np.ndarray):
    """Generator values and brackets at every point of the batch; raises on
    the first failure anywhere in it."""
    f0 = np.broadcast_to(np.asarray(f.fn(xs, ks), dtype=float), ks.shape)
    grads = f.gradients(xs, ks)
    hess = f.hessians(xs, ks)
    sig = np.asarray(spec.sigma(xs, ks), dtype=float)
    a = sig @ np.swapaxes(sig, -1, -2)
    b = np.asarray(spec.drift(xs, ks), dtype=float)
    value = 0.5 * np.trace(a @ hess, axis1=-2, axis2=-1) + np.sum(b * grads, axis=-1)
    bracket = np.zeros(len(ks))

    if spec.has_jumps:
        eps = min(SMALL_CUTOFF, 0.5 * spec.jump_measure.radius_max)
        outer, quad_err = _jump_outer_integral(spec, f, xs, ks, f0, grads, eps, QUAD_TOL)
        small2 = _small_second_moment(spec, xs, ks, eps, QUAD_TOL)
        sup_h = _hessian_sup_estimate(spec, f, xs, ks, eps)
        value += outer
        bracket += quad_err + 0.5 * sup_h * small2

    if not f.k_independent:
        levels, tails = _regime_levels(f, spec.rates, xs, ks)
        for L in sorted(set(levels.tolist())):
            idx = np.flatnonzero(levels == L)
            q = rate_rows(spec.rates, xs[idx], ks[idx], L)
            x = np.broadcast_to(xs[idx, None, :], (len(idx), L, xs.shape[1]))
            fvals = np.asarray(f.fn(x, np.arange(1, L + 1)), dtype=float)
            value[idx] += np.einsum("ij,ij->i", q, fvals - f0[idx, None])
        bracket += tails

    return value, bracket


def apply_generator(spec: ModelSpec, f, x, k: int) -> GeneratorValue:
    """Evaluate the generator at (x, k), returning [value +/- bracket].

    The constants SMALL_CUTOFF, QUAD_TOL and TAIL_TOL set the bracket: the
    quadrature error estimate, the small-jump Taylor bound and the regime tail.
    A point that is not a state of the model raises ``ValueError`` first.
    """
    state = spec.check_state(HybridState(x, k))
    value, bracket = _generator(spec, as_test_function(f), state.x[None], np.array([state.k]))
    return GeneratorValue(float(value[0]), float(bracket[0]))


def apply_generator_batch(spec: ModelSpec, f, xs, ks) -> GeneratorBatch:
    """``apply_generator`` at every point of a batch (xs: (N, d), ks: (N,)),
    with the mark integrals of all points in one quadrature call.

    A point whose evaluation fails fails alone: when the batch raises, its
    points are evaluated one at a time and only the failing ones are
    reported, NaN in ``value`` and ``bracket``.
    """
    f = as_test_function(f)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ks = np.asarray(ks, dtype=np.int64)
    try:
        return GeneratorBatch(*_generator(spec, f, xs, ks), {})
    except Exception:  # isolated point by point below
        pass
    value = np.full(len(ks), np.nan)
    bracket = np.full(len(ks), np.nan)
    failures = {}
    for i in range(len(ks)):
        try:
            (value[i],), (bracket[i],) = _generator(spec, f, xs[i:i + 1], ks[i:i + 1])
        except Exception as exc:  # reported per point
            failures[i] = str(exc)
    return GeneratorBatch(value, bracket, failures)


# ---------------------------------------------------------------------------
# Lyapunov drift certificates


def _check_finite(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite real number: an
    infinite tolerance or constant makes every margin pass, and NaN none."""
    if not (isinstance(value, numbers.Real) and np.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class LyapunovCertificate:
    """Dissipation certificate A V <= -alpha * rate + beta * 1_{box x regimes}.

    ``box`` is an axis-aligned ((lo, hi)) pair or None for all of R^d;
    ``regimes`` an inclusive (kmin, kmax) pair or None for all regimes.
    ``rate_fn`` must be >= 1 on the probed grid (checked during evaluation);
    when omitted, V itself is used.
    """

    V: TestFunction
    alpha: float
    beta: float
    rate_fn: Callable[..., np.ndarray] | None = None
    box: tuple | None = None
    regimes: tuple | None = None

    def __post_init__(self):
        for name in ("alpha", "beta"):
            _check_finite(name, getattr(self, name))

    def indicator(self, x, k):
        """1_{box x regimes} at x: (..., d), k: (...); a float at one point."""
        x = np.asarray(x, dtype=float)
        k = np.asarray(k)
        inside = np.ones(np.broadcast_shapes(x.shape[:-1], k.shape), dtype=bool)
        if self.box is not None:
            lo, hi = (np.asarray(v, dtype=float) for v in self.box)
            inside &= np.all((x >= lo) & (x <= hi), axis=-1)
        if self.regimes is not None:
            inside &= (self.regimes[0] <= k) & (k <= self.regimes[1])
        return inside.astype(float) if inside.ndim else float(inside)


@dataclass(frozen=True)
class DriftReport:
    xs: np.ndarray
    ks: np.ndarray
    values: np.ndarray
    margins: np.ndarray
    brackets: np.ndarray
    tol: float
    failures: tuple = ()

    @property
    def max_margin(self) -> float:
        return float(np.max(self.margins))

    @property
    def max_bracket(self) -> float:
        return float(np.max(self.brackets))

    @property
    def ok(self) -> bool:
        return not self.failures and bool(np.all(self.margins <= self.tol + self.brackets))

    def summary(self) -> str:
        status = "holds on grid" if self.ok else "VIOLATED on grid"
        return (f"drift certificate {status}: max margin {self.max_margin:.3e} "
                f"(tol {self.tol:.1e} + bracket <= {self.max_bracket:.3e}) "
                f"over {len(self.margins)} points")

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tol": self.tol,
            "max_margin": self.max_margin,
            "max_bracket": self.max_bracket,
            "n_points": int(len(self.margins)),
            "failures": list(self.failures),
            "points": [
                {"x": [float(v) for v in xr], "k": int(kk),
                 "generator": float(g), "margin": float(m), "bracket": float(br)}
                for xr, kk, g, m, br in zip(self.xs, self.ks, self.values,
                                            self.margins, self.brackets)
            ],
        }

    def to_csv(self, path):
        d = self.xs.shape[1]
        write_csv(path, [f"x{i+1}" for i in range(d)] + ["k", "generator", "margin", "bracket"],
                  self.xs, self.ks, self.values, self.margins, self.brackets)


GENERATOR_BLOCK = 256   # grid points per batched generator call in check_lyapunov


def _preconditions(V: TestFunction, rate_fn, xs: np.ndarray, ks: np.ndarray,
                   errors: dict) -> np.ndarray:
    """``rate_fn`` at every point where V and the rate pass the certificate's
    preconditions (finite, V >= 0, rate >= 1), NaN elsewhere; the message of
    each failing point goes into ``errors``.  A V declared to broadcast is
    evaluated on the whole grid at once, and point by point only when that
    call raises."""
    if V.broadcasting:
        try:
            v = np.broadcast_to(np.asarray(V.fn(xs, ks), dtype=float), ks.shape)
            r = np.broadcast_to(np.asarray(rate_fn(xs, ks), dtype=float), ks.shape)
        except Exception:  # evaluated point by point below
            pass
        else:
            bad = ~(np.isfinite(v) & np.isfinite(r)) | (v < 0) | (r < 1.0 - 1e-12)
            for i in np.flatnonzero(bad).tolist():
                errors[i] = (f"certificate preconditions violated: V={float(v[i])}, "
                             f"rate={float(r[i])}")
            return np.where(bad, np.nan, r)
    rates = np.full(len(ks), np.nan)
    for i, (xr, kk) in enumerate(zip(xs, ks.tolist())):
        try:
            v0 = float(V.fn(xr, kk))
            r0 = float(rate_fn(xr, kk))
            if not (np.isfinite(v0) and np.isfinite(r0)) or v0 < 0 or r0 < 1.0 - 1e-12:
                raise ValueError(f"certificate preconditions violated: V={v0}, rate={r0}")
            rates[i] = r0
        except Exception as exc:  # reported per point
            errors[i] = str(exc)
    return rates


def check_lyapunov(spec: ModelSpec, cert: LyapunovCertificate, xs, ks,
                   tol: float = 1e-6) -> DriftReport:
    """Evaluate the certificate margin A V + alpha*rate - beta*indicator on a grid.

    A nonpositive max margin (within tol plus the per-point generator bracket)
    means "certificate holds on grid" -- a numerical statement, never a proof.
    The generator runs on blocks of ``GENERATOR_BLOCK`` points, which bounds
    memory; evaluation failures are collected per point instead of aborting
    the sweep.
    """
    _check_finite("tol", tol)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ks = np.asarray(ks, dtype=int)
    if xs.shape[0] != ks.shape[0]:
        raise ValueError("xs and ks must have matching leading dimension")
    rate_fn = cert.rate_fn if cert.rate_fn is not None else cert.V.fn

    values = np.full(len(ks), np.nan)
    margins = np.full(len(ks), np.nan)
    brackets = np.zeros(len(ks))
    errors = {}
    rates = _preconditions(cert.V, rate_fn, xs, ks, errors)
    good = np.flatnonzero(np.isfinite(rates))
    for lo in range(0, good.size, GENERATOR_BLOCK):
        idx = good[lo:lo + GENERATOR_BLOCK]
        gen = apply_generator_batch(spec, cert.V, xs[idx], ks[idx])
        errors.update((int(idx[j]), msg) for j, msg in gen.failures.items())
        finite = np.isfinite(gen.value)
        for j in np.flatnonzero(~finite).tolist():
            errors.setdefault(int(idx[j]), f"generator value is not finite: {gen.value[j]}")
        values[idx[finite]] = gen.value[finite]
        brackets[idx[finite]] = gen.bracket[finite]
    ok = np.isfinite(values)
    margins[ok] = (values[ok] + cert.alpha * rates[ok]
                   - cert.beta * cert.indicator(xs[ok], ks[ok]))
    failures = tuple(f"({xs[i].tolist()}, {int(ks[i])}): {errors[i]}" for i in sorted(errors))
    return DriftReport(xs, ks, values, margins, brackets, tol, failures)


# ---------------------------------------------------------------------------
# Generator-integrator consistency


@dataclass(frozen=True)
class DynkinResult:
    lhs: float
    rhs: float
    stderr: float
    allowance: float
    z_score: float

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "stderr": self.stderr,
                "allowance": self.allowance, "z_score": self.z_score}


def dynkin_check(spec: ModelSpec, f, x, k: int, t_small: float, n_paths: int,
                 cfg, seed: int, threads: int = 1) -> DynkinResult:
    """Cross-validate integrator and generator through the short-time identity
    (E f(X_t, K_t) - f(x,k)) / t ~= A f(x,k).

    The z-score divides the discrepancy by Monte Carlo noise plus an explicit
    allowance: the generator bracket, a bound on the simulator's dropped
    small-jump bias, and a first-order-in-(t, h) Taylor term.  ``n_paths``
    must be at least 2 and (x, k) a state of the model, both checked first.
    """
    from dataclasses import replace

    from .simulate import _step_setup, simulate_ensemble

    if n_paths < 2:
        raise ValueError(f"the stderr needs at least two paths, got n_paths={n_paths}")
    state = spec.check_state(HybridState(x, k))
    x, k = state.x, state.k
    f = as_test_function(f)
    gen = apply_generator(spec, f, x, k)

    cfg_run = replace(cfg, horizon=t_small)
    ens = simulate_ensemble(spec, state, cfg_run, n_paths, seed, threads=threads)
    vals = np.asarray(f.fn(ens.x, ens.k), dtype=float)
    f0 = float(f.fn(x, k))
    lhs = (float(np.mean(vals)) - f0) / t_small
    stderr = float(np.std(vals, ddof=1)) / np.sqrt(n_paths) / t_small

    sim_bias = 0.0
    if spec.has_jumps and cfg_run.small_jump_policy == "drop":
        eps_sim = _step_setup(spec, cfg_run)[2]
        xs, ks = x[None], np.array([int(k)])
        small2 = _small_second_moment(spec, xs, ks, eps_sim, QUAD_TOL)[0]
        sup_h = _hessian_sup_estimate(spec, f, xs, ks, eps_sim)[0]
        sim_bias = 0.5 * sup_h * small2
    h_eff = cfg_run.step
    allowance = gen.bracket + sim_bias + (1.0 + abs(gen.value)) * (t_small + h_eff)
    z = abs(lhs - gen.value) / (stderr + allowance)
    return DynkinResult(lhs, gen.value, stderr, allowance, z)
