"""Monte Carlo estimator suite and the tabulated contraction/reachability functions.

Every estimator is deterministic given (inputs, master seed): path ensembles
are chunked with per-chunk RNG streams and aggregated in fixed path order, so
neither the thread count nor scheduling affects a single bit of output.
A sequence of perturbed starts (the Feller and strong Feller moduli) runs as
one coupled sweep: each chunk draws its numbers once and every separation
sees those draws, so the entries share common random numbers, and each
entry is what a run with that separation alone would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .coupling import (CouplingConfig, _bridge_crossing_prob, _resolve_lambda,
                       couple_ensemble, pair_one_step)
from . import quadrature
from .errors import EstimationError, QuadratureError
from .generator import as_test_function
from .model import HybridState, ModelSpec, RowTruncator, certified_tail
from .simulate import (IntegratorConfig, _check_positive, _sigma_lambda, derive_rng,
                       simulate_ensemble)

__all__ = [
    "EstimatorResult",
    "estimate_semigroup",
    "feller_modulus",
    "strong_feller_modulus",
    "estimate_transition",
    "estimate_killed_subtransition",
    "Partition",
    "InvariantReport",
    "estimate_invariant",
    "GFunction",
    "FFunction",
    "build_G",
    "build_F",
    "verify_coupling_drift",
    "reflection_cross_covariance",
    "marginal_vs_independent",
    "modulus_probe",
    "trend_ok",
]


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class EstimatorResult:
    estimate: float
    stderr: float
    ci95: tuple
    n_paths: int
    n_censored: int = 0
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")
        if not (self.ci95[0] <= self.estimate <= self.ci95[1]):
            raise ValueError("ci95 must contain the estimate")
        if self.n_censored > self.n_paths:
            raise ValueError("censored count exceeds path count")

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate, "stderr": self.stderr,
            "ci95": [self.ci95[0], self.ci95[1]],
            "n_paths": self.n_paths, "n_censored": self.n_censored,
            # leading-underscore extras hold bulk arrays (terminal data) and
            # stay out of the JSON view
            "extra": {k: (float(v) if np.isscalar(v) or isinstance(v, np.floating) else v)
                      for k, v in self.extra.items() if not k.startswith("_")},
        }


def _mean_result(values: np.ndarray, n_censored: int = 0, extra: dict | None = None,
                 absolute: bool = False) -> EstimatorResult:
    n = values.size
    if n == 0:
        raise EstimationError("no usable paths (all censored?)")
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    est = abs(mean) if absolute else mean
    return EstimatorResult(est, se, (est - 1.96 * se, est + 1.96 * se),
                           n + n_censored, n_censored, extra or {})


# ---------------------------------------------------------------------------
# Semigroup and transition estimators


def estimate_semigroup(spec: ModelSpec, f, start: HybridState, t: float, n_paths: int,
                       cfg: IntegratorConfig, seed: int, threads: int = 1,
                       censoring: str = "drop") -> EstimatorResult:
    """Plain Monte Carlo for E[f(X_t, K_t)] from the given start.

    Censored (guard-exceeding) paths are dropped ("drop": condition on
    non-exit) or replaced by the sup-norm worst case reported as an interval
    in extra ("bound": needs f.bound).
    """
    f = as_test_function(f)
    if censoring not in ("drop", "bound"):
        raise ValueError("censoring must be 'drop' or 'bound'")
    if censoring == "bound" and f.bound is None:
        raise ValueError("censoring='bound' needs a declared sup-norm bound")
    ens = simulate_ensemble(spec, start, replace(cfg, horizon=t), n_paths, seed,
                            threads=threads)
    vals = np.asarray(f.fn(ens.x, ens.k), dtype=float)
    cen = ens.censored
    alive_vals = vals[~cen]
    if alive_vals.size == 0:
        raise EstimationError("all paths censored; raise r_max or shorten the horizon")
    extra = {"bounded": f.bounded}
    if censoring == "bound" and cen.any():
        b = float(f.bound)
        lo = vals.copy(); lo[cen] = -b
        hi = vals.copy(); hi[cen] = b
        extra["estimate_lo"] = float(np.mean(lo))
        extra["estimate_hi"] = float(np.mean(hi))
    return _mean_result(alive_vals, n_censored=int(cen.sum()), extra=extra)


def _coupled_diff_result(spec, f, ens, t, bound) -> EstimatorResult:
    vals1 = np.asarray(f.fn(ens.x, ens.k), dtype=float)
    vals2 = np.asarray(f.fn(ens.xt, ens.kt), dtype=float)
    cen = np.isfinite(ens.exit_time)
    keep = ~cen
    diff = (vals2 - vals1)[keep]
    if diff.size == 0:
        raise EstimationError("all coupled pairs censored")
    p_zeta = float(np.mean(ens.zeta[keep] <= t))
    p_no_meet = float(np.mean(~(ens.t_meet[keep] <= t)))
    m = diff.size
    extra = {
        "p_zeta": p_zeta,
        "p_zeta_stderr": float(np.sqrt(p_zeta * (1 - p_zeta) / m)),
        "p_not_met": p_no_meet,
        "p_not_met_stderr": float(np.sqrt(p_no_meet * (1 - p_no_meet) / m)),
        "mean_absdiff_same_regime": float(np.mean(np.abs(
            np.asarray(f.fn(ens.xt, ens.k), dtype=float) - vals1)[keep])),
    }
    if bound is not None:
        extra["zeta_term"] = 2.0 * bound * p_zeta
        extra["meet_term"] = 4.0 * bound * p_no_meet
        extra["coupling_bound"] = extra["zeta_term"] + extra["meet_term"]
    return _mean_result(diff, n_censored=int(cen.sum()), extra=extra, absolute=True)


def _modulus_sweep(spec: ModelSpec, f, x, xt_sequence, k: int, t: float, n_paths: int,
                   cfg: CouplingConfig, seed: int, threads: int) -> list:
    """The coupled difference result of every separation of ``xt_sequence``,
    in order, from one ``couple_ensemble`` sweep under ``cfg.kind``."""
    seconds = [HybridState(np.asarray(xt, dtype=float), k) for xt in xt_sequence]
    if not seconds:
        return []
    ens = couple_ensemble(spec, HybridState(np.asarray(x, dtype=float), k), seconds,
                          replace(cfg, horizon=t), len(seconds) * n_paths, seed,
                          threads=threads, stream=0)
    return [_coupled_diff_result(spec, f, block, t, f.bound)
            for block in ens.blocks(len(seconds))]


def feller_modulus(spec: ModelSpec, f, x, xt_sequence, k: int, t: float, n_paths: int,
                   cfg: CouplingConfig, seed: int, threads: int = 1) -> list:
    """Semigroup modulus |P_t f(x~,k) - P_t f(x,k)| along a sequence x~ -> x,
    estimated with common random numbers under the synchronous coupling.

    Each entry also reports the decomposition pieces: the regime-splitting
    probability term 2*sup|f|*P{zeta<=t} and the same-regime difference
    E|f(X~,K) - f(X,K)|.
    """
    return _modulus_sweep(spec, as_test_function(f), x, xt_sequence, k, t, n_paths,
                          replace(cfg, kind="basic"), seed, threads)


def strong_feller_modulus(spec: ModelSpec, f, x, xt_sequence, k: int, t: float,
                          n_paths: int, cfg: CouplingConfig, seed: int,
                          threads: int = 1) -> list:
    """Modulus for merely measurable bounded f under the reflection coupling.

    Also reports the coupling bound 4*sup|f|*P{t<T} + 2*sup|f|*P{zeta<=t} and
    flags ``bound_ok`` (the estimate is below the bound plus 3 stderr; it is
    in fact below pathwise, since each pair's difference is dominated by the
    indicator combination that defines the bound).
    """
    f = as_test_function(f)
    if f.bound is None:
        raise ValueError("strong Feller modulus needs a declared sup-norm bound")
    out = _modulus_sweep(spec, f, x, xt_sequence, k, t, n_paths,
                         replace(cfg, kind="reflection"), seed, threads)
    for res in out:
        res.extra["bound_ok"] = bool(res.estimate <= res.extra["coupling_bound"]
                                     + 3.0 * res.stderr)
    return out


def _check_target(t: float, target_radius: float) -> None:
    if not (target_radius > 0 and t > 0):
        raise ValueError("need a positive target radius and time")


def _clopper_pearson_lower95(s: int, n: int) -> float:
    """One-sided 95% Clopper-Pearson lower bound on a success probability
    from s successes in n trials: the 5% quantile of Beta(s, n - s + 1), or 0
    when s = 0."""
    if s <= 0:
        return 0.0
    from scipy.special import betaincinv

    return float(betaincinv(s, n - s + 1, 0.05))


def estimate_transition(spec: ModelSpec, start: HybridState, t: float, target_center,
                        target_radius: float, target_regime: int, n_paths: int,
                        cfg: IntegratorConfig, seed: int, threads: int = 1,
                        adapt_until_positive: bool = False,
                        max_paths: int = 1 << 20,
                        keep_terminal: bool = False) -> EstimatorResult:
    """Estimate P{X_t in B(a, r), K_t = l} with a one-sided 95% lower
    confidence bound (Clopper-Pearson) in extra["lower95"].

    Censored paths count as misses (the conservative direction for a
    reachability lower bound).  With ``adapt_until_positive`` the path count
    doubles until the lower bound is positive or ``max_paths`` is reached.
    ``keep_terminal`` stashes the last batch's terminal states under
    extra["_terminal"] for CSV export.
    """
    _check_target(t, target_radius)
    if target_regime < 1:
        raise ValueError(f"target_regime must be >= 1 (regimes are 1-based), got {target_regime}")
    a = np.asarray(target_center, dtype=float)
    cfg = replace(cfg, horizon=t)
    total_n = 0
    total_hits = 0
    batch = 0
    n_censored = 0
    while True:
        ens = simulate_ensemble(spec, start, cfg, n_paths, seed, threads=threads,
                                stream=batch)
        hits = (np.linalg.norm(ens.x - a, axis=1) < target_radius) & (ens.k == target_regime)
        hits &= ~ens.censored
        n_censored += ens.n_censored
        total_hits += int(hits.sum())
        total_n += n_paths
        s, n = total_hits, total_n
        lower = _clopper_pearson_lower95(s, n)
        if not adapt_until_positive or lower > 0.0 or total_n >= max_paths:
            break
        batch += 1
        n_paths = min(n_paths * 2, max_paths - total_n)
    p = total_hits / total_n
    se = float(np.sqrt(p * (1 - p) / total_n))
    extra = {"lower95": lower, "hits": total_hits}
    if keep_terminal:
        extra["_terminal"] = {"x": ens.x, "k": ens.k}
    return EstimatorResult(p, se, (max(0.0, p - 1.96 * se), min(1.0, p + 1.96 * se)),
                           total_n, n_censored, extra)


def estimate_killed_subtransition(spec: ModelSpec, start: HybridState, t: float,
                                  target_center, target_radius: float, n_paths: int,
                                  cfg: IntegratorConfig, seed: int, threads: int = 1,
                                  keep_terminal: bool = False) -> EstimatorResult:
    """Weighted estimate of the killed sub-transition: the regime is frozen at
    its start value and each path carries exp(-int_0^t q_k(X(s)) ds)."""
    _check_target(t, target_radius)
    a = np.asarray(target_center, dtype=float)
    ens = simulate_ensemble(spec, start, replace(cfg, horizon=t), n_paths, seed,
                            threads=threads, regime="killed")
    vals = np.where(np.linalg.norm(ens.x - a, axis=1) < target_radius, ens.weight, 0.0)
    vals = np.where(ens.censored, 0.0, vals)  # censored contribute the worst case
    extra = {"mean_weight": float(np.mean(ens.weight))}
    if keep_terminal:
        extra["_terminal"] = {"x": ens.x, "k": ens.k, "weight": ens.weight}
    # censored paths stay in vals as 0, so they count once in n_paths
    return replace(_mean_result(vals, extra=extra), n_censored=ens.n_censored)


# ---------------------------------------------------------------------------
# Occupation measures


@dataclass(frozen=True)
class Partition:
    """Axis-aligned box partition plus a regime cap; one overflow cell on each
    factor catches mass outside the box / above the cap."""

    lo: tuple
    hi: tuple
    bins: tuple
    k_max: int

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        bins = np.asarray(self.bins)
        if not (lo.ndim == 1 and lo.size and lo.shape == hi.shape == bins.shape):
            raise ValueError("partition needs lo, hi and bins of one common length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError(f"partition needs finite lo and hi, got {self.lo!r} and {self.hi!r}")
        if not np.all(lo < hi):
            raise ValueError("partition needs lo < hi on every axis")
        if not np.all(bins >= 1):
            raise ValueError("partition needs at least one bin per axis")
        if not self.k_max >= 1:
            raise ValueError("partition needs k_max >= 1")
        # row-major strides of the box cells
        strides = np.concatenate((np.cumprod(bins[:0:-1])[::-1], [1]))
        object.__setattr__(self, "_grid", (lo, hi, (hi - lo) / bins, bins - 1, strides))

    @property
    def n_space(self) -> int:
        return int(np.prod(self.bins)) + 1

    @property
    def n_cells(self) -> int:
        return self.n_space * (self.k_max + 1)

    def flat_index(self, x: np.ndarray, k: np.ndarray) -> np.ndarray:
        # one axis at a time: ufuncs over an (n, d) array with a length-d
        # inner axis run d-element loops n times, several times slower
        inside, space = True, 0
        for c, lo, hi, w, top, stride in zip(np.ascontiguousarray(x.T), *self._grid,
                                             strict=True):
            inside = inside & (c >= lo) & (c < hi)
            space = space + np.clip(((c - lo) / w).astype(int), 0, top) * stride
        space = np.where(inside, space, self.n_space - 1)
        reg = np.minimum(k, self.k_max + 1) - 1
        return space * (self.k_max + 1) + reg


class _Occupation:
    """Ensemble observer: one batch's occupation counts of (start, cell) in
    the two half windows [t_burn, mid) and [mid, t_end].  ``block`` holds
    the start index of each of the batch's paths.  Each step's (x, k,
    alive) at t >= t_burn waits in a buffer, and one selection of the alive
    paths, one ``flat_index`` and one ``bincount`` bin ``BLOCK`` steps at a
    time; the buffer is flushed when the window changes and by the caller
    after the ensemble.  The counts are integers, so binning steps together
    gives the counts that binning them one by one would."""

    BLOCK = 16

    def __init__(self, partition: Partition, n_starts: int, t_burn: float, mid: float,
                 block: np.ndarray):
        self.partition = partition
        self.t_burn = t_burn
        self.mid = mid
        self.block = block
        self.counts = np.zeros((2, n_starts * partition.n_cells), dtype=np.int64)
        self.window = 0
        self.pending: list = []

    def __call__(self, i: int, t: float, x: np.ndarray, k: np.ndarray, alive: np.ndarray):
        if t < self.t_burn - 1e-12:
            return
        window = 0 if t < self.mid else 1
        if window != self.window:
            self.flush()
            self.window = window
        # copies, as the integrator owns x, k and alive
        self.pending.append((x.copy(), k.copy(), self.block, alive.copy()))
        if len(self.pending) == self.BLOCK:
            self.flush()

    def flush(self):
        if not self.pending:
            return
        x, k, start, alive = (np.concatenate(a) for a in zip(*self.pending))
        self.pending.clear()
        # compress, not boolean indexing: the latter copies (n, d) rows slowly
        x, k, start = (np.compress(alive, a, axis=0) for a in (x, k, start))
        self.counts[self.window] += np.bincount(
            start * self.partition.n_cells + self.partition.flat_index(x, k),
            minlength=self.counts.shape[1])


def _tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


@dataclass(frozen=True)
class InvariantReport:
    histograms: np.ndarray     # (n_starts, n_cells), normalized
    pairwise_tv: np.ndarray    # (n_starts, n_starts)
    window_tv: np.ndarray      # (n_starts,) first vs second half window
    starts: tuple
    t_burn: float
    t_end: float

    @property
    def max_pairwise_tv(self) -> float:
        return float(np.max(self.pairwise_tv)) if self.pairwise_tv.size else 0.0

    def to_dict(self) -> dict:
        return {
            "starts": [{"x": [float(v) for v in s.x], "k": s.k} for s in self.starts],
            "t_burn": self.t_burn, "t_end": self.t_end,
            "pairwise_tv": self.pairwise_tv.tolist(),
            "window_tv": self.window_tv.tolist(),
            "max_pairwise_tv": self.max_pairwise_tv,
        }


def estimate_invariant(spec: ModelSpec, starts: Sequence[HybridState], t_burn: float,
                       t_end: float, cfg: IntegratorConfig, partition: Partition,
                       seed: int, n_paths: int = 256, threads: int = 1) -> InvariantReport:
    """Time-averaged occupation over [t_burn, t_end] per start (averaged over a
    small path ensemble), with pairwise TV distances between the occupation
    histograms and a split-window TV self-test per start.

    All starts run as one ensemble of ``n_paths`` paths per start; start i
    draws from stream i, so its histogram is the one a lone ensemble of that
    start on stream i gives.  Each batch of the ensemble bins its own steps
    through an ``_Occupation`` observer, and the counts add up in batch
    order.
    """
    starts = tuple(starts)
    if not starts:
        raise ValueError("need at least one start")
    if n_paths < 1:
        raise ValueError("need at least one path per start")
    if not (0.0 <= t_burn < t_end):
        raise ValueError("need 0 <= t_burn < t_end")
    if len(partition.lo) != spec.d:
        raise ValueError(f"partition has {len(partition.lo)} axes, the state {spec.d}")
    cfg = replace(cfg, horizon=t_end)
    mid = 0.5 * (t_burn + t_end)
    m, n_cells = len(starts), partition.n_cells
    ens = simulate_ensemble(spec, starts, cfg, m * n_paths, seed, threads=threads,
                            observer=partial(_Occupation, partition, m, t_burn, mid))
    for occ in ens.observers:
        occ.flush()
    w1, w2 = np.sum([occ.counts for occ in ens.observers], axis=0).reshape(2, m, n_cells)
    full = w1 + w2
    mass = full.sum(axis=1)
    if np.any(mass == 0):
        raise EstimationError("no occupation mass collected; check the window")
    hists = full / mass[:, None]
    window_tv = [_tv(a / max(a.sum(), 1), b / max(b.sum(), 1)) for a, b in zip(w1, w2)]

    tv = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            tv[i, j] = tv[j, i] = _tv(hists[i], hists[j])
    return InvariantReport(hists, tv, np.asarray(window_tv), starts, t_burn, t_end)


# ---------------------------------------------------------------------------
# Contraction function G and reachability function F


def _cumulative_integral(g: Callable, grid: np.ndarray) -> np.ndarray:
    """Per-cell adaptive quadrature of g accumulated along the grid.

    g may blow up at 0 as long as it stays integrable there; divergence shows
    up as a non-finite first cell and raises.
    """
    from scipy import integrate

    vals = np.zeros(grid.size)
    for i in range(grid.size - 1):
        out = integrate.quad(g, grid[i], grid[i + 1], epsabs=1e-13, epsrel=1e-11,
                             limit=200, full_output=1)
        inc, err = out[0], out[1]
        if (not np.isfinite(inc) or inc < -1e-12
                or err > 1e-6 * (1.0 + abs(inc))):
            raise QuadratureError(
                f"integral of g over [{grid[i]:.3g}, {grid[i+1]:.3g}] did not "
                "converge; g must be >= 0 with a convergent integral near 0")
        vals[i + 1] = vals[i] + max(inc, 0.0)
    if not np.isfinite(vals[-1]):
        raise QuadratureError("the integral of g over (0, 1) diverges")
    return vals


@dataclass(frozen=True)
class GFunction:
    """Tabulated concave contraction gauge on [0, 1].

    Construction guarantees, in exact floating point, G(0) = 0, nondecreasing
    values and nonincreasing increments (discrete concavity).  ``alpha`` is
    the largest tabulated abscissa with r <= G(r) on [0, alpha]; it can be 0
    (flagged by ``alpha_boundary``) exactly when the initial slope is not
    above one, which happens for g vanishing a.e.
    """

    kappa_R: float
    lambda_R: float
    rs: np.ndarray
    values: np.ndarray
    deriv: np.ndarray
    alpha: float
    alpha_boundary: bool

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.interp(np.clip(r, 0.0, self.rs[-1]), self.rs, self.values)

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        return np.interp(np.clip(r, 0.0, self.rs[-1]), self.rs, self.deriv)


def build_G(kappa_R: float, lambda_R: float, g: Callable, grid_n: int = 1 << 12) -> GFunction:
    """Tabulate G(r) = int_0^r exp(-m Psi(s)) int_s^1 exp(m Psi(v)) dv ds,
    with m = kappa_R / (2 lambda_R) and Psi the cumulative integral of g.

    The inner integrals of g use per-cell adaptive quadrature; the outer
    layers accumulate trapezoid cells, which keeps the discrete monotonicity
    and concavity of the tabulation exact.  alpha is then located by bisection
    on r - G(r) within the first sign-change cell.  ``kappa_R`` and
    ``lambda_R`` must be positive and finite.
    """
    _check_positive("kappa_R", kappa_R, finite=True)
    _check_positive("lambda_R", lambda_R, finite=True)
    grid = np.linspace(0.0, 1.0, grid_n + 1)
    m = kappa_R / (2.0 * lambda_R)
    psi = _cumulative_integral(g, grid)
    phi = m * psi
    if phi[-1] > 500.0:
        raise ValueError("kappa_R/(2 lambda_R) * int g is too large to tabulate in doubles")
    E = np.exp(-phi)
    H = np.exp(phi)
    dh = np.diff(grid)
    j_cells = 0.5 * (H[1:] + H[:-1]) * dh
    # suffix sums keep I nonincreasing exactly
    I = np.concatenate([np.cumsum(j_cells[::-1])[::-1], [0.0]])
    gp = E * I
    g_cells = 0.5 * (gp[1:] + gp[:-1]) * dh
    values = np.concatenate([[0.0], np.cumsum(g_cells)])

    ok = grid <= values
    if bool(np.all(ok[1:])):
        alpha, boundary = float(grid[-1]), False
    else:
        j = 1 + int(np.argmin(ok[1:]))  # first grid point with r > G(r)
        if j == 1:
            alpha, boundary = 0.0, True
        else:
            lo, hi = grid[j - 1], grid[j]
            f_lo = lo - float(np.interp(lo, grid, values))
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                f_mid = mid - float(np.interp(mid, grid, values))
                if (f_mid > 0) == (f_lo > 0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            alpha, boundary = float(lo), False
    return GFunction(kappa_R, lambda_R, grid, values, gp, alpha, boundary)


@dataclass(frozen=True)
class FFunction:
    """Tabulated concave reachability gauge on [0, inf), built through the
    compactifying substitution s = r / (1 + r)."""

    s_grid: np.ndarray
    f_tab: np.ndarray

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        s = r / (1.0 + r)
        return np.interp(s, self.s_grid, self.f_tab)

    def tabulate_r(self, r_grid) -> np.ndarray:
        return self(np.asarray(r_grid, dtype=float))


def build_F(g: Callable, grid_n: int = 1 << 12) -> FFunction:
    """Tabulate F(r) = int_0^{r/(1+r)} exp(-int_0^s g(w) dw) ds.

    The unit integrand bound gives 0 <= F(r) <= r/(1+r) <= 1; monotone
    nonincreasing integrand values make the tabulation concave cell by cell.
    """
    s_grid = np.linspace(0.0, 1.0, grid_n + 1)
    psi = _cumulative_integral(g, s_grid)
    integrand = np.exp(-psi)
    cells = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(s_grid)
    f_tab = np.concatenate([[0.0], np.cumsum(cells)])
    return FFunction(s_grid, f_tab)


# ---------------------------------------------------------------------------
# Coupled moment and drift diagnostics


@dataclass(frozen=True)
class CrossCovReport:
    empirical: np.ndarray
    target: np.ndarray
    stderr: np.ndarray
    max_z: float

    @property
    def ok(self) -> bool:
        return self.max_z <= 4.0

    def to_dict(self) -> dict:
        return {"empirical": self.empirical.tolist(), "target": self.target.tolist(),
                "stderr": self.stderr.tolist(), "max_z": self.max_z, "ok": self.ok}


def reflection_cross_covariance(spec: ModelSpec, x, xt, k: int, h: float, n: int,
                                lambda_R: float, seed: int) -> CrossCovReport:
    """One-step moment test of the reflection coupling's diffusion block.

    From the frozen pair state, the drift-centered increments must satisfy
    E[dX dX~^T] = [lam (I - 2uu^T) + s_lam(x) s_lam(x~)^T] h.  Jumps are
    excluded: they are synchronous and carry their own (separate) cross term,
    while this test isolates the engineered Brownian cross-covariance.
    """
    x = np.asarray(x, dtype=float)
    xt = np.asarray(xt, dtype=float)
    if np.allclose(x, xt):
        raise ValueError("probe states must differ (the reflection direction needs x != x~)")
    cfg = CouplingConfig(step=h, horizon=h, kind="reflection", lambda_R=lambda_R)
    dX, dXt = pair_one_step(spec, x, xt, k, n, cfg, derive_rng(seed, 0, 0), with_jumps=False)
    K1 = np.full(1, k, dtype=np.int64)
    b1 = np.asarray(spec.drift(x[None, :], K1), dtype=float)[0]
    b2 = np.asarray(spec.drift(xt[None, :], K1), dtype=float)[0]
    dXc = dX - b1 * h
    dXtc = dXt - b2 * h

    diff = xt - x
    u = diff / np.linalg.norm(diff)
    d = spec.d
    sl1 = _sigma_lambda(spec, x[None, :], K1, lambda_R)[0][0]
    sl2 = _sigma_lambda(spec, xt[None, :], K1, lambda_R)[0][0]
    ghat = lambda_R * (np.eye(d) - 2.0 * np.outer(u, u)) + sl1 @ sl2.T
    target = ghat * h

    prods = np.einsum("ni,nj->nij", dXc, dXtc)
    emp = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / np.sqrt(n)
    z = np.abs(emp - target) / np.where(se > 0, se, 1.0)
    return CrossCovReport(emp, target, se, float(z.max()))


@dataclass(frozen=True)
class DriftCheckReport:
    pairs: tuple
    estimates: np.ndarray
    stderrs: np.ndarray
    allowances: np.ndarray
    threshold_base: float  # -2 lambda_R
    clipped: int

    @property
    def ok(self) -> bool:
        return bool(np.all(self.estimates
                           <= self.threshold_base + 4.0 * (self.stderrs + self.allowances)))

    def to_dict(self) -> dict:
        return {
            "threshold_base": self.threshold_base,
            "ok": self.ok,
            "rows": [
                {"x": list(map(float, np.atleast_1d(p[0]))),
                 "xt": list(map(float, np.atleast_1d(p[1]))), "k": int(p[2]),
                 "estimate": float(e), "stderr": float(s), "bias_allowance": float(a)}
                for p, e, s, a in zip(self.pairs, self.estimates, self.stderrs,
                                      self.allowances)
            ],
        }


def verify_coupling_drift(spec: ModelSpec, Gf: GFunction, pairs, h_small: float,
                          n_paths: int, cfg: CouplingConfig, seed: int,
                          threads: int = 1) -> DriftCheckReport:
    """Short-time contraction of G(|X~ - X|) under the reflection coupling.

    For each frozen pair, estimates (E[G(|Delta_{h and T}|)] - G(|Delta_0|)) / h
    over one-step transitions stopped at the meeting time: the within-step
    crossing of the separation is sampled with the same Brownian-bridge rule
    as the coupled engine, and met samples contribute the stopped value
    G(0) = 0.  Without the stopping, the separation reflects off zero inside
    the step and the gauge grows again, which is exactly what the contraction
    statement excludes.  Regimes are held fixed (a single step cannot feed a
    switch back into the positions).

    The check is estimate <= -2 lambda_R + 4 (stderr + bias allowance), with
    the allowance combining the Taylor scale 2 lambda_R sqrt(4 lambda_R h)/r0
    and the early-stopping deficit 2 lambda_R p_cross.  Pair separations must
    respect the gauge's validity range alpha (skipped when alpha degenerated
    to 0) and delta0.
    """
    step_cfg = replace(cfg, kind="reflection", step=h_small, horizon=h_small)
    lam = _resolve_lambda(spec, step_cfg)
    limit = cfg.delta0 if Gf.alpha_boundary else min(Gf.alpha, cfg.delta0)
    ests, ses, allows = [], [], []
    clipped = 0
    for idx, (x, xt, k) in enumerate(pairs):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xt = np.atleast_1d(np.asarray(xt, dtype=float))
        r0 = float(np.linalg.norm(xt - x))
        if not (0.0 < r0 <= limit + 1e-12):
            raise ValueError(f"pair separation {r0} outside (0, {limit}]")
        if max(np.linalg.norm(x), np.linalg.norm(xt)) > cfg.ball_radius:
            raise ValueError("pair states must lie inside the coupling ball radius")
        rng = derive_rng(seed, idx, 0)
        dX, dXt = pair_one_step(spec, x, xt, int(k), n_paths, step_cfg, rng)
        end = (xt + dXt) - (x + dX)
        delta_h = np.linalg.norm(end, axis=1)
        # bridge-crossing sample, as in the coupled engine (frozen-state Abar)
        K1 = np.full(1, k, dtype=np.int64)
        sl1 = _sigma_lambda(spec, x[None, :], K1, lam)[0]
        sl2 = _sigma_lambda(spec, xt[None, :], K1, lam)[0]
        sep0 = (xt - x)[None, :]
        p_cross = _bridge_crossing_prob(sep0, end, r0, delta_h, sl1, sl2, sep0 / r0, lam,
                                        h_small)
        met = rng.random(n_paths) < p_cross
        clipped += int(np.count_nonzero(delta_h > Gf.rs[-1]))
        vals = np.where(met, 0.0, Gf(delta_h))
        est = (float(np.mean(vals)) - float(Gf(r0))) / h_small
        se = float(np.std(vals, ddof=1)) / np.sqrt(n_paths) / h_small
        allow = 2.0 * lam * (np.sqrt(4.0 * lam * h_small) / r0 + float(np.mean(met)))
        ests.append(est)
        ses.append(se)
        allows.append(allow)
    return DriftCheckReport(tuple(pairs), np.asarray(ests), np.asarray(ses),
                            np.asarray(allows), -2.0 * lam, clipped)


# ---------------------------------------------------------------------------
# Marginal-law and trend checks


def _pooled_regime_table(k1: np.ndarray, k2: np.ndarray, min_count: int = 10):
    """2 x B contingency table over regimes, pooling the sparse upper tail so
    every column keeps a workable total."""
    kmax = int(max(k1.max(), k2.max()))
    cols = []
    pool1 = pool2 = 0
    for kk in range(kmax, 0, -1):
        c1 = int(np.count_nonzero(k1 == kk))
        c2 = int(np.count_nonzero(k2 == kk))
        pool1 += c1
        pool2 += c2
        if pool1 + pool2 >= min_count:
            cols.append((pool1, pool2))
            pool1 = pool2 = 0
    if pool1 + pool2 > 0:
        if cols:
            last = cols.pop()
            cols.append((last[0] + pool1, last[1] + pool2))
        else:
            cols.append((pool1, pool2))
    table = np.array(cols).T
    return table[:, ::-1]


def marginal_vs_independent(spec: ModelSpec, start: HybridState, start2: HybridState,
                            t: float, n_paths: int, cfg: CouplingConfig, seed: int,
                            threads: int = 1) -> dict:
    """Compare both marginals of a coupled run against independent simulations
    from the same starts: two-sample KS on the first state coordinate and a
    chi-square on the regime distribution, for each component (4 p-values)."""
    from scipy import stats

    cfg_run = replace(cfg, horizon=t)
    ens = couple_ensemble(spec, start, start2, cfg_run, n_paths, seed,
                          threads=threads, stream=0)
    ind1 = simulate_ensemble(spec, start, cfg_run, n_paths, seed + 1, threads=threads,
                             stream=1)
    ind2 = simulate_ensemble(spec, start2, cfg_run, n_paths, seed + 2, threads=threads,
                             stream=2)
    out = {}
    out["ks_first"] = float(stats.ks_2samp(ens.x[:, 0], ind1.x[:, 0]).pvalue)
    out["ks_second"] = float(stats.ks_2samp(ens.xt[:, 0], ind2.x[:, 0]).pvalue)
    out["chi2_first"] = float(stats.chi2_contingency(
        _pooled_regime_table(ens.k, ind1.k))[1])
    out["chi2_second"] = float(stats.chi2_contingency(
        _pooled_regime_table(ens.kt, ind2.k))[1])
    return out


def modulus_probe(spec: ModelSpec, k: int, pairs, rel_tol: float = 1e-10,
                  quad_tol: float = 1e-9) -> dict:
    """Empirical continuity-modulus diagnostic (a probe, never a proof).

    For each pair (x, z) reports the separation together with the raw
    coefficient-increment quantities whose growth in the separation the
    continuity hypotheses constrain: 2<x-z, b(x,k)-b(z,k)>, the squared
    diffusion increment |sigma(x,k)-sigma(z,k)|^2, the jump increment
    int |c(x,k,u)-c(z,k,u)|^2 nu(du) (by the batched mark quadrature over all
    pairs), and the rate-row increment sum_l |q_kl(x)-q_kl(z)| plus certified
    tails.
    """
    pairs = [tuple(np.atleast_1d(np.asarray(v, dtype=float)) for v in pair) for pair in pairs]
    out = {"separation": [], "drift_pairing": [], "sigma_sq": [],
           "jump_sq": np.zeros(len(pairs)), "rate_row": []}
    for x, z in pairs:
        out["separation"].append(float(np.linalg.norm(x - z)))
        bx = np.asarray(spec.drift(x, k), dtype=float)
        bz = np.asarray(spec.drift(z, k), dtype=float)
        out["drift_pairing"].append(2.0 * float((x - z) @ (bx - bz)))
        sx = np.asarray(spec.sigma(x, k), dtype=float)
        sz = np.asarray(spec.sigma(z, k), dtype=float)
        out["sigma_sq"].append(float(np.sum((sx - sz) ** 2)))
    if pairs:
        xs, zs = (np.stack(side) for side in zip(*pairs))
        n = len(pairs)
        # all rows share one level, so one certified tail covers each side
        rows, ls = RowTruncator(spec.rates, rel_tol, l_start=8).rows(
            np.concatenate([xs, zs]), np.full(2 * n, k))
        out["rate_row"] = (np.abs(rows[:n] - rows[n:]).sum(axis=1)
                           + 2.0 * certified_tail(spec.rates, k, len(ls)))
    if spec.has_jumps and pairs:
        def c_diff_sq(x, z, u):
            dc = (np.asarray(spec.jump_coeff(x, k, u), dtype=float)
                  - np.asarray(spec.jump_coeff(z, k, u), dtype=float))
            return np.sum(dc * dc, axis=-1)

        out["jump_sq"] = quadrature.integrate(spec, c_diff_sq, (xs, zs), 0.0,
                                              spec.jump_measure.radius_max, quad_tol)[0]
    return {key: np.asarray(v) for key, v in out.items()}


def trend_ok(results: Sequence[EstimatorResult], threshold: float) -> tuple:
    """Finite-sample reading of 'the estimates tend to zero': along the
    sequence they are nonincreasing up to twice the combined stderr, and the
    last lies below the absolute threshold."""
    ests = [r.estimate for r in results]
    ses = [r.stderr for r in results]
    mono = all(ests[i + 1] <= ests[i] + 2.0 * (ses[i] + ses[i + 1])
               for i in range(len(ests) - 1))
    final = ests[-1] <= threshold
    detail = {"estimates": ests, "stderrs": ses, "monotone": mono,
              "final_below": final, "threshold": threshold}
    return bool(mono and final), detail
