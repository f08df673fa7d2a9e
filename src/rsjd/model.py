"""Data model for regime-switching jump diffusions with countably many regimes.

A model couples a d-dimensional SDE with drift ``b(x,k)``, diffusion matrix
``sigma(x,k)`` and compensated jumps ``c(x,k,u)`` driven by a sigma-finite
mark measure ``nu``, to a regime chain on {1,2,...} with state-dependent
rates ``q_kl(x)``.  All coefficient callables follow a broadcasting
convention so that the same functions serve pointwise evaluation and
vectorized path ensembles:

* ``drift(x, k)``      -- x: (..., d), k: (...)          -> (..., d)
* ``sigma(x, k)``      -- x: (..., d), k: (...)          -> (..., d, d)
* ``jump_coeff(x,k,u)``-- u: (..., mark_dim)             -> (..., d)
* ``rates.rate(x,k,l)``-- x: (..., d), k/l broadcastable -> broadcast shape

The regime index set is infinite; every row of the rate matrix is handled
through truncation with a caller-certified tail bound, so truncation error
stays auditable.  Only ``rate_rows`` (rows at a fixed level) and
``certified_tail`` (the validated tail lookup) touch the rate matrix; all
other row code, ``RowTruncator`` first, is built on them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from .errors import TruncationError

__all__ = [
    "HybridState",
    "JumpMeasureSpec",
    "RateMatrixSpec",
    "ModelSpec",
    "ValidationCheck",
    "ValidationReport",
    "validate_model",
    "rate_rows",
    "certified_tail",
    "q_row_truncated",
    "RowTruncator",
]

# rate-row entries per block of ``RowTruncator.row_sums``: a block of
# ROW_SUM_ENTRIES // L paths (512 at L = 32) stays in cache; the sums do not
# depend on it
ROW_SUM_ENTRIES = 16384
# relative slack on the whole-row bound Qbar_k of the switch screen, so that
# round-off in a row sum can never drop a switch that should fire, and on the
# r_max screen of the step loops, so that round-off in a norm can never hide
# a crossing
SCREEN_SLACK = 1.0 + 1e-12
# the largest truncation level L that any rate row or regime sum may need
L_CAP = 1 << 20
PROBE_L_START = 8   # first level of the row probes q_row_truncated and modulus_probe


def _check_positive(name: str, value, *, finite: bool) -> None:
    """Raise ``ValueError`` unless ``value`` is a real number > 0, which NaN
    fails; with ``finite``, +inf fails too."""
    if not (isinstance(value, numbers.Real) and value > 0
            and (not finite or value < np.inf)):
        need = "positive and finite" if finite else "positive (inf for no limit)"
        raise ValueError(f"{name} must be {need}, got {value!r}")


@dataclass(frozen=True)
class HybridState:
    """A point (x, k) of the hybrid state space R^d x {1,2,...}.

    ``k`` is stored as an ``int``; a bool, a fractional or non-finite number
    and a non-number raise ``ValueError``, while a whole float such as 3.0, or
    a 0-d array holding one, is regime 3."""

    x: np.ndarray
    k: int

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if x.ndim != 1:
            raise ValueError("state vector must be one-dimensional")
        if not np.all(np.isfinite(x)):
            raise ValueError("state vector must be finite")
        k = self.k
        if isinstance(k, (np.ndarray, np.generic)) and k.ndim == 0:
            k = k.item()
        # int() would turn 2.5 into regime 2 and True into regime 1
        whole = isinstance(k, numbers.Integral) or (
            isinstance(k, numbers.Real) and float(k).is_integer())
        if isinstance(k, bool) or not whole:
            raise ValueError(f"regime index must be a whole number, got {self.k!r}")
        if k < 1:
            raise ValueError("regime index must be >= 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "k", int(k))

    @property
    def d(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class JumpMeasureSpec:
    """Description of the jump mark measure nu on an annulus 0 < |u| < radius_max.

    nu may have infinite total mass (it usually does); only the restriction to
    {|u| > eps} is sampled directly.  ``large_jump_rate`` and
    ``large_jump_quantile`` therefore take the cutoff as an argument, and the
    part below the cutoff is handled by the integrator's small-jump policy.

    ``large_jump_quantile(eps, U)`` is the inverse-CDF map of the normalized
    restriction of nu to {|u| > eps}: U is a (2, n) block of uniforms on
    [0, 1), and column j of U gives mark j of the (n, mark_dim) result.  Row 0
    drives the magnitude and row 1 the direction (the sign in 1-d, the angle
    in 2-d).  ``large_jump_quantile`` must map the columns of U independently,
    with no other state: mark j depends on column j alone.  The integrators
    rely on it: they draw one uniform block per RNG stream and step, and map
    the marks of a block of steps (``simulate._draw_block``) in one call,
    which must give bit for bit the marks that one call per step and jump
    round would.

    n marks from a generator are ``large_jump_quantile(eps, rng.random((2, n)))``.

    ``c_second_moment(x, k)`` returns the full integral of |c(x,k,u)|^2 nu(du);
    built-in models supply it in closed form so that growth checks and
    neglected-variance reports do not need quadrature.
    """

    mark_dim: int
    density: Callable[[np.ndarray], np.ndarray]
    epsilon: float
    large_jump_rate: Callable[[float], float]
    large_jump_quantile: Callable[[float, np.ndarray], np.ndarray]
    c_second_moment: Callable[..., np.ndarray] | None = None
    radial_density: Callable[[np.ndarray], np.ndarray] | None = None
    radius_max: float = 1.0

    # not a field: perfbench's tracer reads this name among the callables it
    # wraps and skips it while it is None
    large_jump_sampler = None

    def __post_init__(self):
        if not (0.0 < self.epsilon < self.radius_max < np.inf):
            raise ValueError("small-jump cutoff must lie inside the bounded mark domain: need "
                             f"0 < epsilon < radius_max < inf, got {self.epsilon!r} and "
                             f"{self.radius_max!r}")


@dataclass(frozen=True)
class RateMatrixSpec:
    """State-dependent rate matrix q_kl(x) over the infinite regime set.

    ``rate(x, k, l)`` must be nonnegative for l != k; its value at l == k is
    never used (callers mask the diagonal).  ``tail_bound(k, L)`` must bound
    sum_{l>L, l!=k} q_kl(x) uniformly in x and tend to 0 as L grows; it is the
    certificate that makes row truncation sound.  ``tail_bound(k, 0)`` is the
    uniform bound on the whole row q_k(x), which the integrators screen for
    switches with, so it must be valid at L = 0: every ``RowTruncator.rows``
    call checks the whole-row bound, and a row whose sum exceeds it raises
    ``TruncationError``, as does a NaN, infinite or negative tail.  The
    optional closed form ``row_sum(x, k)`` of q_k(x) is an oracle for tests
    only: a killed run's survival weight takes ``RowTruncator.row_sums``, the
    sums of its truncated rows, as the closed form differs at round-off and
    would move the weights.  ``kappa0``, when given, must be positive and
    finite.
    """

    rate: Callable[..., np.ndarray]
    tail_bound: Callable[[int, int], float] | None
    row_sum: Callable[..., np.ndarray] | None = None
    kappa0: float | None = None

    def __post_init__(self):
        if self.kappa0 is not None:
            _check_positive("kappa0", self.kappa0, finite=True)


@dataclass(frozen=True)
class ModelSpec:
    """Full coefficient bundle for one regime-switching jump diffusion.

    Optional closed-form helpers avoid per-step quadrature in the integrator:
    ``jump_compensator(x,k,eps)`` is the drift correction
    int_{|u|>eps} c(x,k,u) nu(du), and ``small_jump_cov(x,k,eps)`` is
    int_{|u|<=eps} c c^T nu(du) (used by the gaussian small-jump policy and by
    neglected-variance reports).  Without ``jump_compensator`` every step
    integrates c against nu at each path's own state with the batched rule of
    :mod:`rsjd.quadrature` (composite Gauss-Legendre on geometrically graded
    panels, two orders whose difference is the error estimate), and raises
    ``QuadratureError`` where that estimate exceeds the tolerance.
    ``jump_radial`` declares that c depends on u only through |u|, enabling
    radial quadrature for 2-d mark spaces.  The declared constants
    ``ellipticity_floor`` and ``growth_constant``, when given, must be
    positive and finite.
    """

    d: int
    drift: Callable[..., np.ndarray]
    sigma: Callable[..., np.ndarray]
    rates: RateMatrixSpec
    jump_coeff: Callable[..., np.ndarray] | None = None
    jump_measure: JumpMeasureSpec | None = None
    ellipticity_floor: float | None = None
    growth_constant: float | None = None
    jump_compensator: Callable[..., np.ndarray] | None = None
    small_jump_cov: Callable[..., np.ndarray] | None = None
    jump_radial: bool = False
    default_lyapunov: Any = None
    regime_tol: float = 1e-9   # default relative tolerance for rate-row truncation
    name: str = "custom"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if (self.jump_coeff is None) != (self.jump_measure is None):
            raise ValueError("jump coefficient and jump measure must be supplied together")
        if not 0.0 < self.regime_tol < np.inf:
            raise ValueError(f"regime_tol must be positive and finite, got {self.regime_tol!r}")
        for name in ("ellipticity_floor", "growth_constant"):
            if getattr(self, name) is not None:
                _check_positive(name, getattr(self, name), finite=True)

    @property
    def has_jumps(self) -> bool:
        return self.jump_coeff is not None

    def check_state(self, state: HybridState) -> HybridState:
        if state.d != self.d:
            raise ValueError(f"state dimension {state.d} does not match model dimension {self.d}")
        return state


# ---------------------------------------------------------------------------
# Rate-row truncation


@lru_cache(maxsize=64)
def _regime_grid(L: int) -> np.ndarray:
    """The target regimes 1..L of a row at level L, read-only and shared."""
    ls = np.arange(1, L + 1)
    ls.flags.writeable = False
    return ls


def rate_rows(rates: RateMatrixSpec, x: np.ndarray, k, L: int) -> np.ndarray:
    """Rows q_{k_i, l}(x_i) for l = 1..L as an (n, L) array (x: (n, d),
    k: (n,) or one regime shared by every row), with the diagonal l == k_i
    zeroed and negative values clipped.  The array is always a fresh one:
    ``rate`` may return a cached or read-only array, which is never written."""
    k = np.asarray(k)
    ls = _regime_grid(L)
    # x gains a broadcast axis so (n, 1, d) states pair with (n, 1) regimes
    # and the (1, L) target grid to produce (n, L) rows
    q = np.asarray(rates.rate(x[..., None, :], k[..., None], ls[None, :]), dtype=float)
    if k.ndim:
        # the clip makes the fresh array, whose diagonal is then zeroed
        shape = k.shape + (L,)
        if q.shape != shape:
            q = np.broadcast_to(q, shape)
        q = np.maximum(q, 0.0)
        q[ls == k[..., None]] = 0.0
        return q
    # one regime: its diagonal is one column, zeroed after the clip
    if q.ndim < 2 or q.shape[-1] != L:
        q = np.broadcast_to(q, np.broadcast_shapes(q.shape, (1, L)))
    q = np.maximum(q, 0.0)
    if 1 <= k <= L:
        q[..., int(k) - 1] = 0.0
    return q


def certified_tail(rates: RateMatrixSpec, k: int, L: int) -> float:
    """``tail_bound(k, L)``, validated: ``TruncationError`` when the model has
    no tail bound or the value is NaN, infinite or negative."""
    if rates.tail_bound is None:
        raise TruncationError("rate matrix has no tail bound; cannot certify truncation")
    tail = float(rates.tail_bound(k, L))
    if not 0.0 <= tail < np.inf:
        raise TruncationError(
            f"tail_bound({k}, {L}) = {tail!r} is not a nonnegative bound (finite, >= 0)")
    return tail


def q_row_truncated(rates: RateMatrixSpec, x, k: int, rel_tol: float):
    """Truncate the rate row q_k.(x) with a certified tail.

    Returns ``(partial, tail)`` where ``partial`` lists the nonzero
    ``(l, q_kl(x))`` for l <= L (l != k) and ``tail`` bounds the mass above L,
    certified to satisfy tail <= rel_tol * (sum(partial) + tail).
    """
    k = int(k)
    q, _, ls = RowTruncator(rates, rel_tol, PROBE_L_START).rows(
        np.asarray(x, dtype=float)[None], np.array([k]))
    partial = [(int(l), float(v)) for l, v in zip(ls, q[0]) if v > 0.0]
    return partial, certified_tail(rates, k, len(ls))


class RowTruncator:
    """Batched rate-row evaluation with a cached, certified truncation level:
    the one owner of per-regime row state.

    Used by the integrators: ``rows`` produces rows as an (n, L) array over
    the common regime grid 1..L, with L grown adaptively until the uniform
    tail bound is below ``rel_tol`` relative to every row sum in the batch,
    and checks every row against its regime's whole-row bound
    ``screen_bound``, which also sets the switch screen of the step loops.
    ``row_sums`` returns only the row sums, the q_k(x) of a killed run's
    survival weight, certified the same way without the (n, L) array.  L
    starts at the integer ``l_start`` >= 1 and doubles up to ``L_CAP``.  Each
    ``tail_bound(k, L)`` is called once, for a regime k that some row asked
    for, and kept in a dense table per L.
    """

    def __init__(self, rates: RateMatrixSpec, rel_tol: float, l_start: int = 16):
        if not 0.0 < rel_tol < np.inf:
            raise ValueError(f"rel_tol must be positive and finite, got {rel_tol!r}")
        if not (isinstance(l_start, (int, np.integer)) and not isinstance(l_start, bool)
                and 1 <= l_start <= L_CAP):
            raise ValueError(f"l_start must be an integer in 1..{L_CAP}, got {l_start!r}")
        self.rates = rates
        self.rel_tol = float(rel_tol)
        self._level = int(l_start)
        self._tails: dict = {}   # (k, L) -> certified tail
        self._table: dict = {}   # L -> tails of regimes 0..max(L, level), NaN = not yet asked

    def _tail_bounds(self, k: np.ndarray, L: int) -> np.ndarray:
        """Per-path certified tails at level L, one ``certified_tail`` call per
        (k, L).  Switch targets lie in 1..level, so a dense table per L over
        regimes 0..max(L, level) serves them without a dict lookup; NaN marks
        an entry not yet asked for, as ``certified_tail`` never returns NaN.
        A regime above the table, which only a start can be, takes the dict
        path."""
        k = np.asarray(k)
        top = max(L, self._level) + 1
        table = self._table.get(L)
        if table is None or table.size <= top:
            old = np.empty(0) if table is None else table
            table = self._table[L] = np.concatenate([old, np.full(top + 1 - old.size, np.nan)])
        # slot ``top`` is never filled, so clipping sends a regime above the
        # table down the missing path
        vals = table.take(k, mode="clip")
        missing = np.isnan(vals)
        if missing.any():
            for kk in sorted(set(k[missing].tolist())):
                v = self._tails.get((kk, L))
                if v is None:
                    v = self._tails[kk, L] = certified_tail(self.rates, kk, L)
                if kk < top:
                    table[kk] = v
            vals = (np.array([self._tails[kk, L] for kk in k.tolist()]) if np.any(k >= top)
                    else table[k])
        return vals

    @property
    def level(self) -> int:
        """The truncation level L that the next ``rows`` or ``row_sums`` call
        starts from: ``l_start``, raised by every call that needed more."""
        return self._level

    def row_bound(self, k: np.ndarray) -> np.ndarray:
        """Per-path ``tail_bound(k, 0)``: the bound on the whole row q_k(x),
        uniform in x."""
        return self._tail_bounds(k, 0)

    def screen_bound(self, k: np.ndarray) -> np.ndarray:
        """Per-path ``row_bound(k) * SCREEN_SLACK``, the bound that every row
        of ``rows`` is checked against; a step loop's switch screen is
        -expm1(-screen_bound(k) h)."""
        return self.row_bound(k) * SCREEN_SLACK

    def _certifies(self, k: np.ndarray, s: np.ndarray, L: int) -> bool:
        """Whether the tails at level L certify the row sums ``s`` of the
        regimes ``k``: tail <= rel_tol * (s + tail) on every row.  The table
        of L answers with one ``take``; an entry not yet asked for, and a
        regime above the table, read NaN there and fail the test, and only
        then does ``_tail_bounds`` fill in the tails and decide."""
        table = self._table.get(L)
        if table is not None:
            tail = table.take(k, mode="clip")
            if (tail <= self.rel_tol * (s + tail)).all():
                return True
        tail = self._tail_bounds(k, L)
        return bool((tail <= self.rel_tol * (s + tail)).all())

    def _check_screen_bound(self, k: np.ndarray, s: np.ndarray) -> None:
        """Raise ``TruncationError`` when a row sum ``s`` exceeds its regime's
        ``screen_bound(k)``.  The level-0 table answers with one ``take``, as
        ``_certifies`` does, and only a NaN there computes the bounds."""
        tails = self._table.get(0)
        if tails is not None and (s <= tails.take(k, mode="clip") * SCREEN_SLACK).all():
            return
        b = self.screen_bound(k)
        if (s > b).any():
            i = int(np.argmax(s - b))
            raise TruncationError(f"rate row sum {float(s[i])!r} (k={int(k[i])}) exceeds the "
                                  f"declared whole-row bound tail_bound(k, 0)")

    def rows(self, x: np.ndarray, k: np.ndarray, level: int | None = None):
        """Return ``(rows, sums, ls)`` with rows[i, j] = q_{k_i, ls_j}(x_i),
        diagonal zeroed, ``sums = rows.sum(axis=1)`` and ``ls`` the read-only
        ``_regime_grid`` 1..L.

        Without ``level``, L starts at ``self.level`` and doubles until the
        rows certify, and the truncator keeps the L reached.  With ``level``,
        the rows are built at exactly that L, which is neither raised nor
        kept, and ``TruncationError`` says it does not certify.  Every row is
        checked against its regime's whole-row bound ``screen_bound(k)``; a
        row sum above it raises ``TruncationError``: the model broke its
        declared row bound.
        """
        k = np.asarray(k)
        L = self._level if level is None else level
        while True:
            q = rate_rows(self.rates, x, k, L)
            s = q.sum(axis=-1)
            if self._certifies(k, s, L):
                if level is None:
                    self._level = L
                self._check_screen_bound(k, s)
                return q, s, _regime_grid(L)
            if level is not None or L >= L_CAP:
                raise TruncationError(
                    f"rate rows not summable to rel_tol={self.rel_tol} within L={L}")
            L *= 2

    def row_sums(self, x: np.ndarray, k: np.ndarray) -> np.ndarray:
        """``rows(x, k)[0].sum(axis=1)``, bit for bit, at the level ``rows``
        would reach, without the (n, L) array.

        The batch goes through ``rate_rows`` in blocks of ROW_SUM_ENTRIES // L
        consecutive paths, and each block's rows are summed at once.  A block
        whose paths share one regime passes it as a scalar, so the model
        computes its regime-only factors once per block; a batch of one
        regime, as a killed run from one start always is, is recognized once
        per call.  The sums are certified once per level; a level that fails
        is doubled and the batch summed again.
        """
        k = np.asarray(k)
        n = k.shape[0]
        s = np.empty(n)
        shared = n > 0 and bool((k == k[0]).all())
        kk = k[:1] if shared else k   # the regimes whose tails certify the batch
        L = self._level
        while True:
            size = max(1, ROW_SUM_ENTRIES // L)
            for lo in range(0, n, size):
                hi = min(lo + size, n)
                kb = kk if shared else k[lo:hi]
                if shared or bool((kb == kb[0]).all()):
                    kb = kb[0]
                q = rate_rows(self.rates, x[lo:hi], kb, L)
                if q.shape[0] == hi - lo:
                    q.sum(axis=-1, out=s[lo:hi])
                else:   # a row that depends on neither x nor the paths' own k
                    s[lo:hi] = q.sum(axis=-1)
            if self._certifies(kk, s, L):
                self._level = L
                return s
            if L >= L_CAP:
                raise TruncationError(
                    f"rate rows not summable to rel_tol={self.rel_tol} within L={L}")
            L *= 2


# ---------------------------------------------------------------------------
# Assumption spot checks


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    margin: float
    worst_point: tuple
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple
    n_points: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = [f"{'OK ' if c.passed else 'BAD'} {c.name}: margin={c.margin:.6g} "
                 f"at {c.worst_point} {c.note}" for c in self.checks]
        verdict = (f"no violation found at {self.n_points} probe points"
                   if self.passed else "violation found (see checks)")
        return "\n".join(lines + [verdict])

    def to_dict(self) -> dict:
        return {
            "n_points": self.n_points,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "margin": c.margin, "worst_point": list(map(str, c.worst_point)),
                 "passed": c.passed, "note": c.note}
                for c in self.checks
            ],
        }


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, d) arrays, each summed as ``x[i] @ y[i]``."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def validate_model(spec: ModelSpec, xs, ks, directions=None,
                   quad_crosscheck: int = 0) -> ValidationReport:
    """Spot-check the model's structural assumptions at the given probe points.

    The probes are the arrays ``xs`` (n, d) and ``ks`` (n,): probe i is the
    hybrid state (xs[i], ks[i]).  The coordinates must be finite, the regimes
    at least 1 and d the model's dimension, else ``ValueError``.
    Sampling-based only: the report states the worst margin observed over the
    probes for each check, never a proof.  Checks cover finiteness and
    symmetry/PSD-ness of a = sigma sigma^T, the declared ellipticity floor and
    growth constant (when present), and finiteness of the c-weighted second
    moment of the jump measure.  ``quad_crosscheck`` > 0 additionally compares
    the closed-form second moment against quadrature at that many probes.
    """
    xs = np.asarray(xs, dtype=float)
    ks = np.asarray(ks, dtype=np.int64)
    n = ks.size
    if xs.ndim != 2 or xs.shape[1] != spec.d or ks.shape != (xs.shape[0],) or not n:
        raise ValueError(f"need probe arrays xs (n, {spec.d}) and ks (n,) with n >= 1, "
                         f"got shapes {xs.shape} and {ks.shape}")
    if not (np.all(np.isfinite(xs)) and ks.min() >= 1):
        raise ValueError("probe coordinates must be finite and regime indices >= 1")
    if quad_crosscheck < 0:
        raise ValueError(f"quad_crosscheck must be >= 0, got {quad_crosscheck!r}")
    if directions is None:
        dirs = [np.eye(spec.d)[i] for i in range(spec.d)]
    else:
        dirs = [np.asarray(v, dtype=float) / np.linalg.norm(v) for v in directions]

    checks = []

    def run_check(name, values, probe=None, tol=0.0, note=""):
        """Record the largest of ``values``, or the first non-finite one;
        ``values[j]`` belongs to probe ``probe[j]``, by default probe j."""
        values = np.asarray(values, dtype=float)
        bad = ~np.isfinite(values)
        i = int(np.argmax(bad if bad.any() else values))
        p = i if probe is None else probe[i]
        worst = float("nan") if bad.any() else float(values[i])
        checks.append(ValidationCheck(name, worst, (xs[p], int(ks[p])), worst <= tol,
                                      "non-finite value at probe" if bad.any() else note))

    # one batched call per coefficient; dot products go through matmul, which
    # sums in the order a per-point x @ b does
    bs = np.asarray(spec.drift(xs, ks), dtype=float)
    sigs = np.asarray(spec.sigma(xs, ks), dtype=float)
    if not (np.all(np.isfinite(bs)) and np.all(np.isfinite(sigs))):
        checks.append(ValidationCheck("finite-coefficients", float("nan"),
                                      (xs[0], int(ks[0])), False,
                                      "non-finite drift or diffusion value"))
        return ValidationReport(tuple(checks), n)
    a = np.einsum("nij,nkj->nik", sigs, sigs)

    run_check("a-symmetric", np.abs(a - a.transpose(0, 2, 1)).max(axis=(1, 2)),
              tol=1e-12, note="max |a - a^T|")
    run_check("a-psd", -np.linalg.eigvalsh(a)[:, 0], tol=1e-10,
              note="-(min eigenvalue of a)")

    if spec.ellipticity_floor is not None:
        lam = spec.ellipticity_floor
        vals = []
        for v in dirs:
            vb = np.broadcast_to(v, xs.shape)
            vals.append(_dot((vb[:, None, :] @ a)[:, 0], vb))
        # (point, direction) pairs in point-major order
        run_check("ellipticity-floor", lam - np.stack(vals, axis=1).ravel(),
                  np.repeat(np.arange(n), len(dirs)), tol=1e-10,
                  note=f"lambda - <xi, a xi> with lambda={lam}")

    c2 = None
    if spec.has_jumps and spec.jump_measure.c_second_moment is not None:
        c2 = np.asarray(spec.jump_measure.c_second_moment(xs, ks), dtype=float)
        run_check("jump-second-moment-finite", np.where(np.isfinite(c2), -1.0, np.inf),
                  tol=0.0, note="int |c|^2 nu finite at probes")

    if spec.growth_constant is not None:
        kap = spec.growth_constant
        cap = kap * (_dot(xs, xs) + 1.0)
        run_check("growth-drift", 2.0 * _dot(xs, bs) - cap, tol=1e-10,
                  note=f"2<x,b> - kappa(|x|^2+1), kappa={kap}")
        total = (sigs * sigs).reshape(n, -1).sum(axis=1)
        if c2 is not None:
            total = total + c2
        run_check("growth-diffusion-jump", total - cap, tol=1e-10,
                  note=f"|sigma|^2 + int|c|^2 nu - kappa(|x|^2+1), kappa={kap}")

    if spec.rates.kappa0 is not None:
        k0 = spec.rates.kappa0
        ls = np.arange(1, 65)
        cap = k0 * ls * 3.0 ** -ls
        q = rate_rows(spec.rates, xs, ks, len(ls))
        run_check("rate-uniform-bound", np.max(q - cap, axis=1), tol=1e-12,
                  note=f"q_kl(x) - kappa0 l 3^-l with kappa0={k0}, l <= 64")

    if quad_crosscheck > 0 and c2 is not None:
        from .generator import _jump_second_moment_quadrature  # local import avoids a cycle
        errs = [abs(_jump_second_moment_quadrature(spec, xs[i], int(ks[i])) - c2[i])
                - 1e-6 * (1.0 + abs(c2[i])) for i in range(min(quad_crosscheck, n))]
        run_check("jump-second-moment-quadrature", errs, tol=0.0,
                  note="closed form vs quadrature (1e-6 relative)")

    return ValidationReport(tuple(checks), n)
