"""One quadrature rule: jump mark-measure integrals and the gauges' cumulative ones.

Every mark integral in the package -- the integrator's compensator
fallback, the generator's outer jump integral and small-jump second moment,
and the modulus probe -- has the form

    I_i = int_{lo <= |u| < hi} g(s_i, u) nu(du)

for a batch of states s_i.  ``segments`` maps the mark measure to 1-d
integrals over the radius r = |u|: two half-lines with ``density`` for
``mark_dim == 1``, one ray with ``radial_density`` (or 2 pi r density) for
radially symmetric 2-d marks.  ``integrate`` evaluates them with one fixed
rule: composite Gauss-Legendre on panels graded geometrically toward the
origin, where nu is singular.  Each panel [a, 2a] sees a power law r^p the
same way whatever its scale, so a fixed node count gives the same relative
accuracy on every panel.  Two orders run on every panel; the higher one is
the value and their difference, plus a round-off allowance, is the per-state
error estimate.  A state whose estimate exceeds the tolerance raises
``QuadratureError``.  ``cumulative`` applies the same rule to int_0^r g
along a grid, for the Psi of ``build_G`` and ``build_F``.

Everything but the integrand is fixed by the measure and the interval, so
``_plan`` builds it once per (measure, ``jump_radial``, lo, hi) and shares it
read-only: the marks of all segments in one array, and each segment's weight
rows already multiplied by its density.  ``integrate`` then makes one
integrand call per block of states over every segment's nodes, and slices the
result per segment.  ``BLOCK`` bounds the (state, node) pairs of one segment
in a call: a call takes BLOCK // (nodes per segment) states, at least one, so
it holds about ``BLOCK`` pairs per segment.

``quad_reference`` computes the same integrals with ``scipy.integrate.quad``
over the same segments.  It is the independent cross-check for validation
and tests, never a fallback.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError
from .model import JumpMeasureSpec, ModelSpec

__all__ = ["Segment", "segments", "integrate", "cumulative", "quad_reference"]

PANEL_RATIO = 2.0     # hi/lo of every panel above the origin
ORDERS = (8, 12)      # Gauss-Legendre nodes per panel: error-estimate order, value order
ORIGIN_DEPTH = 120    # with lo == 0 the innermost panel is [0, hi * 2^-120]
BLOCK = 1 << 13       # (state, node) pairs per segment in one integrand call; bounds memory
# round-off allowance per unit of int |g| nu: summation over up to a few
# thousand nodes and a few ulps in the integrand
ROUNDING = 32.0 * np.finfo(float).eps


@functools.cache
def _gauss_legendre(m: int):
    # on first use, not at import: the first call initialises LAPACK
    return leggauss(m)


class Segment(NamedTuple):
    """One ray of the mark space: marks r * direction for r in [lo, hi), and
    ``weight(r)`` the density of nu along it, so that the mark integral is the
    sum over segments of int g(r * direction) weight(r) dr."""

    direction: np.ndarray
    weight: Callable[[np.ndarray], np.ndarray]


def segments(spec: ModelSpec) -> tuple:
    """The mark-measure dispatch: the segments of ``spec``'s jump measure."""
    return _segments(spec.jump_measure, spec.jump_radial)


def _segments(meas: JumpMeasureSpec, radial: bool) -> tuple:
    if meas.mark_dim == 1:
        return tuple(Segment(np.array([s]), lambda r, s=s: meas.density(s * r[:, None]))
                     for s in (1.0, -1.0))
    if meas.mark_dim == 2 and radial:
        e = np.array([1.0, 0.0])
        if meas.radial_density is not None:
            return (Segment(e, meas.radial_density),)
        return (Segment(e, lambda r: 2.0 * np.pi * r * meas.density(r[:, None] * e)),)
    raise NotImplementedError(
        "mark integrals need 1-d marks or radially symmetric 2-d marks")


def _panels(lo: float, hi: float) -> np.ndarray:
    """Panel ends on [lo, hi], graded geometrically toward the origin."""
    if not (0.0 <= lo < hi < np.inf):
        raise ValueError(f"mark integral needs 0 <= lo < hi < inf, got [{lo}, {hi}]")
    if lo > 0.0:
        n = max(1, int(np.ceil(np.log(hi / lo) / np.log(PANEL_RATIO) - 1e-9)))
        return lo * (hi / lo) ** (np.arange(n + 1) / n)
    return np.concatenate(([0.0], hi * PANEL_RATIO ** -np.arange(ORIGIN_DEPTH, -1, -1.0)))


def _mapped(ends: np.ndarray) -> tuple:
    """Gauss-Legendre on the panels between ``ends``: the flat nodes of the value
    order, then the estimate order, and each order's weights (panels, nodes)."""
    a, b = ends[:-1, None], ends[1:, None]
    (xv, wv), (xe, we) = ((0.5 * (b - a) * t + 0.5 * (b + a), 0.5 * (b - a) * w)
                          for t, w in (_gauss_legendre(ORDERS[1]), _gauss_legendre(ORDERS[0])))
    return np.concatenate((xv.ravel(), xe.ravel())), wv, we


@functools.lru_cache(maxsize=64)
def _rule(lo: float, hi: float):
    """Nodes r (m,) and weight rows (3, m): the value order, the estimate
    order, and the value order restricted to the innermost panel when it
    reaches the origin (zero otherwise).  Cached per interval, since the
    calls of a run ask for a few intervals many times; the arrays are
    read-only because all callers share them."""
    r, wv, we = _mapped(_panels(lo, hi))
    w = np.zeros((3, r.size))
    w[0, :wv.size], w[1, wv.size:] = wv.ravel(), we.ravel()
    if lo == 0.0:
        w[2, :ORDERS[1]] = wv[0]
    r.flags.writeable = w.flags.writeable = False
    return r, w


class _Plan(NamedTuple):
    """What ``integrate`` needs besides the integrand, for one measure and
    interval: ``marks`` (1, m_total, mark_dim), the ``size`` nodes of every
    segment in turn, and per segment ``(span, weights, mass)`` -- its slice
    of the marks, its density-weighted weight rows (size, 3) and the absolute
    value of the value-order row (size,)."""

    marks: np.ndarray
    size: int
    parts: tuple


@functools.lru_cache(maxsize=64)
def _plan(meas: JumpMeasureSpec, radial: bool, lo: float, hi: float) -> _Plan:
    """The plan of ``integrate`` on [lo, hi).  Cached on the measure itself,
    which compares and hashes by its fields, so measures that differ in any
    field never share a plan; the arrays are read-only because all callers
    share them."""
    r, w = _rule(lo, hi)
    marks, parts = [], []
    for i, seg in enumerate(_segments(meas, radial)):
        wd = w * np.broadcast_to(np.asarray(seg.weight(r), dtype=float), r.shape)
        mass = np.abs(wd[0])
        wd.flags.writeable = mass.flags.writeable = False
        marks.append(r[:, None] * seg.direction)
        parts.append((slice(i * r.size, (i + 1) * r.size), wd.T, mass))
    u = np.concatenate(marks)[None]
    u.flags.writeable = False
    return _Plan(u, r.size, tuple(parts))


def integrate(spec: ModelSpec, integrand: Callable, states: tuple, lo: float, hi: float,
              tol: float):
    """int_{lo <= |u| < hi} integrand(*states_i, u) nu(du) for every state row i.

    ``states`` is a tuple of arrays with a common leading axis N, for example
    (x, k).  The integrand receives each of them with a new axis after the
    first ((n, 1, ...), so (n, 1, d) for x and (n, 1) for k) together with
    marks u of shape (1, m, mark_dim), the nodes of every segment, and returns
    (n, m) or (n, m, ...) -- the broadcasting convention of ``jump_coeff`` and
    ``TestFunction.fn``.  Rows are fed in blocks of at most ``BLOCK`` (state,
    node) pairs per segment.  A 2-d state of 2 to 7 columns arrives
    component-major, each column contiguous, so that an elementwise operation
    on (n, m, d) arrays loops over states and nodes, not over short d-vectors;
    other states arrive in the layout given.  The integrand may return its
    value in any layout: the sums take it in C order, so the layout moves no
    bit.

    Returns ``(value, error)``, each (N,) or (N, ...): the higher-order value
    and the per-state error estimate |higher - lower order| plus
    ``ROUNDING`` times int |integrand| nu.  With lo == 0 the innermost panel
    [0, hi 2^-ORIGIN_DEPTH] touches the singularity, where no polynomial rule
    converges, so its whole contribution is added to the estimate too.
    Raises ``QuadratureError`` when an estimate exceeds
    max(100 tol, 1e-6 (1 + |value|)) or is not finite.

    An (n, m) integrand's sums go through one (rows, m) @ (m, 3) product
    per block, whose last bits depend on the number of rows (and on the
    layout of its input, hence the C order above): a state's value can
    differ in the last bits with the number of states that share its
    block, so one call over a grid and one call per point of it need not
    agree bit for bit.
    """
    plan = _plan(spec.jump_measure, spec.jump_radial, lo, hi)
    states = [_component_major(np.asarray(s)) for s in states]
    n = len(states[0])
    rows = max(1, BLOCK // plan.size)
    acc = None
    # a batch of no states still makes one (empty) call, which gives the
    # integrand's trailing shape
    for start in range(0, max(n, 1), rows):
        g = np.asarray(integrand(*(s[start:start + rows, None] for s in states), plan.marks),
                       dtype=float)
        # node axis last: (n, ..., m), and each segment's sums come back (3, n, ...);
        # C order, because the product's last bits depend on its input's layout
        g = np.ascontiguousarray(g.transpose(0, *range(2, g.ndim), 1))
        back = (g.ndim - 1, *range(g.ndim - 1))
        if acc is None:
            acc = np.zeros((4, n) + g.shape[1:-1])
        block = acc[:, start:start + rows]
        g_abs = np.abs(g)
        for span, weights, mass in plan.parts:
            block[:3] += (g[..., span] @ weights).transpose(back)
            block[3] += g_abs[..., span] @ mass
    value, low, inner, mass = acc
    error = np.abs(value - low) + np.abs(inner) + ROUNDING * mass
    _require(value, error, tol, lo, hi)
    return value, error


def _component_major(s: np.ndarray) -> np.ndarray:
    """A 2-d state array of 2 to 7 columns as a Fortran-ordered copy, each
    column contiguous; any other array as given.  In C order the length-d
    axis is innermost, so every (rows, nodes, d) operation of an integrand
    runs rows * nodes loops of d elements.  From 8 columns on, numpy's own
    last-axis sums and norms, which ``_linalg`` calls there, group their terms
    by layout, so wider states keep theirs and with it their bits."""
    return np.asfortranarray(s) if s.ndim == 2 and 2 <= s.shape[1] < 8 else s


def _require(value, error, tol, lo, hi):
    bad = ~(error <= np.maximum(100.0 * tol, 1e-6 * (1.0 + np.abs(value))))
    if bad.any():
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise QuadratureError(
            f"mark quadrature on [{lo}, {hi}] did not converge at {int(bad.sum())} of "
            f"{bad.size} values: value={value[i]}, error estimate={error[i]} (row {i[0]})")


def cumulative(g: Callable, grid) -> np.ndarray:
    """int_0^{grid[i]} g(r) dr for every point of ``grid``, which rises from 0.

    g takes an array of radii (a scalar return broadcasts) and may blow up,
    integrably, at 0.  The first cell is graded toward 0 as in ``integrate``,
    every other cell is one panel, and a cell's error estimate is |higher -
    lower order|, plus the innermost panel in the first cell.  Raises
    ``QuadratureError`` on an increment that is not finite or below -1e-12,
    an estimate above 1e-6 (1 + |increment|), as 1/r gives, or a total that
    is not finite."""
    first = _panels(0.0, grid[1])
    r, wv, we = _mapped(np.concatenate((first, grid[2:])))
    gr = np.broadcast_to(np.asarray(g(r), dtype=float), r.shape)
    panels = np.stack(((gr[:wv.size].reshape(wv.shape) * wv).sum(axis=1),
                       (gr[wv.size:].reshape(we.shape) * we).sum(axis=1)))
    inc, low = np.add.reduceat(panels, np.r_[0, first.size - 1:len(wv)], axis=1)
    error = np.abs(inc - low)
    error[0] += abs(panels[0, 0])
    bad = ~np.isfinite(inc) | (inc < -1e-12) | ~(error <= 1e-6 * (1.0 + np.abs(inc)))
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureError(f"integral of g over [{grid[i]:.3g}, {grid[i + 1]:.3g}] did not "
                              "converge; g must be >= 0 with a convergent integral near 0")
    total = np.concatenate(([0.0], np.cumsum(np.maximum(inc, 0.0))))
    if not np.isfinite(total[-1]):
        raise QuadratureError(f"the integral of g over (0, {grid[-1]:.3g}) diverges")
    return total


def quad_reference(spec: ModelSpec, integrand: Callable, states: tuple, lo: float,
                   hi: float, tol: float = 1e-10) -> np.ndarray:
    """The integral of ``integrate`` by ``scipy.integrate.quad`` over the same
    segments, one state row and one output component at a time.  An
    independent cross-check for validation and tests; raises
    ``QuadratureError`` when quad reports an error above the same threshold.
    """
    from scipy import integrate as sp

    out = []
    for i in range(len(states[0])):
        row = [np.asarray(s)[i:i + 1, None] for s in states]
        total = 0.0
        for seg in segments(spec):
            def g(r, comp, seg=seg):
                rr = np.array([r])
                val = np.asarray(integrand(*row, (rr[:, None] * seg.direction)[None]),
                                 dtype=float)
                dens = np.asarray(seg.weight(rr), dtype=float).reshape(-1)[0]
                return float(val.reshape(-1)[comp] * dens)

            shape = np.asarray(integrand(*row, hi * seg.direction[None, None])).shape[2:]
            comps = []
            for comp in range(int(np.prod(shape))):
                val, err = sp.quad(g, lo, hi, args=(comp,), epsabs=tol,
                                   epsrel=max(tol, 1e-11), limit=300)
                _require(np.array([val]), np.array([err]), tol, lo, hi)
                comps.append(val)
            total = total + np.reshape(comps, shape)
        out.append(total)
    return np.array(out)
