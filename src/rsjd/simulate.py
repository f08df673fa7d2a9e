"""Time stepping for the hybrid system: Euler-Maruyama with compensated jumps
plus per-step regime switching.

An ensemble takes a ``regime`` mode: "switching" (the full process, steps
1-5 below), "frozen" (the regime never moves: the process X^(k) of one
fixed regime, steps 1-4) or "killed" (frozen, with a step observer that
sums the survival weight exp(-int q_k(X(s)) ds) of the killed process).

One step of size h from state (x, k):

1. Brownian increment through sigma(x,k).
2. Large jumps: a Poisson count with mean h * nu({|u| > eps}); each mark is
   drawn from the normalized restricted measure and displaces by c(x,k,u);
   the compensator drift h * int_{|u|>eps} c nu(du) is subtracted.
3. Jumps below the cutoff are dropped (their compensated mean is zero; the
   neglected variance rate is reported in path metadata) or replaced by a
   centered Gaussian with matching covariance, per policy.
4. Drift b(x,k) h.
5. Switching: with probability 1 - exp(-q_k(x) h) a switch fires; the target
   regime is drawn by inverse CDF over the truncated rate row.

Everything is deterministic given (model, starts, config, seed).  An
ensemble holds one block of paths per start; each block is cut into
fixed-size chunks, and chunk c of block i draws from its own RNG stream,
derived from (master seed, stream + i, c).  Consecutive chunks are packed
into batches of at most CHUNK_SIZE paths that step in lockstep, so narrow
ensembles pay the fixed cost of a step once per batch instead of once per
chunk.  Every other operation of a step acts on each path alone, so packing
leaves the numbers as they are (see ``simulate_ensemble`` for the one shared
quantity, the rate-row truncation level).  ``_run_batches``, the one batch
runner of both ensemble engines, hands the batches to the worker threads and
merges their outputs in batch order, so results are bit-identical whatever
the worker count.

The RNG-order contract (``_draw_block``): each chunk consumes its own stream
step by step, and within a step in this fixed order, every draw sized by the
chunk alone: the Brownian normals (a second set under the reflection
coupling); with jumps, the Poisson counts, then two uniforms per jump for the
marks; under the gaussian small-jump policy, its normals; last, the switch
uniforms row by row (the bridge-crossing uniform as a third row in the
reflection coupling).  Uniforms that follow one another in this order are
drawn in one call where that saves a call: ``rng.random(a + b)`` gives the
numbers of ``rng.random(a)`` followed by ``rng.random(b)`` bit for bit, so
the mark and switch uniforms of a step without gaussian normals come from
one ``random(2 J + rows m)``.  No draw depends on the state, so the engines
draw DRAW_PATH_STEPS // n steps of an n-path batch at a time ahead of
stepping them; a chunk's numbers are the same whatever batch it is packed in
and however many steps are drawn at once.  The Poisson counts only place the
marks: a step's ``StepDraws`` hold just what the step engines read.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from ._csv import write_csv
from ._linalg import row_norm, sqrt_psd_batched
from .model import SCREEN_SLACK, HybridState, ModelSpec, RowTruncator, _check_positive

__all__ = [
    "IntegratorConfig",
    "PathRecord",
    "simulate_path",
    "simulate_killed_path",
    "EnsembleResult",
    "simulate_ensemble",
    "CHUNK_SIZE",
    "derive_rng",
]

CHUNK_SIZE = 4096  # fixed chunk width; part of the determinism contract
# path-steps drawn per _draw_block call: a batch of n paths draws
# DRAW_PATH_STEPS // n steps at a time, at least one; the numbers do not
# depend on it
DRAW_PATH_STEPS = 8192
COMP_QUAD_TOL = 1e-10  # tolerance of the fallback compensator quadrature


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon and jump/switching policies for the integrator.

    ``step``, ``horizon``, ``epsilon`` and ``regime_tol`` must be positive
    and finite, with ``step <= horizon`` and a finite step count
    ``horizon / step``.  ``r_max`` must be positive; paths
    whose |x| exceeds it are censored, and so are paths whose state is no
    longer finite, whatever ``r_max``; +inf turns the norm guard off.
    """

    step: float
    horizon: float
    small_jump_policy: str = "drop"    # or "gaussian"
    epsilon: float | None = None       # jump cutoff; None -> measure default
    regime_tol: float | None = None    # rate-row truncation rel. tolerance; None -> model default
    r_max: float = 1e6                 # state-explosion guard; exceeding paths are censored

    def __post_init__(self):
        _check_positive("step", self.step, finite=True)
        _check_positive("horizon", self.horizon, finite=True)
        if self.step > self.horizon:
            raise ValueError("need step <= horizon")
        if not self.horizon / self.step < np.inf:
            raise ValueError(f"step count horizon/step must be finite, got "
                             f"{self.horizon!r}/{self.step!r}")
        if self.small_jump_policy not in ("drop", "gaussian"):
            raise ValueError("small_jump_policy must be 'drop' or 'gaussian'")
        if self.epsilon is not None:
            _check_positive("jump cutoff epsilon", self.epsilon, finite=True)
        if self.regime_tol is not None:
            _check_positive("regime truncation tolerance", self.regime_tol, finite=True)
        _check_positive("r_max", self.r_max, finite=False)

    def grid(self):
        n = max(1, int(round(self.horizon / self.step)))
        return n, self.horizon / n


def derive_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """Deterministic child generator for (master seed, stream/chunk key); the
    seed must be nonnegative and is the entropy as given, with no bit masked."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(v) for v in spawn_key))
    return np.random.default_rng(ss)


@dataclass
class PathRecord:
    """One simulated trajectory on its time grid, with event logs.

    ``switch_events`` holds (t, from, to) at each grid time t where the
    regime changed.  ``exited`` is the censoring time if |X| ever exceeded
    the guard radius or X stopped being finite (the path is frozen from
    there on), else None.
    ``small_jump_var_dropped`` integrates the neglected small-jump variance
    rate along the path under the drop policy (None when not applicable).
    """

    times: np.ndarray
    xs: np.ndarray
    ks: np.ndarray
    switch_events: list
    jump_events: list
    seed: int
    exited: float | None = None
    small_jump_var_dropped: float | None = None

    def state(self, i: int) -> HybridState:
        return HybridState(self.xs[i], int(self.ks[i]))

    def to_csv(self, path):
        d = self.xs.shape[1]
        write_csv(path, ["t"] + [f"x{i+1}" for i in range(d)] + ["k"],
                  self.times, self.xs, self.ks)

    def to_npz(self, path):
        sw = np.array([(t, a, b) for t, a, b in self.switch_events], dtype=float).reshape(-1, 3)
        jp = np.array([np.concatenate(([t], np.atleast_1d(u), np.atleast_1d(c)))
                       for t, u, c in self.jump_events], dtype=float)
        if jp.size == 0:
            jp = jp.reshape(0, 1 + 1 + self.xs.shape[1])
        np.savez_compressed(path, times=self.times, xs=self.xs, ks=self.ks,
                            switch_events=sw, jump_events=jp,
                            seed=np.int64(self.seed),
                            exited=np.float64(self.exited if self.exited is not None else np.nan))


@dataclass
class EnsembleResult:
    """Terminal states of an ensemble run (no per-step storage)."""

    x: np.ndarray          # (n, d)
    k: np.ndarray          # (n,)
    exit_time: np.ndarray  # (n,), inf where never censored
    weight: np.ndarray | None = None  # killed-run survival weights
    observers: list = field(default_factory=list)  # per batch, in batch order

    @property
    def censored(self) -> np.ndarray:
        return np.isfinite(self.exit_time)

    @property
    def n_censored(self) -> int:
        return int(np.count_nonzero(self.censored))


def _step_setup(spec: ModelSpec, cfg: IntegratorConfig):
    """``cfg`` resolved against ``spec`` for the step kernels: (nsteps, h, eps,
    lam_rate, gaussian, row_tol), with the validated jump cutoff ``eps`` and
    large-jump rate ``lam_rate`` None for a model without jumps, ``gaussian``
    the small-jump policy and ``row_tol`` the rate-row truncation tolerance."""
    nsteps, h = cfg.grid()
    gaussian = cfg.small_jump_policy == "gaussian"
    row_tol = cfg.regime_tol if cfg.regime_tol is not None else spec.regime_tol
    if not spec.has_jumps:
        return nsteps, h, None, None, gaussian, row_tol
    eps = cfg.epsilon if cfg.epsilon is not None else spec.jump_measure.epsilon
    if not (0.0 < eps < spec.jump_measure.radius_max):
        raise ValueError("jump cutoff outside the mark domain")
    lam_rate = float(spec.jump_measure.large_jump_rate(eps))
    if not np.isfinite(lam_rate) or lam_rate < 0:
        raise ValueError("large-jump rate must be finite and nonnegative")
    if gaussian and spec.small_jump_cov is None:
        raise ValueError("gaussian small-jump policy needs a closed-form small_jump_cov")
    return nsteps, h, eps, lam_rate, gaussian, row_tol


def _sigma_lambda(spec: ModelSpec, x: np.ndarray, k: np.ndarray, lam: float):
    """The roots s_lam = (a - lam I)^(1/2) at each path, with the mask of
    clamped eigenvalues (see ``sqrt_psd_batched``)."""
    sig = np.asarray(spec.sigma(x, k), dtype=float)
    a = np.einsum("nij,nkj->nik", sig, sig)
    a -= lam * np.eye(spec.d)
    return sqrt_psd_batched(a)


def _mark_uniforms(counts: np.ndarray, seg_los, block: np.ndarray):
    """The jumps of a block of steps, and the (2, J) quantile input U of
    their marks, from their uniforms.

    ``counts`` holds the (steps, n) Poisson counts of a batch whose segment g
    starts at path ``seg_los[g]``.  ``block`` holds, step by step and within
    a step segment by segment, the 2 J uniforms that the segment drew for its
    J jumps of the step.  Returns ``(hit, U)``: jump j moves path ``hit[j]``
    by the mark of column j of U.  The jumps are listed step by step, and
    within a step round by round, round r holding the paths with more than r
    jumps, in path order.  A segment reads its 2 J uniforms of a step as
    consecutive rounds: round r's c_r marks take c_r uniforms for row 0 of U,
    then c_r for row 1.  ``rng.random(a + b)`` is ``rng.random(a)`` followed
    by ``rng.random(b)`` bit for bit, so these are the numbers that one
    ``rng.random((2, c_r))`` per step, round and segment would draw.  A
    quantile map takes the columns of U independently, so its one call over
    the whole block gives the marks of one call per round.  The index arrays
    that order them die here, before the quantile allocates.  Needs
    ``counts.any()``.
    """
    n = counts.shape[1]
    mask = counts[:, None, :] > np.arange(int(counts.max()))[:, None]  # (steps, rounds, n)
    hit = mask.ravel().nonzero()[0]                                      # step, then round
    hit %= n
    # (steps, rounds, segs); reduceat first copies mask into its dtype, and
    # uint32 holds any segment's count in half the bytes of intp
    per = np.add.reduceat(mask, seg_los, axis=2, dtype=np.uint32).astype(np.intp)
    # the jumps of one (step, round, segment) group are consecutive both in
    # hit order and in the block, so each group shifts by one offset
    sizes = per.ravel()                       # groups in hit order: (step, round, segment)
    blk = per.transpose(0, 2, 1)              # groups in block order: (step, segment, round)
    seg_major = blk.ravel()
    block_start = 2 * (np.cumsum(seg_major) - seg_major)
    off = block_start.reshape(blk.shape).transpose(0, 2, 1).ravel() - (np.cumsum(sizes) - sizes)
    idx = np.repeat(np.array([off, off + sizes]), sizes, axis=1)
    idx += np.arange(hit.size)
    return hit, block[idx]


@dataclass(slots=True)
class StepDraws:
    """The random numbers of one step of a batch that a step engine reads, as
    ``_draw_block`` made them.

    ``z`` holds the (n, d) Brownian normals and ``z2`` the second set under
    reflection.  When some path jumps, jump j moves path ``hit[j]`` by the
    mark ``marks[j]``; the jumps are listed round by round (see
    ``_mark_uniforms``), so each path's jumps come in round order, the order
    ``_apply_step`` adds them in.  ``zg`` holds the gaussian-policy normals
    and ``unif`` the (rows, n) switch uniforms, with the bridge-crossing
    uniform as row 2 under reflection.  A field that the step does not draw
    is None.  The arrays may be views into the buffers of a block of steps,
    which ``_step_draws`` refills for the next block; the step engines only
    read them.
    """

    z: np.ndarray
    z2: np.ndarray | None = None
    hit: np.ndarray | None = None
    marks: np.ndarray | None = None
    zg: np.ndarray | None = None
    unif: np.ndarray | None = None


def _draw_buffers(n: int, d: int, steps: int, *, jumps: bool, reflect: bool = False,
                  gaussian: bool = False, n_unif: int = 0):
    """Empty buffers for ``steps`` steps of an n-path batch, as ``_draw_block``
    fills them: (z, z2, zg, counts, unif), None for a draw the step does not
    make; only ``_draw_block`` reads the Poisson counts."""
    return (np.empty((steps, n, d)),
            np.empty((steps, n, d)) if reflect else None,
            np.empty((steps, n, d)) if jumps and gaussian else None,
            np.empty((steps, n), dtype=np.int64) if jumps else None,
            np.empty((steps, n_unif, n)) if n_unif else None)


def _draw_block(streams, spec: ModelSpec, h: float, eps, lam_rate, steps: int, buffers) -> list:
    """Make every draw of ``steps`` consecutive steps of a batch; the
    RNG-order contract.  Returns one ``StepDraws`` per step.

    ``buffers`` come from ``_draw_buffers`` and say which draws a step
    makes: z2 under reflection, zg under the gaussian policy, and n_unif
    rows of switch uniforms.  ``streams`` is a tuple of ``(rng, lo, hi)``
    segments covering the batch in order: paths lo..hi-1 draw from rng.
    Each segment consumes its stream step by step, and within a step of its
    m paths in this fixed order:

    1. the (m, d) normals, and a second set under reflection;
    2. with jumps (``eps`` not None), the m Poisson counts, then
       ``random(2 J)`` for the marks of its J jumps (see ``_mark_uniforms``);
    3. with jumps, under the gaussian policy, the (m, d) small-jump normals;
    4. ``random((n_unif, m))``: the two switch uniforms, and the
       bridge-crossing one as a third row.

    With jumps, switch uniforms and no gaussian normals, 2 and 4 are one
    ``random(2 J + n_unif m)`` call, which draws the same numbers.  Every
    draw is sized by the segment, so a segment consumes its stream
    exactly as a batch of its own paths would, and as ``steps`` calls of one
    step each would.  The draws go into the first ``steps`` steps of
    ``buffers``; the ``StepDraws`` are views of them, valid until the
    buffers are refilled.  The Poisson counts stay in their buffer: the
    quantile map turns the mark uniforms of the whole block into marks in
    one call, and each step gets its jumps as ``hit`` and ``marks``.
    """
    jumps = eps is not None
    z, z2, zg, counts, unif = (None if b is None else b[:steps] for b in buffers)
    n_unif = 0 if unif is None else unif.shape[1]
    lam_h = lam_rate * h if jumps else None
    merged = jumps and n_unif and zg is None   # steps 2 and 4 in one call
    mark_unif = []  # (step, segment) order
    for s in range(steps):
        for rng, lo, hi in streams:
            m = hi - lo
            rng.standard_normal(out=z[s, lo:hi])
            if z2 is not None:
                rng.standard_normal(out=z2[s, lo:hi])
            if jumps:
                c = counts[s, lo:hi]
                c[...] = rng.poisson(lam_h, m)
                n_mark = 2 * int(c.sum())
                if merged:
                    u = rng.random(n_mark + n_unif * m)
                    mark_unif.append(u[:n_mark])
                    unif[s, :, lo:hi] = u[n_mark:].reshape(n_unif, m)
                    continue
                mark_unif.append(rng.random(n_mark))
                if zg is not None:
                    rng.standard_normal(out=zg[s, lo:hi])
            if n_unif:
                unif[s, :, lo:hi] = rng.random((n_unif, m))

    def at(a, s):
        return None if a is None else a[s]

    draws = [StepDraws(z[s], at(z2, s), zg=at(zg, s), unif=at(unif, s)) for s in range(steps)]
    if jumps and counts.any():
        hit, u = _mark_uniforms(counts, [lo for _, lo, _ in streams], np.concatenate(mark_unif))
        marks = spec.jump_measure.large_jump_quantile(eps, u)
        ends = [0] + np.cumsum(counts.sum(axis=1)).tolist()
        for dr, a, b in zip(draws, ends, ends[1:]):
            if b > a:
                dr.hit, dr.marks = hit[a:b], marks[a:b]
    return draws


def _step_draws(streams, spec: ModelSpec, h: float, eps, lam_rate, nsteps: int, **kw):
    """The ``StepDraws`` of ``nsteps`` steps in order, made by ``_draw_block``
    DRAW_PATH_STEPS // n steps at a time for a batch of n paths into buffers
    from ``_draw_buffers(..., **kw)``.  Every block refills the same buffers,
    so a step's draws hold only until the next step's are asked for."""
    n = streams[-1][2]
    block = min(nsteps, max(1, DRAW_PATH_STEPS // n))
    buffers = _draw_buffers(n, spec.d, block, jumps=eps is not None, **kw)
    for i in range(0, nsteps, block):
        yield from _draw_block(streams, spec, h, eps, lam_rate, min(block, nsteps - i), buffers)


def _apply_step(spec: ModelSpec, x: np.ndarray, k: np.ndarray, h: float, draws: StepDraws,
                eps, lam: float | None = None, u: np.ndarray | None = None):
    """Euler increment of one step for an (n, d) batch at the states (x, k),
    driven by ``draws``.  ``eps`` None means no jumps.

    With ``lam`` (reflection) the Brownian part goes through the two-noise
    split of Lindvall & Rogers (1986): s_lam(x) dW1 + sqrt(lam) dW2 for the
    first side of a pair, and for the second side, whose unit vectors along
    X~ - X are the rows of ``u``, s_lam(x) dW1 + sqrt(lam) (I - 2uu^T) dW2;
    a zero u leaves dW2 unmirrored.  Every row is evaluated on its own, so a
    row's increment does not depend on the other rows of the batch.

    The jump coefficient is evaluated once over the marks of all rounds;
    ``np.add.at`` adds each path's displacements in the order the draws
    list them, round after round, one coordinate at a time, so each path's
    sum runs in the same order as one update per round would.

    Returns ``(dx, roots)``: ``roots`` is None, or under reflection the pair
    ``(s_lam(x), clamped)`` of ``_sigma_lambda``.
    """
    sqh = math.sqrt(h)
    roots = None
    if lam is None:
        dx = (np.asarray(spec.drift(x, k), dtype=float) * h
              + sqh * np.einsum("nij,nj->ni", np.asarray(spec.sigma(x, k), dtype=float), draws.z))
    else:
        roots = _sigma_lambda(spec, x, k, lam)
        w2 = draws.z2 if u is None else (
            draws.z2 - 2.0 * u * np.einsum("ni,ni->n", u, draws.z2)[:, None])
        dx = (np.asarray(spec.drift(x, k), dtype=float) * h
              + sqh * (np.einsum("nij,nj->ni", roots[0], draws.z) + math.sqrt(lam) * w2))

    if eps is not None:
        comp = spec.jump_compensator(x, k, eps) if spec.jump_compensator is not None \
            else _compensator_quadrature(spec, x, k, eps)
        dx -= np.asarray(comp, dtype=float) * h
        if draws.hit is not None:
            disp = np.asarray(spec.jump_coeff(x.take(draws.hit, axis=0), k.take(draws.hit),
                                              draws.marks), dtype=float)
            # column by column: ufunc.at over a 1-d array takes numpy's fast path
            for j in range(disp.shape[1]):
                np.add.at(dx[:, j], draws.hit, disp[:, j])
        if draws.zg is not None:
            # a shared draw keeps the substitute synchronous; per-side roots
            # preserve each marginal's covariance exactly
            root, _ = sqrt_psd_batched(np.asarray(spec.small_jump_cov(x, k, eps), dtype=float))
            dx += sqh * np.einsum("nij,nj->ni", root, draws.zg)
    return dx, roots


def _evolve(spec: ModelSpec, x0: np.ndarray, k0: np.ndarray, cfg: IntegratorConfig,
            streams, *, switching: bool = True, observers: Sequence[Callable] = ()):
    """Advance an (n, d) batch over the full grid.  Core of every simulator.

    ``streams`` holds the batch's ``(rng, lo, hi)`` segments.  The draws
    come from ``_draw_block``, a block of steps at a time, the two switch
    uniforms included under ``switching`` (drawn in one call with the mark
    uniforms, see the module docstring), and each step takes its increment
    from ``_apply_step``.  Rate rows are built only for the switch
    candidates, the paths whose first switch uniform falls below
    1 - exp(-Qbar_k h); the switch law is the same as building every row.
    The threshold is kept per path, and a path that switched computes its
    new regime's threshold from the truncator's ``screen_bound``, the
    whole-row bound that ``rows`` checks each candidate's row against;
    without ``switching`` the regime never moves.

    Until the first path is censored the step skips the per-path selects
    that keep a censored path frozen, and ``_outside`` screens the r_max
    guard, and the censoring of a non-finite state, with the largest
    coordinate before it computes any norm; both give the numbers of the
    full forms.
    ``observers`` each see the batch after step i, in order, as ``(i, t, x,
    k, alive, draws)``, with ``draws`` that step's ``StepDraws`` (None at i = 0).
    """
    x = x0.astype(float).copy()
    k = k0.astype(np.int64).copy()
    nsteps, h, eps, lam_rate, gaussian, row_tol = _step_setup(spec, cfg)

    # Exact switch pre-screen: q_k(x) <= Qbar_k = tail_bound(k, 0), so only a
    # path with u1 < 1 - exp(-Qbar_k h) can switch and needs its rate row;
    # the threshold is kept per path and moves only with the path's regime.
    if switching:
        trunc = RowTruncator(spec.rates, row_tol)
        thresh = -np.expm1(-trunc.screen_bound(k) * h)
    alive = np.ones(len(x0), dtype=bool)
    all_alive = True   # alive.all(), kept as a bool
    exit_time = np.full(len(x0), np.inf)
    for observe in observers:
        observe(0, 0.0, x, k, alive, None)

    step_draws = _step_draws(streams, spec, h, eps, lam_rate, nsteps, gaussian=gaussian,
                             n_unif=2 if switching else 0)
    for i, draws in enumerate(step_draws):
        t_next = (i + 1) * h
        dx, _ = _apply_step(spec, x, k, h, draws, eps)

        # a censored path keeps its state
        xn = np.add(x, dx, out=dx) if all_alive else np.where(alive[:, None], x + dx, x)

        newly = _outside(xn, cfg.r_max)
        kn = k
        if switching:
            u1, u2 = draws.unif
            below = u1 < thresh
            if not all_alive:
                below &= alive
            cand = below.nonzero()[0]
            if cand.size:
                rows, qk, ls = trunc.rows(x.take(cand, axis=0), k.take(cand))
                # a zero row has threshold 0, which no uniform in [0, 1) falls below
                do = (u1.take(cand) < -np.expm1(-qk * h)).nonzero()[0]
                if do.size:
                    fire = cand.take(do)
                    cum = rows.take(do, axis=0).cumsum(axis=1)
                    tgt = u2.take(fire) * qk.take(do)
                    idx = np.minimum((cum < tgt[:, None]).sum(axis=1), rows.shape[1] - 1)
                    kn = k.copy()
                    kn[fire] = k_fire = ls.take(idx)
                    thresh[fire] = -np.expm1(-trunc.screen_bound(k_fire) * h)

        if newly is not None:
            if not all_alive:
                newly &= alive
            if newly.any():
                exit_time[newly] = t_next
                alive &= ~newly
                all_alive = False

        x, k = xn, kn
        for observe in observers:
            observe(i + 1, t_next, x, k, alive, draws)

    return {"x": x, "k": k, "exit_time": exit_time}


def _within(x: np.ndarray, r: float) -> bool:
    """True when the largest coordinate shows every row of x finite with
    ``row_norm(x) <= r``: every |x_ij| <= min(r, 1e150) / (sqrt(d) (1 +
    1e-12)), which bounds each norm by r since |x|_2 <= sqrt(d) max_j |x_j|.
    The slack covers the rounding of the computed norm, and the cap keeps its
    squares from overflowing to inf.  A NaN or inf fails.  False says
    nothing: some row may still lie within r."""
    screen = min(r, 1e150) / (math.sqrt(x.shape[1]) * SCREEN_SLACK)
    return bool(x.max() <= screen and x.min() >= -screen)


def _outside(x: np.ndarray, r_max: float):
    """The rows to censor as a mask, or None when there are none (``_within``
    screens them with the batch's largest and smallest coordinates): a row with a NaN or infinite
    coordinate, or with ``row_norm(x) > r_max``."""
    if _within(x, r_max):
        return None
    if r_max == np.inf:
        return ~np.isfinite(x).all(axis=-1)
    return ~(row_norm(x) <= r_max)


def _compensator_quadrature(spec: ModelSpec, x: np.ndarray, k: np.ndarray,
                            eps: float) -> np.ndarray:
    """Fallback large-jump compensator int_{|u|>eps} c(x,k,u) nu(du) for a
    model without a closed form, by the batched mark-quadrature rule at
    every path's own state; raises ``QuadratureError`` when the rule's error
    estimate exceeds the threshold ``quadrature.integrate`` sets for
    ``COMP_QUAD_TOL``."""
    value, _ = quadrature.integrate(spec, spec.jump_coeff, (x, k), eps,
                                    spec.jump_measure.radius_max, COMP_QUAD_TOL)
    return value


class _PathLog:
    """Step observer that records path 0 of a batch, for a ``PathRecord``.

    Each call keeps path 0's time, state and regime, and the marks of its
    large jumps in the step, in round order.  ``record`` builds the events
    after the run: a switch event (t, from, to) at every step where the
    regime changed, and a jump event (t, mark, displacement) per jump, the
    displacement c(x, k, u) at the state where its step started.  The step
    engines make the same c calls, so the displacements are theirs bit for
    bit.  A switch whose drawn target is the current regime leaves no event.
    """

    def __init__(self):
        self.ts, self.xs, self.ks = [], [], []
        self.jumps = []   # (i, marks) for each step i in which path 0 jumped

    def __call__(self, i, t, x, k, alive, draws):
        self.ts.append(t)
        self.xs.append(x[0].copy())
        self.ks.append(int(k[0]))
        if draws is not None and draws.hit is not None:
            mine = (draws.hit == 0).nonzero()[0]
            if mine.size:
                self.jumps.append((i, draws.marks.take(mine, axis=0)))

    def record(self, spec: ModelSpec, cfg: IntegratorConfig, seed: int, exit_time: float, *,
               dropped: bool) -> PathRecord:
        """The ``PathRecord`` of the observed path, censored at ``exit_time``
        if finite; with ``dropped``, its ``small_jump_var_dropped`` is h
        sum_i tr small_jump_cov(xs_i, ks_i) over the steps i, in step order,
        under the drop policy."""
        xs, ks = np.array(self.xs), np.array(self.ks, dtype=np.int64)
        switches = (ks[1:] != ks[:-1]).nonzero()[0] + 1
        jumps = []
        if self.jumps:
            at = np.repeat([i for i, _ in self.jumps], [u.shape[0] for _, u in self.jumps])
            marks = np.concatenate([u for _, u in self.jumps])
            disp = np.asarray(spec.jump_coeff(xs[at - 1], ks[at - 1], marks), dtype=float)
            jumps = [(self.ts[i], u, c) for i, u, c in zip(at.tolist(), marks, disp)]
        rec = PathRecord(np.array(self.ts), xs, ks,
                         [(self.ts[i], int(ks[i - 1]), int(ks[i])) for i in switches.tolist()],
                         jumps, seed, exited=float(exit_time) if np.isfinite(exit_time) else None)
        if dropped and cfg.small_jump_policy == "drop" and spec.has_jumps:
            _, h, eps, *_ = _step_setup(spec, cfg)
            rec.small_jump_var_dropped = 0.0
            if spec.small_jump_cov is not None:
                cov = np.asarray(spec.small_jump_cov(xs[:-1], ks[:-1], eps), dtype=float)
                for v in np.trace(cov, axis1=1, axis2=2).tolist():
                    rec.small_jump_var_dropped += h * v
        return rec


class _Survival:
    """Step observer for the survival weight exp(-int q_k(X(s)) ds) of a frozen
    batch: the trapezoid rule, where step i adds 0.5 h (q(x_i) + q(x_{i+1})) to
    each path alive at its start, and a state that is not finite keeps its last rate."""

    def __init__(self, spec: ModelSpec, cfg: IntegratorConfig):
        _, self.h, *_, row_tol = _step_setup(spec, cfg)
        self.trunc = RowTruncator(spec.rates, row_tol)
        self.alive, self.integral = None, 0.0   # alive at the step's start, None while all are

    def __call__(self, i, t, x, k, alive, draws):
        if self.alive is None and alive.all():   # a non-finite state would be censored
            q, now = self.trunc.row_sums(x, k), None
        else:
            fin = np.isfinite(x).all(axis=1)
            q, now = self.q.copy(), alive.copy()
            q[fin] = self.trunc.row_sums(x[fin], k[fin])
        if i:
            step = 0.5 * self.h * (self.q + q)
            self.integral += step if self.alive is None else np.where(self.alive, step, 0.0)
        self.q, self.alive = q, now

    @property
    def weight(self) -> np.ndarray:
        return np.exp(-self.integral)


def simulate_path(spec: ModelSpec, start: HybridState, cfg: IntegratorConfig,
                  seed: int) -> PathRecord:
    """Simulate a single trajectory with full grid and event recording: a
    one-path ``simulate_ensemble`` whose ``_PathLog`` observer records it."""
    ens = simulate_ensemble(spec, start, cfg, 1, seed, observer=lambda block: _PathLog())
    return ens.observers[0].record(spec, cfg, seed, ens.exit_time[0], dropped=True)


def simulate_killed_path(spec: ModelSpec, start: HybridState, cfg: IntegratorConfig,
                         seed: int):
    """Simulate the frozen-regime path and its survival weight
    exp(-int_0^T q_k(X(s)) ds), the sub-probability reweighting for the
    killed process, as a one-path "killed" ``simulate_ensemble``.  Returns
    (PathRecord, weight)."""
    ens = simulate_ensemble(spec, start, cfg, 1, seed, regime="killed",
                            observer=lambda block: _PathLog())
    rec = ens.observers[0].record(spec, cfg, seed, ens.exit_time[0], dropped=True)
    return rec, float(ens.weight[0])


def simulate_ensemble(spec: ModelSpec, start: HybridState | Sequence[HybridState],
                      cfg: IntegratorConfig,
                      n_paths: int, seed: int, threads: int = 1, *,
                      regime: str = "switching", observer: Callable | None = None,
                      stream: int = 0) -> EnsembleResult:
    """Run n_paths trajectories and return terminal data.

    ``start`` is one ``HybridState`` or a sequence of m of them.  ``n_paths``
    is the total and must be a multiple of m; block i, the paths
    [i n_paths/m, (i+1) n_paths/m), starts from ``start[i]``.  Each block is
    cut into chunks of CHUNK_SIZE paths, and chunk c of block i uses the RNG
    stream derived from (seed, stream + i, c).  So block i holds the same
    numbers as a one-start ensemble on stream ``stream + i``.

    Consecutive chunks are packed, never split, into batches of at most
    CHUNK_SIZE paths, and each batch runs as one lockstep ``_evolve`` call,
    so a narrow ensemble pays the fixed cost of a step (the Python loop,
    the coefficient calls, the rate-row call, the observer) once per batch.
    Packing keeps the numbers: every draw is made per chunk, from the
    chunk's own stream and in a lone chunk's order, and every other step
    operation acts path by path.  The one thing a batch's chunks share is
    the adaptive truncation level L of the rate rows, which only grows.  It
    is the same either way when the level a row needs does not depend on the
    state (``example52`` needs L = 32 at its default tolerance from any
    state).  Otherwise switching could differ only where a uniform falls
    within round-off of a switch threshold, and killed-mode weights, which
    sum the rows (``RowTruncator.row_sums``), in their last bits.  A
    one-start ensemble of CHUNK_SIZE paths or more packs nothing.  Threads
    only distribute the batches, so any thread count reproduces the same
    numbers.

    ``regime`` is "switching", "frozen" or "killed" (see the module
    docstring); only "killed" fills ``weight``, from a ``_Survival``
    observer called after the caller's.  ``observer(block)`` is
    called once per batch, with ``block`` the start index of each of the
    batch's paths, and returns a callable ``(i, t, x, k, alive, draws)``
    that sees the batch after every step i, with ``draws`` the step's
    ``StepDraws`` (None at i = 0), which hold only during the call; the
    callables, in batch order, come back in ``observers``.
    """
    if regime not in ("switching", "frozen", "killed"):
        raise ValueError(f"regime must be 'switching', 'frozen' or 'killed', not {regime!r}")
    starts = [start] if isinstance(start, HybridState) else list(start)
    if not starts:
        raise ValueError("need at least one start")
    for s in starts:
        spec.check_state(s)
    if n_paths < 1:
        raise ValueError("need at least one path")
    if n_paths % len(starts):
        raise ValueError("n_paths must be a multiple of the number of starts")
    per = n_paths // len(starts)
    block = np.repeat(np.arange(len(starts)), per)
    x_start = np.array([s.x for s in starts], dtype=float)
    k_start = np.array([s.k for s in starts], dtype=np.int64)
    batches = []  # each a list of (block, chunk, lo, hi) in path order
    for bi in range(len(starts)):
        for c, lo in enumerate(range(bi * per, (bi + 1) * per, CHUNK_SIZE)):
            hi = min(lo + CHUNK_SIZE, (bi + 1) * per)
            if not batches or hi - batches[-1][0][2] > CHUNK_SIZE:
                batches.append([])
            batches[-1].append((bi, c, lo, hi))
    observers = [None] * len(batches)

    def work(b: int):
        chunks = batches[b]
        lo, hi = chunks[0][2], chunks[-1][3]
        streams = tuple((derive_rng(seed, stream + bi, c), c_lo - lo, c_hi - lo)
                        for bi, c, c_lo, c_hi in chunks)
        blk = block[lo:hi]
        if observer is not None:
            observers[b] = observer(blk)
        survival = _Survival(spec, cfg) if regime == "killed" else None
        out = _evolve(spec, x_start[blk], k_start[blk], cfg, streams,
                      switching=regime == "switching",
                      observers=[ob for ob in (observers[b], survival) if ob is not None])
        out["weight"] = None if survival is None else survival.weight   # merged when killed
        return slice(lo, hi), out

    names = ("x", "k", "exit_time") + (("weight",) if regime == "killed" else ())
    return EnsembleResult(**_run_batches(work, len(batches), threads, n_paths, names),
                          observers=observers if observer is not None else [])


def _run_batches(work: Callable, n_batches: int, threads: int, n: int, names) -> dict:
    """Run ``work(b) -> (dest, out)`` for b = 0..n_batches-1 and merge the outputs.

    Returns, for each of ``names``, the (n, ...) array holding ``out[name]``
    at rows ``dest``.  With ``threads`` > 1 the batches run on that many
    threads, else in the calling thread; either way the outputs merge in
    batch order, so the result does not depend on the thread count.  A
    ``threads`` below 1 raises ``ValueError`` before any batch runs.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    merged = {}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        batches = range(n_batches)
        parts = pool.map(work, batches) if threads > 1 and n_batches > 1 else map(work, batches)
        for dest, out in parts:
            for name in names:
                if name not in merged:
                    merged[name] = np.empty((n,) + out[name].shape[1:], out[name].dtype)
                merged[name][dest] = out[name]
    return merged
