"""Coupled evolution of two hybrid paths sharing their driving noise.

Two couplings are provided.

*Basic (synchronous)*: both continuous parts see the same Brownian increments
and the same jump marks; the regime pair moves through the basic coupling of
the two rate rows -- for each target l the rates split into a joint part
min(q_il(x), q_jl(z)) and two one-sided residuals (q_il(x)-q_jl(z))^+ and
(q_jl(z)-q_il(x))^+, maximizing simultaneous switches.

*Reflection*: the diffusion parts are driven through the two-noise
decomposition

    dX  = b dt + s_lam(X) dW1 + sqrt(lam) dW2
    dX~ = b~dt + s_lam(X~) dW1 + sqrt(lam) (I - 2 u u^T) dW2,

with s_lam the symmetric PSD root of a - lam*I and u the unit vector along
X~ - X frozen at each step's start, so the one-step cross-covariance of the
increments matches lam*(I - 2uu^T) + s_lam(X) s_lam(X~)^T.  Jumps stay
synchronous and switching uses the basic rate coupling.  Once |X~ - X| drops
below the coalescence threshold with equal regimes the pair is declared
coalesced and continues as a single path: X~ = X and K~ = K from then on, so
the engine evaluates the second side's coefficients only at the pairs that
have not coalesced, and a coalesced pair's second side takes the first
side's increment, which is what evaluating it would give bit for bit.

Coalescence detection cannot wait for the discrete pair to land exactly on
the diagonal: the mirror walk crosses zero inside steps but essentially never
hits a fixed tiny window at grid times.  The engine therefore samples the
within-step crossing of the separation with the Brownian-bridge probability
exp(-2 r_n r_{n+1} / (A h)) (1 on a sign flip in one dimension), where A is
the separation's one-step variance rate |s_lam(x)u - s_lam(x~)u|^2 + 4 lam.
On acceptance the second path is set to the first -- by the reflection
principle the mirrored endpoint has the same conditional law as the direct
one, so the merge costs no first-order law error.  The threshold rule
(|X~ - X| below eta with equal regimes) is kept as a secondary detector and
still catches pairs that start identical.

Four stopping times are recorded as grid-time marks (inf when never hit):
exit of the ball of radius R (by either the states or the regime indices),
first |X~ - X| above delta0, first regime disagreement, and the meeting time.

Ensembles are deterministic given (model, starts, config, seed): chunk c
draws from the stream derived from (seed, 0, c), and the chunks run
through ``simulate._run_batches``, the batch runner of plain ensembles too,
which merges their outputs in chunk order whatever the thread count.  A
sweep over several second starts draws once per chunk, and every separation
sees those draws.  Pair i's first side starts at the same state in every
separation and sees the same draws, so it is stepped once per pair index
until some separation's first side switches regime or is censored; from
then on it is stepped per separation.  Each separation keeps its own
``RowTruncator``, and the switch candidates get their rate rows from one
``rows(x, k, level=L)`` call per step for all separations at level L, which
builds at exactly L and moves no level.  Block j of the sweep holds the
bytes of a one-start ensemble with the j-th second start.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from ._csv import write_csv
from ._linalg import row_norm, sqrt_psd_batched
from .errors import TruncationError
from .model import HybridState, ModelSpec, RowTruncator
from .simulate import (CHUNK_SIZE, IntegratorConfig, PathRecord, StepDraws, _apply_step,
                       _check_positive, _draw_block, _outside, _PathLog, _run_batches,
                       _step_draws, _step_setup, _within, derive_rng)

__all__ = [
    "CouplingConfig",
    "CoupledPathRecord",
    "CoupledEnsemble",
    "couple",
    "couple_ensemble",
    "sqrt_psd",
    "pair_one_step",
]


@dataclass(frozen=True)
class CouplingConfig(IntegratorConfig):
    """Integrator settings plus the coupling-specific knobs.

    ``lambda_R`` (reflection only) defaults to the model's declared
    ellipticity floor and must not exceed it; ``eta`` is the coalescence
    threshold, defaulting to 1e-6 * (1 + |x|) at run time, and must be
    positive and finite.  ``ball_radius`` (the ball of tau_R) and ``delta0``
    (the separation of S_delta0) must be positive; +inf means the mark is
    never hit.
    """

    kind: str = "basic"
    lambda_R: float | None = None
    ball_radius: float = 1e6
    delta0: float = 1.0
    eta: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in ("basic", "reflection"):
            raise ValueError("kind must be 'basic' or 'reflection'")
        if self.eta is not None:
            _check_positive("coalescence threshold eta", self.eta, finite=True)
        _check_positive("ball_radius", self.ball_radius, finite=False)
        _check_positive("delta0", self.delta0, finite=False)


def sqrt_psd(a_minus: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of a symmetric matrix.

    Eigenvalues in [-_linalg.CLAMP_TOL, 0) are treated as roundoff and clamped
    to 0; smaller ones raise, as they indicate the input genuinely fails to be PSD.
    """
    a = np.asarray(a_minus, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(a - a.T)) > 1e-8 * (1.0 + np.max(np.abs(a))):
        raise ValueError("input matrix is not symmetric")
    root, _ = sqrt_psd_batched(a[None])
    return root[0]


def _resolve_lambda(spec: ModelSpec, cfg: CouplingConfig) -> float:
    lam = cfg.lambda_R if cfg.lambda_R is not None else spec.ellipticity_floor
    if lam is None:
        raise ValueError("reflection coupling needs lambda_R (or a declared model floor)")
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda_R must be positive and finite, got {lam}")
    if spec.ellipticity_floor is not None and lam > spec.ellipticity_floor + 1e-12:
        raise ValueError(
            f"lambda_R={lam} exceeds the model's declared ellipticity floor "
            f"{spec.ellipticity_floor}")
    return float(lam)


def _bridge_crossing_prob(sep0, sep1, r0, r1, sl1, sl2, u, lam: float, h: float):
    """Brownian-bridge probability that the separation crossed zero within a
    step: exp(-2 r0 r1 / (Abar h)), with Abar = |(s_lam(x) - s_lam(x~)) u|^2
    + 4 lam the separation's variance rate, and 1 on a sign flip in one
    dimension.  ``sep0``/``sep1`` are the (n, d) separations at the step's
    start and end, ``r0``/``r1`` their norms, ``sl1``/``sl2`` the (n, d, d)
    roots s_lam and ``u`` the (n, d) unit vectors of the step."""
    cross_num = sep0[:, 0] * sep1[:, 0] if sep0.shape[1] == 1 else r0 * r1
    slu = np.einsum("nij,nj->ni", sl1 - sl2, u)
    abar = np.einsum("ni,ni->n", slu, slu) + 4.0 * lam
    with np.errstate(over="ignore"):
        return np.where(cross_num < 0.0, 1.0,
                        np.exp(-2.0 * np.maximum(cross_num, 0.0) / (abar * h)))


def _pair_rows(trunc: RowTruncator, X, Xt, K, Kt, cand, level: int | None = None):
    """One ``trunc.rows`` call for the candidate pairs ``cand``, at ``level``
    if given: the rows of their first sides, then of their second sides, and
    the level's regimes."""
    rows, _, ls = trunc.rows(np.concatenate([X.take(cand, axis=0), Xt.take(cand, axis=0)]),
                             np.concatenate([K.take(cand), Kt.take(cand)]), level=level)
    return cand, rows, ls


def _switch_rows(truncs, X, Xt, K, Kt, cand, block_edges):
    """The coupled rate rows of the candidate pairs ``cand``, as a list of
    ``_pair_rows`` results.  Block j of the batch is truncated by
    ``truncs[j]``, and ``block_edges`` holds the first pair of every block
    after the first.

    The candidates of all blocks whose truncators stand at one level L make
    a single ``rows`` call at exactly L, on the truncator of the group's
    first block, which neither raises nor keeps a level.  Rows are evaluated
    and certified row by row, so where that call certifies L each block gets
    the rows its own call would.  Where it does not, or where L holds one
    block, each block calls its own truncator, which raises its level as far
    as its rows need.
    """
    parts = np.split(cand, np.searchsorted(cand, block_edges))
    levels: dict = {}
    for j, c in enumerate(parts):
        if c.size:
            levels.setdefault(truncs[j].level, []).append(j)
    out = []
    for L, js in levels.items():
        if len(js) > 1:
            try:
                out.append(_pair_rows(truncs[js[0]], X, Xt, K, Kt,
                                      np.concatenate([parts[j] for j in js]), level=L))
                continue
            except TruncationError:
                pass    # some block needs more than L: each goes its own way
        out.extend(_pair_rows(truncs[j], X, Xt, K, Kt, parts[j]) for j in js)
    return out


def _coupled_switch(rows, ls, u1, u2, h: float):
    """One step of the basic coupling of the two rate rows of m candidate
    pairs, one event per step: its total rate sum_l max(q1_l, q2_l) <=
    Qbar_K + Qbar_Kt screened the candidates.  ``rows`` holds the (2m, L)
    rows of the first sides, then of the second sides, over the regimes
    ``ls``, and ``u1``/``u2`` the candidates' two switch uniforms.  Returns
    ``(do, which, l_new)``: the candidates that switch, which part fired (0
    both sides, 1 the first only, 2 the second only) and the new regime."""
    m = u1.size
    rows1, rows2 = rows[:m], rows[m:]
    ml = np.minimum(rows1, rows2)
    al = rows1 - ml
    bl = rows2 - ml
    stot = ml.sum(axis=1) + al.sum(axis=1) + bl.sum(axis=1)
    do = ((u1 < -np.expm1(-stot * h)) & (stot > 0.0)).nonzero()[0]
    L = rows1.shape[1]
    allr = np.concatenate([ml.take(do, axis=0), al.take(do, axis=0), bl.take(do, axis=0)],
                          axis=1)
    cum = np.cumsum(allr, axis=1)
    tgt = u2.take(do) * stot.take(do)
    idx = np.minimum((cum < tgt[:, None]).sum(axis=1), 3 * L - 1)
    return do, idx // L, ls.take(idx % L)


def _unit_rows(x, xt):
    """The unit vectors along the rows of xt - x, 0 where the rows coincide."""
    diff = xt - x
    dn = row_norm(diff)
    return np.where(dn[:, None] > 0.0, diff / np.where(dn[:, None] > 0.0, dn[:, None], 1.0), 0.0)


def _evolve_pair(spec: ModelSpec, x0, xt0, k0, kt0, cfg: CouplingConfig,
                 rng: np.random.Generator, *, blocks: int = 1, observe=None):
    """Advance an (n, d) batch of coupled pairs over the full grid.

    The batch is ``blocks`` equal blocks of m = n / blocks pairs that all see
    the same numbers: the draws are made once for m pairs from ``rng``, by
    ``_draw_block`` a block of steps at a time, and row r of the batch reads
    the draws of pair r % m.  Each block keeps its own ``RowTruncator``
    and so its own truncation level, and block j holds exactly what a batch
    of its m pairs alone would.  A step builds the switch candidates' rows
    with one ``rows`` call per truncation level that its blocks stand at,
    or one per block where a level does not hold (``_switch_rows``); the
    candidates are the pairs whose first switch uniform falls below
    1 - exp(-(Qbar_K + Qbar_K~) h), a threshold kept per pair and
    recomputed only for the pairs whose regimes changed, from the whole-row
    bounds ``screen_bound`` of the first block's truncator, which every
    ``rows`` call checks its rows against.

    Each side is evaluated once per step by ``_apply_step``, and only where
    its increment can differ from one already evaluated:

    * Pair i's first side starts at the same state in every block and sees
      the same draws, so it stays one state until some block's first side
      switches regime or is censored; from then on the pair has diverged.
      Side 1 is evaluated in one call at the m rows of block 0 and at the
      rows of the diverged pairs in the other blocks: on the draws as
      ``_draw_block`` made them while no pair has diverged, else on those
      that ``StepDraws.gather`` picks for the rows.  Every row takes the
      increment of its evaluated row (``src``), and ``n_clamped`` counts the
      clamps of every row.
    * Under reflection a coalesced pair is stepped once: side 2 is evaluated
      only at the pairs that have not coalesced, on the draws gathered for
      them, and the others take the first side's increment, which is the one
      they would get.  Under the basic coupling side 2 is evaluated at every
      row.

    Only the live, uncoalesced pairs with equal regimes take the
    bridge-crossing test, and only the pairs live and uncoalesced at a
    step's start are scanned for the meeting, split and separation marks,
    which no other pair can set; the ball exit is scanned at every pair.
    Until the first pair is censored the step skips the per-pair selects
    that keep a censored pair frozen, and ``_within`` screens the r_max
    guard and the ball of tau_R with the largest coordinate before any norm
    is taken.  Each of these gives the numbers of the full forms.  A pair is
    censored at the step where either side exceeds r_max or stops being
    finite (``_outside``).  ``observe`` holds one ``_evolve`` step observer
    per side.
    """
    n = x0.shape[0]
    m = n // blocks
    reflect = cfg.kind == "reflection"
    lam = _resolve_lambda(spec, cfg) if reflect else None
    nsteps, h, eps, lam_rate, gaussian, row_tol = _step_setup(spec, cfg)
    eta = cfg.eta if cfg.eta is not None else 1e-6 * (1.0 + float(np.linalg.norm(x0[0])))

    X = x0.astype(float).copy()
    Xt = xt0.astype(float).copy()
    K = k0.astype(np.int64).copy()
    Kt = kt0.astype(np.int64).copy()

    zeta = np.full(n, np.inf)
    s_delta0 = np.full(n, np.inf)
    tau_r = np.full(n, np.inf)
    t_meet = np.full(n, np.inf)
    merged = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    all_alive = True   # alive.all(), kept as a bool
    exit_time = np.full(n, np.inf)
    n_clamped = 0

    truncs = [RowTruncator(spec.rates, row_tol) for _ in range(blocks)]
    block_edges = m * np.arange(1, blocks)
    # the whole-row bounds do not depend on the truncation level
    bound = truncs[0].screen_bound
    thresh = -np.expm1(-(bound(K) + bound(Kt)) * h)

    every = np.arange(n)
    pair = every % m            # the pair, and so the draws, of every row
    diverged = np.zeros(m, dtype=bool)
    rows1 = None                # side 1's evaluated rows, None while they are block 0's
    src = pair                  # the evaluated row whose increment each row takes

    def scan_marks(t, rows=None):
        """Set the meeting, split and separation marks hit at time t among
        ``rows`` (None: every pair), and the ball exit at every pair."""
        at = slice(None) if rows is None else rows
        delta = row_norm(Xt[at] - X[at])

        def unset(mask, mark):
            """The pairs of ``mask``, over ``at``, whose ``mark`` is unset."""
            i = mask.nonzero()[0]
            if rows is not None:
                i = rows.take(i)
            return i.compress(np.isinf(mark.take(i)))

        met = unset(delta < eta, t_meet)
        met = met.compress(K.take(met) == Kt.take(met))
        if met.size:
            t_meet[met] = t
            if reflect:
                merged[met] = True
                Xt[met] = X[met]
        zeta[unset(K[at] != Kt[at], zeta)] = t
        s_delta0[unset(delta > cfg.delta0, s_delta0)] = t
        R = cfg.ball_radius
        if not (_within(X, R) and _within(Xt, R) and max(K.max(), Kt.max()) <= R):
            big = np.maximum(row_norm(X), row_norm(Xt))
            big = np.maximum(big, np.maximum(K, Kt).astype(float))
            out = (big > R) & np.isinf(tau_r)
            tau_r[out] = t

    scan_marks(0.0)
    if observe is not None:
        observe[0](0, 0.0, X, K, alive, None)
        observe[1](0, 0.0, Xt, Kt, alive, None)

    step_draws = _step_draws(((rng, 0, m),), spec, h, eps, lam_rate, nsteps, reflect=reflect,
                             gaussian=gaussian, n_unif=3 if reflect else 2)
    for i, draws in enumerate(step_draws):
        t_next = (i + 1) * h
        # the pairs not coalesced, None while none has; the pairs that can
        # still set a mark, None while that is every pair
        rows2 = (~merged).nonzero()[0] if reflect and merged.any() else None
        scan = rows2 if all_alive else (alive & ~merged).nonzero()[0]
        # the increments read neither the Poisson counts nor the uniforms, so
        # no gather copies them
        inc = StepDraws(draws.z, draws.z2, hit=draws.hit, marks=draws.marks, zg=draws.zg)

        if rows1 is None:
            dx1, roots1 = _apply_step(spec, X[:m], K[:m], h, draws, eps, lam)
        else:
            dx1, roots1 = _apply_step(spec, X.take(rows1, axis=0), K.take(rows1), h,
                                      inc.gather(rows1), eps, lam)
        dX = dx1.take(src, axis=0)
        u = roots2 = None
        if rows2 is None:
            if reflect:
                u = _unit_rows(X, Xt)
            dXt, roots2 = _apply_step(spec, Xt, Kt, h,
                                      draws if blocks == 1 else inc.gather(every), eps, lam, u)
        else:
            dXt = dX.copy()
            if rows2.size:
                x2 = Xt.take(rows2, axis=0)
                u = _unit_rows(X.take(rows2, axis=0), x2)
                dXt[rows2], roots2 = _apply_step(spec, x2, Kt.take(rows2), h,
                                                 inc.gather(rows2), eps, lam, u)

        # a censored pair keeps its state
        if all_alive:
            Xn, Xtn = np.add(X, dX, out=dX), np.add(Xt, dXt, out=dXt)
        else:
            Xn = np.where(alive[:, None], X + dX, X)
            Xtn = np.where(alive[:, None], Xt + dXt, Xt)

        # regimes via the basic coupling of the two rate rows
        unif = draws.unif
        u1, u2 = unif[0], unif[1]
        below = (u1 < thresh.reshape(blocks, m)).ravel()
        if not all_alive:
            below &= alive
        cand = below.nonzero()[0]
        Kn, Ktn = K, Kt
        split = []       # rows whose first side switched or that are censored
        if cand.size:
            Kn, Ktn = K.copy(), Kt.copy()
            for c, rows, ls in _switch_rows(truncs, X, Xt, K, Kt, cand, block_edges):
                pc = pair.take(c)
                do, which, l_new = _coupled_switch(rows, ls, u1.take(pc), u2.take(pc), h)
                if not do.size:
                    continue
                fire = c.take(do)
                one, two = which != 2, which != 1
                Kn[fire[one]] = l_new[one]
                Ktn[fire[two]] = l_new[two]
                thresh[fire] = -np.expm1(-(bound(Kn.take(fire)) + bound(Ktn.take(fire))) * h)
                split.append(fire[one])

        if reflect:
            # within-step meeting via the Brownian-bridge crossing probability,
            # for the live, uncoalesced pairs with equal regimes; roots2 and u
            # are given at the rows rows2
            sl1, c1 = roots1
            if c1.any():
                # side 1's clamps at every row, and again at the rows where
                # side 2 takes side 1's increment
                per_row = np.count_nonzero(c1, axis=1).take(src)
                n_clamped += int(per_row.sum())
                if rows2 is not None:
                    n_clamped += int(per_row.sum() - per_row.take(rows2).sum())
            if roots2 is not None:
                n_clamped += np.count_nonzero(roots2[1])
            if rows2 is None:
                test = Kn == Ktn
                if not all_alive:
                    test &= alive
                at = idx = test.nonzero()[0]
            else:
                test = Kn.take(rows2) == Ktn.take(rows2)
                if not all_alive:
                    test &= alive.take(rows2)
                at = test.nonzero()[0]
                idx = rows2.take(at)
            if idx.size:
                sep0 = Xt.take(idx, axis=0) - X.take(idx, axis=0)
                sep1 = Xtn.take(idx, axis=0) - Xn.take(idx, axis=0)
                r0 = row_norm(sep0)
                p_cross = _bridge_crossing_prob(sep0, sep1, r0, row_norm(sep1),
                                                sl1.take(src.take(idx), axis=0),
                                                roots2[0].take(at, axis=0),
                                                u.take(at, axis=0), lam, h)
                meet = idx[(r0 > 0.0) & (unif[2].take(pair.take(idx)) < p_cross)]
                if meet.size:
                    merged[meet] = True
                    t_meet[meet] = np.minimum(t_meet[meet], t_next)
                    Xtn[meet] = Xn[meet]

        out1, out2 = _outside(Xn, cfg.r_max), _outside(Xtn, cfg.r_max)
        if out1 is not None or out2 is not None:
            newly = out2 if out1 is None else out1 if out2 is None else out1 | out2
            if not all_alive:
                newly &= alive
            if newly.any():
                exit_time[newly] = t_next
                alive &= ~newly
                all_alive = False
                split.append(newly.nonzero()[0])

        X, Xt, K, Kt = Xn, Xtn, Kn, Ktn
        scan_marks(t_next, scan)
        if observe is not None:
            observe[0](i + 1, t_next, X, K, alive, draws)
            observe[1](i + 1, t_next, Xt, Kt, alive, draws)

        if blocks > 1 and split:
            now = pair.take(np.concatenate(split))
            if not diverged.take(now).all():
                # side 1 of a diverged pair is evaluated in every block
                diverged[now] = True
                extra = (m * np.arange(1, blocks)[:, None] + diverged.nonzero()[0]).ravel()
                src = pair.copy()
                src[extra] = np.arange(m, m + extra.size)
                rows1 = np.concatenate([np.arange(m), extra])

    return {
        "x": X, "xt": Xt, "k": K, "kt": Kt,
        "zeta": zeta, "s_delta0": s_delta0, "tau_r": tau_r, "t_meet": t_meet,
        "coalesced": merged, "exit_time": exit_time,
        "n_clamped": n_clamped,
    }


@dataclass
class CoupledPathRecord:
    """A coupled pair of trajectories on a common grid with stopping-time marks.

    marks holds grid times (inf = not hit) for: 'tau_R' (ball exit),
    'S_delta0' (separation above delta0), 'zeta' (first regime disagreement),
    'T' (meeting: |delta| below threshold with equal regimes) and 'T_tilde'
    (full hybrid coupling; equals T under this discretization's coalescence
    rule, emitted separately for the record format).
    """

    times: np.ndarray
    first: PathRecord
    second: PathRecord
    delta: np.ndarray
    marks: dict
    coalesced: bool
    seed: int
    n_eig_clamped: int = 0  # a - lambda_R I eigenvalues clamped to 0 (roundoff warnings)

    def to_csv(self, path):
        d = self.first.xs.shape[1]
        write_csv(path, (["t"] + [f"x{i+1}" for i in range(d)] + [f"xt{i+1}" for i in range(d)]
                         + ["k", "kt", "abs_delta"]),
                  self.times, self.first.xs, self.second.xs, self.first.ks, self.second.ks,
                  self.delta)

    def marks_dict(self) -> dict:
        out = {k: (None if np.isinf(v) else float(v)) for k, v in self.marks.items()}
        out["coalesced"] = self.coalesced
        out["seed"] = self.seed
        out["n_eig_clamped"] = self.n_eig_clamped
        return out


@dataclass
class CoupledEnsemble:
    """Terminal data and marks for an ensemble of coupled pairs."""

    x: np.ndarray
    xt: np.ndarray
    k: np.ndarray
    kt: np.ndarray
    zeta: np.ndarray
    s_delta0: np.ndarray
    tau_r: np.ndarray
    t_meet: np.ndarray
    coalesced: np.ndarray
    exit_time: np.ndarray

    @property
    def n_censored(self) -> int:
        return int(np.count_nonzero(np.isfinite(self.exit_time)))

    def blocks(self, count: int) -> list:
        """The ensemble cut into ``count`` equal blocks of pairs, in order; for
        a sweep, block j holds separation j (see ``couple_ensemble``)."""
        size = self.x.shape[0] // count
        return [CoupledEnsemble(*(getattr(self, f.name)[j * size:(j + 1) * size]
                                  for f in fields(self)))
                for j in range(count)]


def couple(spec: ModelSpec, start: HybridState, start2: HybridState,
           cfg: CouplingConfig, seed: int) -> CoupledPathRecord:
    """One coupled pair under ``cfg.kind`` ("basic" or "reflection"), with
    full recording."""
    spec.check_state(start)
    spec.check_state(start2)
    if start.k != start2.k:
        raise ValueError("coupled starts must share the initial regime")
    logs = (_PathLog(), _PathLog())
    out = _evolve_pair(spec, start.x[None, :], start2.x[None, :], np.array([start.k]),
                       np.array([start2.k]), cfg, derive_rng(seed, 0, 0), observe=logs)
    p1, p2 = (log.record(spec, cfg, seed, out["exit_time"][0], dropped=False) for log in logs)
    delta = np.linalg.norm(p2.xs - p1.xs, axis=1)
    marks = {
        "tau_R": float(out["tau_r"][0]),
        "S_delta0": float(out["s_delta0"][0]),
        "zeta": float(out["zeta"][0]),
        "T": float(out["t_meet"][0]),
        "T_tilde": float(out["t_meet"][0]),
    }
    return CoupledPathRecord(p1.times, p1, p2, delta, marks,
                             bool(out["coalesced"][0]), seed,
                             n_eig_clamped=int(out["n_clamped"]))


def couple_ensemble(spec: ModelSpec, start: HybridState,
                    start2: HybridState | Sequence[HybridState], cfg: CouplingConfig,
                    n_pairs: int, seed: int, threads: int = 1) -> CoupledEnsemble:
    """Run n_pairs coupled pairs from ``start`` and the second starts.

    ``start2`` is one ``HybridState`` or a sequence of S of them, a
    separation sweep; each must share the regime of ``start``.  ``n_pairs``
    is the total and must be a multiple of S.  The result holds S blocks of
    m = n_pairs / S pairs: block j, the pairs [j m, (j+1) m), couples
    ``start`` with ``start2[j]`` (``blocks(S)`` cuts them apart).  The pairs
    of a block are cut into chunks of CHUNK_SIZE, and chunk c draws from the
    stream derived from (seed, 0, c) whatever the block.  So a sweep
    uses common random numbers across its separations, and block j holds the
    same bytes as a one-start call with ``start2[j]`` and m pairs.

    A sweep draws once per chunk: chunk c of all S blocks steps as one
    ``_evolve_pair`` batch, which makes each step's draws and maps its marks
    once for all S blocks, steps each pair's first side once while it is one
    state in every block, builds the switch candidates' rate rows with one
    call per truncation level, and evaluates everything else pair by pair.
    Threads only distribute the chunks, so results are independent of the
    thread count.
    """
    seconds = [start2] if isinstance(start2, HybridState) else list(start2)
    if not seconds:
        raise ValueError("need at least one second start")
    spec.check_state(start)
    for s in seconds:
        spec.check_state(s)
        if s.k != start.k:
            raise ValueError("coupled starts must share the initial regime")
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    S = len(seconds)
    if n_pairs % S:
        raise ValueError("n_pairs must be a multiple of the number of second starts")
    per = n_pairs // S
    xt_start = np.array([s.x for s in seconds], dtype=float)
    bounds = [(lo, min(lo + CHUNK_SIZE, per)) for lo in range(0, per, CHUNK_SIZE)]

    def work(ci: int):
        lo, hi = bounds[ci]
        m = hi - lo
        out = _evolve_pair(spec, np.tile(start.x, (S * m, 1)), np.repeat(xt_start, m, axis=0),
                           np.full(S * m, start.k, dtype=np.int64),
                           np.full(S * m, start.k, dtype=np.int64), cfg,
                           derive_rng(seed, 0, ci), blocks=S)
        return (per * np.arange(S)[:, None] + np.arange(lo, hi)).ravel(), out

    return CoupledEnsemble(**_run_batches(work, len(bounds), threads, n_pairs,
                                          [f.name for f in fields(CoupledEnsemble)]))


def pair_one_step(spec: ModelSpec, x, xt, k: int, n: int, cfg: CouplingConfig,
                  rng: np.random.Generator, with_jumps: bool = True):
    """One coupled step of size cfg.step from a frozen pair state, n times.

    Returns raw increments (dX, dXt) with the regimes held fixed -- the
    moment tests for the coupled diffusion block and the short-time contraction
    of the pair distance both probe exactly this frozen-state transition.  The
    increment is the coupled engine's own, under ``cfg``'s coupling kind,
    lambda_R, jump cutoff and small-jump policy.
    """
    lam = _resolve_lambda(spec, cfg) if cfg.kind == "reflection" else None
    _, _, eps, lam_rate, gaussian, _ = _step_setup(spec, cfg)
    if not with_jumps:
        eps = lam_rate = None
    K = np.full(n, k, dtype=np.int64)
    x1 = np.tile(np.asarray(x, dtype=float), (n, 1))
    x2 = np.tile(np.asarray(xt, dtype=float), (n, 1))
    (draws,) = _draw_block(((rng, 0, n),), spec, cfg.step, eps, lam_rate, 1,
                           reflect=lam is not None, gaussian=gaussian)
    dX, _ = _apply_step(spec, x1, K, cfg.step, draws, eps, lam)
    dXt, _ = _apply_step(spec, x2, K, cfg.step, draws, eps, lam,
                         None if lam is None else _unit_rows(x1, x2))
    return dX, dXt
