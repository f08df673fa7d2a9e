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
coalesced and continues as a single path.

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
draws from the stream derived from (seed, stream, c), and the chunks run
through ``simulate._run_batches``, the batch runner of plain ensembles too,
which merges their outputs in chunk order whatever the thread count.  A
sweep over several second starts draws once per chunk, and every separation
sees those draws; block j of the sweep holds the bytes of a one-start
ensemble with the j-th second start.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from ._csv import write_csv
from ._linalg import row_norm, sqrt_psd_batched
from .model import HybridState, ModelSpec, RowTruncator
from .simulate import (CHUNK_SIZE, SCREEN_SLACK, IntegratorConfig, PathRecord, _apply_step,
                       _check_positive, _draw_block, _run_batches, _step_draws, _step_setup,
                       derive_rng)

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


def sqrt_psd(a_minus: np.ndarray, clamp_tol: float = 1e-6) -> np.ndarray:
    """Symmetric PSD square root of a symmetric matrix.

    Eigenvalues in [-clamp_tol, 0) are treated as roundoff and clamped to 0;
    smaller ones raise, as they indicate the input genuinely fails to be PSD.
    """
    a = np.asarray(a_minus, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(a - a.T)) > 1e-8 * (1.0 + np.max(np.abs(a))):
        raise ValueError("input matrix is not symmetric")
    root, _ = sqrt_psd_batched(a[None], clamp_tol=clamp_tol)
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


def _coupled_switch(trunc: RowTruncator, X, Xt, K, Kt, qbar1, qbar2, cand, u1, u2,
                    h: float):
    """One step of the basic coupling of the two rate rows for the candidate
    pairs ``cand``, one event per step: its total rate sum_l max(q1_l, q2_l)
    <= Qbar_K + Qbar_Kt screened the candidates.  Returns ``(first, l1,
    second, l2)``: the pairs whose first side switches and their new regimes,
    then the same for the second side."""
    m = cand.size
    rows_all, _, ls = trunc.rows(np.concatenate([X.take(cand, axis=0), Xt.take(cand, axis=0)]),
                                 np.concatenate([K[cand], Kt[cand]]),
                                 bound=np.concatenate([qbar1[cand], qbar2[cand]]))
    rows1, rows2 = rows_all[:m], rows_all[m:]
    ml = np.minimum(rows1, rows2)
    al = rows1 - ml
    bl = rows2 - ml
    stot = ml.sum(axis=1) + al.sum(axis=1) + bl.sum(axis=1)
    do = (u1[cand] < -np.expm1(-stot * h)) & (stot > 0.0)
    fire = cand[do]
    L = rows1.shape[1]
    allr = np.concatenate([ml[do], al[do], bl[do]], axis=1)
    cum = np.cumsum(allr, axis=1)
    tgt = u2[fire] * stot[do]
    idx = np.minimum((cum < tgt[:, None]).sum(axis=1), 3 * L - 1)
    which = idx // L
    l_new = ls[idx % L]
    return fire[which != 2], l_new[which != 2], fire[which != 1], l_new[which != 1]


def _evolve_pair(spec: ModelSpec, x0, xt0, k0, kt0, cfg: CouplingConfig,
                 rng: np.random.Generator, *, blocks: int = 1, record: bool = False):
    """Advance an (n, d) batch of coupled pairs over the full grid.

    The batch is ``blocks`` equal blocks of m = n / blocks pairs that all see
    the same numbers: the draws are made once for m pairs from ``rng``, by
    ``_draw_block`` a block of steps at a time, and each step's draws are
    repeated for every block.  Each block keeps its own rate-row
    truncation level, so block j holds exactly what a batch of its m pairs
    alone would.
    """
    n, d = x0.shape
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
    exit_time = np.full(n, np.inf)
    n_clamped = 0

    truncs = [RowTruncator(spec.rates, row_tol) for _ in range(blocks)]
    block_edges = m * np.arange(1, blocks)
    # the whole-row bounds do not depend on the truncation level
    qbar1 = truncs[0].row_bound(K) * SCREEN_SLACK
    qbar2 = truncs[0].row_bound(Kt) * SCREEN_SLACK

    rec = None
    if record:
        rec = {
            "times": h * np.arange(nsteps + 1),
            "x1": np.empty((nsteps + 1, d)), "k1": np.empty(nsteps + 1, dtype=np.int64),
            "x2": np.empty((nsteps + 1, d)), "k2": np.empty(nsteps + 1, dtype=np.int64),
            "sw1": [], "sw2": [], "jp1": [], "jp2": [],
        }

    def scan_marks(t):
        delta = row_norm(Xt - X)
        met = (delta < eta) & (K == Kt) & np.isinf(t_meet)
        if met.any():
            t_meet[met] = t
            if reflect:
                merged[met] = True
                Xt[met] = X[met]
        split = (K != Kt) & np.isinf(zeta)
        zeta[split] = t
        far = (delta > cfg.delta0) & np.isinf(s_delta0)
        s_delta0[far] = t
        big = np.maximum(row_norm(X), row_norm(Xt))
        big = np.maximum(big, np.maximum(K, Kt).astype(float))
        out = (big > cfg.ball_radius) & np.isinf(tau_r)
        tau_r[out] = t

    scan_marks(0.0)
    if record:
        rec["x1"][0], rec["k1"][0] = X[0], K[0]
        rec["x2"][0], rec["k2"][0] = Xt[0], Kt[0]

    step_draws = _step_draws(((rng, 0, m),), spec, h, eps, lam_rate, nsteps, reflect=reflect,
                             gaussian=gaussian, n_unif=3 if reflect else 2)
    for i, draws in enumerate(step_draws):
        t_next = (i + 1) * h
        # one set of draws for m pairs, repeated for every block
        draws = draws.repeat(blocks)
        (dX, dXt), refl = _apply_step(
            spec, ((X, K), (Xt, Kt)), h, draws, eps, lam=lam,
            events=(t_next, (rec["jp1"], rec["jp2"])) if record else None)

        Xn = np.where(alive[:, None], X + dX, X)
        Xtn = np.where(alive[:, None], Xt + dXt, Xt)

        # regimes via the basic coupling of the two rate rows, one rows call
        # per block
        unif = draws.unif
        u1, u2 = unif[0], unif[1]
        Kn, Ktn = K, Kt
        cand = np.flatnonzero(alive & (u1 < -np.expm1(-(qbar1 + qbar2) * h)))
        if cand.size:
            Kn, Ktn = K.copy(), Kt.copy()
            for trunc, c in zip(truncs, np.split(cand, np.searchsorted(cand, block_edges))):
                if not c.size:
                    continue
                first, l1, second, l2 = _coupled_switch(trunc, X, Xt, K, Kt, qbar1, qbar2,
                                                        c, u1, u2, h)
                Kn[first] = l1
                Ktn[second] = l2
                qbar1[first] = trunc.row_bound(l1) * SCREEN_SLACK
                qbar2[second] = trunc.row_bound(l2) * SCREEN_SLACK
                if record and first.size and first[0] == 0:
                    rec["sw1"].append((t_next, int(K[0]), int(Kn[0])))
                if record and second.size and second[0] == 0:
                    rec["sw2"].append((t_next, int(Kt[0]), int(Ktn[0])))

        if reflect:
            # within-step meeting via the Brownian-bridge crossing probability
            sl1, sl2, u, clamps = refl
            n_clamped += clamps
            sep0, sep1 = Xt - X, Xtn - Xn
            r0 = row_norm(sep0)
            p_cross = _bridge_crossing_prob(sep0, sep1, r0, row_norm(sep1),
                                            sl1, sl2, u, lam, h)
            meet = alive & ~merged & (r0 > 0.0) & (Kn == Ktn) & (unif[2] < p_cross)
            if meet.any():
                merged[meet] = True
                t_meet[meet] = np.minimum(t_meet[meet], t_next)
                Xtn[meet] = Xn[meet]

        newly = alive & ((row_norm(Xn) > cfg.r_max) | (row_norm(Xtn) > cfg.r_max))
        if newly.any():
            exit_time[newly] = t_next
            alive &= ~newly

        X, Xt, K, Kt = Xn, Xtn, Kn, Ktn
        scan_marks(t_next)
        if record:
            rec["x1"][i + 1], rec["k1"][i + 1] = X[0], K[0]
            rec["x2"][i + 1], rec["k2"][i + 1] = Xt[0], Kt[0]

    out = {
        "x": X, "xt": Xt, "k": K, "kt": Kt,
        "zeta": zeta, "s_delta0": s_delta0, "tau_r": tau_r, "t_meet": t_meet,
        "coalesced": merged, "exit_time": exit_time, "eta": eta,
        "n_clamped": n_clamped,
    }
    if record:
        out["record"] = rec
    return out


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
    rng = derive_rng(seed, 0, 0)
    out = _evolve_pair(spec, start.x[None, :], start2.x[None, :],
                       np.array([start.k]), np.array([start2.k]), cfg, rng, record=True)
    rec = out["record"]
    exited = out["exit_time"][0]
    exited = None if not np.isfinite(exited) else float(exited)
    p1 = PathRecord(rec["times"], rec["x1"], rec["k1"], rec["sw1"], rec["jp1"], seed,
                    exited=exited)
    p2 = PathRecord(rec["times"], rec["x2"], rec["k2"], rec["sw2"], rec["jp2"], seed,
                    exited=exited)
    delta = np.linalg.norm(rec["x2"] - rec["x1"], axis=1)
    marks = {
        "tau_R": float(out["tau_r"][0]),
        "S_delta0": float(out["s_delta0"][0]),
        "zeta": float(out["zeta"][0]),
        "T": float(out["t_meet"][0]),
        "T_tilde": float(out["t_meet"][0]),
    }
    return CoupledPathRecord(rec["times"], p1, p2, delta, marks,
                             bool(out["coalesced"][0]), seed,
                             n_eig_clamped=int(out["n_clamped"]))


def couple_ensemble(spec: ModelSpec, start: HybridState,
                    start2: HybridState | Sequence[HybridState], cfg: CouplingConfig,
                    n_pairs: int, seed: int, threads: int = 1,
                    stream: int = 0) -> CoupledEnsemble:
    """Run n_pairs coupled pairs from ``start`` and the second starts.

    ``start2`` is one ``HybridState`` or a sequence of S of them, a
    separation sweep; each must share the regime of ``start``.  ``n_pairs``
    is the total and must be a multiple of S.  The result holds S blocks of
    m = n_pairs / S pairs: block j, the pairs [j m, (j+1) m), couples
    ``start`` with ``start2[j]`` (``blocks(S)`` cuts them apart).  The pairs
    of a block are cut into chunks of CHUNK_SIZE, and chunk c draws from the
    stream derived from (seed, stream, c) whatever the block.  So a sweep
    uses common random numbers across its separations, and block j holds the
    same bytes as a one-start call with ``start2[j]`` and m pairs.

    A sweep draws once per chunk: chunk c of all S blocks steps as one
    ``_evolve_pair`` batch, which makes each step's draws and maps its marks
    once for all S blocks and evaluates everything else pair by pair.
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
                           derive_rng(seed, stream, ci), blocks=S)
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
    sides = ((np.tile(np.asarray(x, dtype=float), (n, 1)), K),
             (np.tile(np.asarray(xt, dtype=float), (n, 1)), K))
    (draws,) = _draw_block(((rng, 0, n),), spec, cfg.step, eps, lam_rate, 1,
                           reflect=lam is not None, gaussian=gaussian)
    (dX, dXt), _ = _apply_step(spec, sides, cfg.step, draws, eps, lam=lam)
    return dX, dXt
