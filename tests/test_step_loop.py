"""The single-side step loop (``simulate._evolve``) and its occupation observer.

``_evolve`` takes shorter paths while every path of its batch is alive,
screens the r_max guard with the largest coordinate and keeps each path's
switch threshold until the path switches.  The golden digests below were
recorded before any of these existed.  Most use a small ``r_max``, so that
paths are censored partway through the run: they hold the branches taken
after the first censoring to the numbers they gave then.  The burn-in and
the window midpoint of the invariant run fall inside ``_Occupation`` blocks,
so partial blocks are flushed at the window change and at the end.
"""

import hashlib

import numpy as np
import pytest

from rsjd import (
    HybridState,
    IntegratorConfig,
    Partition,
    RateMatrixSpec,
    estimate_invariant,
    example51,
    example52,
    simulate_ensemble,
    simulate_path,
)
from rsjd._linalg import row_norm
from rsjd.analysis import _Occupation
from rsjd.simulate import _outside

from test_simulate import diag_sigma, make_model

STARTS = (HybridState(np.array([0.0, 0.0]), 1), HybridState(np.array([2.0, -1.5]), 5))
PART = Partition(lo=(-3.0, -3.0), hi=(3.0, 3.0), bins=(6, 6), k_max=8)
# 40 steps of 0.05; with r_max = 3 about a fifth of the paths are censored,
# at steps spread over the whole run
CFG = IntegratorConfig(step=0.05, horizon=2.0, epsilon=0.2, r_max=3.0)
T_BURN = 0.27   # first observed step 6, window change at step 23


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_window_edges_inside_observer_blocks():
    h = CFG.step
    first = int(np.ceil(T_BURN / h - 1e-9))
    change = int(np.ceil(0.5 * (T_BURN + CFG.horizon) / h - 1e-9))
    last = int(round(CFG.horizon / h))
    assert (change - first) % _Occupation.BLOCK and (last + 1 - change) % _Occupation.BLOCK


def test_censored_invariant_digest():
    rep = estimate_invariant(example52(), STARTS, T_BURN, CFG.horizon, CFG, PART, 20271,
                             n_paths=300)
    assert _digest(rep.histograms, rep.window_tv) == (
        "c6bc8878a77e3931b846a07cb820bfdc9ee11bf9ef0108abe281f0a26077d8b6")


@pytest.mark.parametrize("regime, digest", [
    ("switching", "b4362e6b878498db2923b08324544cd5a54e986395cfd577052f644b2b901bf2"),
    ("frozen", "0ffdb3aadd0b40dcd9198becde842d6cf9d2b007a9aaba942806cb8d72a675e2"),
    ("killed", "6dbde163677ef4e55395e06908873a548c738f1225fce3fe4f2ab717b1f751fb"),
])
def test_censored_ensemble_digest(regime, digest):
    ens = simulate_ensemble(example52(), STARTS, CFG, 2 * 300, 7, regime=regime)
    assert 0 < ens.n_censored < 2 * 300
    assert len(np.unique(ens.exit_time[ens.censored])) > 10
    weight = ens.weight if ens.weight is not None else []
    assert _digest(ens.x, ens.k, ens.exit_time, weight) == digest


def test_thresholds_follow_the_regime():
    # q_kl = k 2^-l: the whole-row bound Qbar_k = k grows with the regime, so
    # a threshold left at the old regime's value drops switches
    def rate(x, k, l):
        k = np.asarray(k, dtype=float)
        l = np.asarray(l, dtype=float)
        return np.broadcast_to(k * 0.5 ** l, np.broadcast_shapes(np.shape(x)[:-1], k.shape,
                                                                     l.shape))

    spec = make_model(rates=RateMatrixSpec(rate=rate, tail_bound=lambda k, L: k * 0.5 ** L))
    cfg = IntegratorConfig(step=0.05, horizon=2.0)
    ens = simulate_ensemble(spec, HybridState(np.array([0.0]), 1), cfg, 400, 12)
    assert ens.k.max() >= 6
    assert _digest(ens.x, ens.k, ens.exit_time) == (
        "b2cf6cbf7edc8605a7f8e223d2b21f35d1a34e07054414d8f821eb79e4bae4b2")


def nan_beyond(limit=2.0):
    """A 1-d Brownian motion with example51's state-dependent switching whose
    drift is NaN beyond |x| = limit, so that a path leaving [-limit, limit]
    turns NaN at its next step."""
    def drift(x, k):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) > limit, np.nan, 0.0)

    return make_model(drift=drift, sigma=diag_sigma(1.0), rates=example51().rates,
                      ellipticity_floor=1.0)


@pytest.mark.parametrize("r_max", [1e6, np.inf])
@pytest.mark.parametrize("regime", ["switching", "frozen", "killed"])
def test_nan_states_are_censored(regime, r_max):
    cfg = IntegratorConfig(step=0.05, horizon=2.0, r_max=r_max)
    ens = simulate_ensemble(nan_beyond(), HybridState(np.array([0.0]), 1), cfg, 400, 20295,
                            regime=regime)
    nan = np.isnan(ens.x[:, 0])
    assert nan.any() and not nan.all()
    assert np.all(np.isfinite(ens.exit_time[nan]))
    assert np.all(np.isinf(ens.exit_time[~nan]))
    if regime == "killed":
        # the rate rows are never asked for at a NaN state
        assert np.all(np.isfinite(ens.weight))


@pytest.mark.parametrize("r_max", [1e6, np.inf])
def test_nan_path_exits_at_its_first_nan(r_max):
    cfg = IntegratorConfig(step=0.05, horizon=4.0, r_max=r_max)
    rec = simulate_path(nan_beyond(), HybridState(np.array([0.0]), 1), cfg, 20296)
    nan = np.isnan(rec.xs[:, 0])
    assert nan[-1]
    assert rec.exited == rec.times[np.argmax(nan)]


@np.errstate(over="ignore", invalid="ignore")
def _exact(x, r_max):
    return (row_norm(x) > r_max) | ~np.isfinite(x).all(axis=1)


@np.errstate(over="ignore", invalid="ignore")
def _screened(x, r_max):
    got = _outside(x, r_max)
    return np.zeros(x.shape[0], dtype=bool) if got is None else got


@pytest.mark.parametrize("d", (1, 2, 3))
class TestRMaxScreen:
    """``_outside`` screens with the largest coordinate before the exact
    norm test; whatever the screen decides, the censored set must be the
    rows with ``row_norm(x) > r_max`` or a non-finite coordinate, exactly."""

    def test_norm_below_but_screen_above(self, d):
        # sqrt(d) max|x_i| just above r_max, the norm below it (for d > 1)
        r_max = 2.5
        rng = np.random.default_rng(d)
        x = rng.uniform(-1.0, 1.0, size=(200, d)) * r_max / np.sqrt(d)
        x[:, 0] = np.nextafter(r_max / np.sqrt(d), np.inf) * np.sign(x[:, 0])
        assert np.all(np.sqrt(d) * np.abs(x).max(axis=1) > r_max)
        assert _screened(x, r_max).tobytes() == _exact(x, r_max).tobytes()

    def test_at_the_boundary(self, d):
        # rows whose norm lands on r_max and its neighbours, either side
        r_max = 3.0
        base = np.full(d, r_max / np.sqrt(d))
        rows = [base * s for s in np.nextafter(1.0, [0.0, 2.0])] + [base]
        rows += [np.nextafter(r, np.inf) for r in rows] + [np.nextafter(r, -np.inf) for r in rows]
        x = np.array(rows + [-r for r in rows])
        want = _exact(x, r_max)
        assert _screened(x, r_max).tobytes() == want.tobytes()
        big = np.array([[np.nextafter(r_max, np.inf)] + [0.0] * (d - 1)])
        assert _screened(big, r_max).all() and _exact(big, r_max).all()

    def test_inside_passes_screen(self, d):
        x = np.full((4, d), 0.5)
        assert _outside(x, 10.0) is None

    def test_infinite_r_max(self, d):
        # no norm exceeds inf, but an infinite or NaN state is still censored
        x = np.array([[1e308] * d, [np.inf] * d, [np.nan] * d])
        assert _screened(x, np.inf).tolist() == [False, True, True]
        assert _exact(x, np.inf).tolist() == [False, True, True]
        assert _outside(np.full((3, d), 1e140), np.inf) is None

    def test_nan_states(self, d):
        x = np.zeros((5, d))
        x[1, 0] = np.nan
        x[2, -1] = np.nan
        x[3, 0] = 10.0
        x[4] = -np.inf
        got = _screened(x, 2.0)
        assert got.tobytes() == _exact(x, 2.0).tobytes()
        assert got.tolist() == [False, True, True, True, True]

    def test_huge_r_max_squares_overflow(self, d):
        # x_i^2 overflows to inf, so the exact norm is inf > r_max
        x = np.array([[1e200] * d, [1.0] * d])
        assert _screened(x, 1e300).tobytes() == _exact(x, 1e300).tobytes()
        assert _exact(x, 1e300).tolist() == [True, False]
