"""What a path record means, checked against independent recomputations.

``simulate_path``, ``simulate_killed_path`` and ``couple`` build their
records from a step observer (``simulate._PathLog``) that keeps path 0's
states and the marks of its jumps.  The tests below rebuild each event log
from the run's own draws and states: the jump marks from ``_draw_block`` on
the path's stream, their displacements from ``jump_coeff`` at the state
where the step started, the dropped small-jump variance from one
``small_jump_cov`` call per step, and the switch events from the regime
sequence.  They also pin the observer protocol of ``simulate_ensemble``.
"""

from dataclasses import replace

import numpy as np
import pytest

from rsjd import (
    CouplingConfig,
    HybridState,
    IntegratorConfig,
    couple,
    example51,
    example52,
    simulate_ensemble,
    simulate_killed_path,
    simulate_path,
)
from rsjd.simulate import _draw_block, _step_setup, derive_rng

from test_simulate import const_rate_matrix

CFG = IntegratorConfig(step=1.0 / 32, horizon=2.0)
CASES = [(example51, np.array([0.8]), 20311), (example52, np.array([1.5, -0.5]), 20312)]


def _path(regime, model, x, seed):
    start = HybridState(x, 1)
    if regime == "killed":
        return simulate_killed_path(model(), start, CFG, seed)[0]
    return simulate_path(model(), start, CFG, seed)


@pytest.mark.parametrize("regime", ["switching", "killed"])
@pytest.mark.parametrize("model, x, seed", CASES)
def test_jump_log_is_recomputed(regime, model, x, seed):
    spec = model()
    rec = _path(regime, model, x, seed)
    nsteps, h, eps, lam_rate, gaussian, _ = _step_setup(spec, CFG)
    draws = _draw_block(((derive_rng(seed, 0, 0), 0, 1),), spec, h, eps, lam_rate, nsteps,
                        gaussian=gaussian, n_unif=2 if regime == "switching" else 0)
    expect = []
    for i, dr in enumerate(draws):
        for u in (() if dr.hit is None else dr.marks):
            c = spec.jump_coeff(rec.xs[i:i + 1], rec.ks[i:i + 1], u[None])[0]
            expect.append(((i + 1) * h, u.tobytes(), np.asarray(c, dtype=float).tobytes()))
    assert len(expect) > 5
    assert [(t, u.tobytes(), c.tobytes()) for t, u, c in rec.jump_events] == expect
    assert all(type(t) is float for t, _, _ in rec.jump_events)


@pytest.mark.parametrize("regime", ["switching", "killed"])
@pytest.mark.parametrize("model, x, seed", CASES)
def test_dropped_variance_sums_the_steps(regime, model, x, seed):
    spec = model()
    rec = _path(regime, model, x, seed)
    nsteps, h, eps, *_ = _step_setup(spec, CFG)
    total = 0.0
    for i in range(nsteps):
        cov = spec.small_jump_cov(rec.xs[i:i + 1], rec.ks[i:i + 1], eps)
        total += h * float(np.trace(np.asarray(cov, dtype=float)[0]))
    assert total > 0.0
    assert rec.small_jump_var_dropped == total


def _regime_changes(rec):
    return [(float(rec.times[i]), int(rec.ks[i - 1]), int(rec.ks[i]))
            for i in range(1, rec.ks.size) if rec.ks[i] != rec.ks[i - 1]]


@pytest.mark.parametrize("model, x, seed", [
    # example51 rarely switches; constant rates q_kl = 20 * 3^-l make it often
    (lambda: replace(example51(), rates=const_rate_matrix(scale=20.0)), np.array([0.8]), 20311),
    CASES[1],
])
def test_switch_events_are_regime_changes(model, x, seed):
    rec = simulate_path(model(), HybridState(x, 1), CFG, seed)
    assert rec.switch_events and rec.switch_events == _regime_changes(rec)
    assert all(type(t) is float for t, _, _ in rec.switch_events)
    pair = couple(model(), HybridState(x, 1), HybridState(x + 0.5, 1),
                  CouplingConfig(step=CFG.step, horizon=CFG.horizon), seed)
    for side in (pair.first, pair.second):
        assert side.switch_events and side.switch_events == _regime_changes(side)
        assert side.small_jump_var_dropped is None


def test_ensemble_observer_sees_the_step_draws():
    spec, n, seed = example52(), 8, 20313
    seen = []

    def observer(block):
        def observe(i, t, x, k, alive, draws):
            seen.append((i, None if draws is None else (draws.z.copy(), draws.unif.copy())))
        return observe

    nsteps, h, eps, lam_rate, gaussian, _ = _step_setup(spec, CFG)
    simulate_ensemble(spec, HybridState(np.array([1.5, -0.5]), 1), CFG, n, seed,
                      observer=observer, stream=3)
    assert [i for i, _ in seen] == list(range(nsteps + 1))
    assert seen[0][1] is None
    draws = _draw_block(((derive_rng(seed, 3, 0), 0, n),), spec, h, eps, lam_rate, nsteps,
                        gaussian=gaussian, n_unif=2)
    for (_, (z, unif)), dr in zip(seen[1:], draws):
        assert z.tobytes() == dr.z.tobytes() and unif.tobytes() == dr.unif.tobytes()
