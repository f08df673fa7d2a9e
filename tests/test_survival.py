"""The survival weight of killed mode, a step observer (``simulate._Survival``).

The weight exp(-int q_k(X(s)) ds) must be the trapezoid rule over the
recorded path, bit for bit, and a caller's observer must neither move it nor
see anything other than it sees in a frozen run.
"""

import hashlib

import numpy as np
import pytest

from rsjd import HybridState, IntegratorConfig, example51, example52
from rsjd.model import RowTruncator
from rsjd.simulate import simulate_ensemble, simulate_killed_path


@pytest.mark.parametrize("model, x, r_max, seed", [
    (example51, [0.3], 1e6, 11),
    (example52, [0.5, -0.5], 1e6, 12),
    (example51, [0.1], 0.3, 13),   # censored at r_max
])
def test_weight_is_the_trapezoid_rule(model, x, r_max, seed):
    spec = model()
    cfg = IntegratorConfig(step=1.0 / 64, horizon=1.0, r_max=r_max)
    rec, weight = simulate_killed_path(spec, HybridState(np.array(x), 2), cfg, seed)
    if r_max < 1e6:
        assert rec.exited is not None
    # steps 0..last-1 add their increment: the exit step is the last one
    last = len(rec.times) - 1 if rec.exited is None else int(np.argmax(rec.times == rec.exited))
    trunc = RowTruncator(spec.rates, spec.regime_tol)
    q = [trunc.row_sums(rec.xs[i:i + 1], rec.ks[i:i + 1])[0] for i in range(last + 1)]
    h = cfg.grid()[1]
    integral = 0.0
    for i in range(last):
        integral += 0.5 * h * (q[i] + q[i + 1])
    assert weight == np.exp(-integral)


def test_caller_observer_with_killed_mode():
    spec = example52()
    starts = [HybridState(np.array([0.5, 0.0]), 1), HybridState(np.array([3.0, -2.0]), 3)]
    cfg = IntegratorConfig(step=1.0 / 32, horizon=0.5, r_max=4.0)

    def observer(block):
        seen = hashlib.sha256(block.tobytes())

        def observe(i, t, x, k, alive, draws):
            seen.update(np.array([i, t]).tobytes() + x.tobytes() + k.tobytes()
                        + alive.tobytes())
            if draws is not None:
                seen.update(draws.z.tobytes() + draws.counts.tobytes())
        observe.seen = seen
        return observe

    def run(regime, obs):
        return simulate_ensemble(spec, starts, cfg, 2 * 300, 21, regime=regime, observer=obs)

    bare = run("killed", None)
    watched = run("killed", observer)
    frozen = run("frozen", observer)
    assert bare.censored.any() and not bare.censored.all()
    for name in ("x", "k", "exit_time", "weight"):
        assert getattr(watched, name).tobytes() == getattr(bare, name).tobytes()
    assert ([o.seen.hexdigest() for o in watched.observers]
            == [o.seen.hexdigest() for o in frozen.observers])
