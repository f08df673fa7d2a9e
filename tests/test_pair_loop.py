"""The coupled step loop (``coupling._evolve_pair``).

Under reflection a coalesced pair has X = X~ and K = K~, so ``_evolve_pair``
evaluates its second side only on the pairs that have not coalesced and hands
the others the first side's increment.  The tests below hold every coalesced
pair to x == xt and k == kt bit for bit, and pin every output of the loop,
the eigenvalue-clamp count included, to digests recorded before the skip
existed.  The clamping model's diffusion is a rotation, so a - I vanishes up
to round-off and about half of its eigenvalues are clamped: a skipped
second-side root must still count its clamps.  A pair is censored at the
step where either side stops being finite, whatever r_max.
"""

import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest

from rsjd import (
    CouplingConfig,
    HybridState,
    couple,
    couple_ensemble,
    example51,
    example52,
)
from rsjd.coupling import CoupledEnsemble, _evolve_pair
from rsjd.simulate import CHUNK_SIZE, derive_rng

from test_simulate import jump_config
from test_step_loop import nan_beyond


N = CHUNK_SIZE + 13
STARTS = {"example51": np.array([0.0]), "example52": np.array([0.5, -0.25])}
MODELS = {"example51": example51, "example52": example52}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _rotating():
    """example52 with sigma(x) the rotation by x_1: a = sigma sigma^T is the
    identity up to round-off, with the declared floor 1."""
    def sigma(x, k):
        th = np.asarray(x, dtype=float)[..., 0]
        c, s = np.cos(th), np.sin(th)
        return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)

    return replace(example52(), sigma=sigma, ellipticity_floor=1.0, name="rotating")


def _events_after(t0):
    """The events of a record after time t0, as plain lists."""
    def after(events):
        return [(t, np.ravel(a).tolist(), np.ravel(b).tolist()) for t, a, b in events if t > t0]
    return after


def _event_arrays(rec):
    return (np.array(rec.switch_events, dtype=float).reshape(-1, 3),
            *(np.concatenate(([t], np.ravel(u), np.ravel(c))) for t, u, c in rec.jump_events))


def _seconds(x, separations):
    return [HybridState(x + s * np.eye(x.size)[0], 1) for s in separations]


@pytest.mark.parametrize("name", ["example51", "example52"])
def test_coalesced_pairs_stay_identical(name):
    # a small guard radius censors some pairs, coalesced ones among them
    x = STARTS[name]
    cfg = CouplingConfig(step=1.0 / 16, horizon=1.0, kind="reflection", r_max=2.5)
    ens = couple_ensemble(MODELS[name](), HybridState(x, 1), _seconds(x, (0.4, 0.05)), cfg,
                          2 * N, 20291)
    c = ens.coalesced
    assert c.any() and not c.all()
    assert (c & np.isfinite(ens.exit_time)).any()
    assert ens.x[c].tobytes() == ens.xt[c].tobytes()
    assert ens.k[c].tobytes() == ens.kt[c].tobytes()
    assert np.all(np.isfinite(ens.t_meet[c]))


class TestClampingModel:
    X = np.array([0.5, -0.25])
    CFG = CouplingConfig(step=1.0 / 16, horizon=1.0, kind="reflection", r_max=2.5,
                         ball_radius=2.0, delta0=0.6)

    def test_pair_batch(self):
        # a two-block batch as a sweep chunk steps it, every output pinned
        m = 300
        x0 = np.tile(self.X, (2 * m, 1))
        xt0 = np.repeat([s.x for s in _seconds(self.X, (0.3, 0.02))], m, axis=0)
        k0 = np.ones(2 * m, dtype=np.int64)
        out = _evolve_pair(_rotating(), x0, xt0, k0, k0, self.CFG, derive_rng(20292, 0, 0),
                           blocks=2)
        assert out["n_clamped"] > 0
        assert out["coalesced"].any() and not out["coalesced"].all()
        names = [f.name for f in fields(CoupledEnsemble)]
        assert _digest(*(out[f] for f in names), np.int64(out["n_clamped"])) == (
            "bc9a1297eaca8ae3de0d420cd435b67c4a31576afa4068f49e30222b0da63ad2")

    def test_ensemble_fields(self):
        ens = couple_ensemble(_rotating(), HybridState(self.X, 1),
                              _seconds(self.X, (0.3, 0.02)), self.CFG, 2 * N, 20293)
        assert ens.coalesced.any() and np.any(ens.k != ens.kt)
        assert _digest(*(getattr(ens, f.name) for f in fields(CoupledEnsemble))) == (
            "c5eacd9de2067e232a4989b05763ccc6d42bc39bc1c60b90b7debc160a631e56")

    def test_record(self):
        # the pair coalesces early and keeps stepping as one path
        cfg = replace(self.CFG, horizon=4.0, r_max=1e6, ball_radius=1e6)
        rec = couple(_rotating(), HybridState(self.X, 1), _seconds(self.X, (0.01,))[0], cfg,
                     20302)
        assert rec.coalesced and rec.marks["T"] < 1.0
        after = _events_after(rec.marks["T"])
        assert after(rec.first.jump_events) and after(rec.first.switch_events)
        assert after(rec.second.jump_events) == after(rec.first.jump_events)
        assert after(rec.second.switch_events) == after(rec.first.switch_events)
        assert rec.n_eig_clamped == 52
        assert _digest(rec.first.xs, rec.first.ks, rec.second.xs, rec.second.ks, rec.delta,
                       *_event_arrays(rec.first), *_event_arrays(rec.second),
                       np.array(list(rec.marks.values()))) == "6aec9fb67a79e812ed0d52f137b63b1b389b32b3c3f0e2fc528850f59f553e06"


@pytest.mark.parametrize("r_max", [1e6, np.inf])
@pytest.mark.parametrize("kind", ["basic", "reflection"])
def test_nan_states_are_censored(kind, r_max):
    # a pair is censored at the step where either side turns NaN
    cfg = CouplingConfig(step=0.05, horizon=2.0, kind=kind, r_max=r_max)
    ens = couple_ensemble(nan_beyond(), HybridState(np.array([0.0]), 1),
                          HybridState(np.array([0.5]), 1), cfg, 400, 20297)
    nan = np.isnan(ens.x[:, 0]) | np.isnan(ens.xt[:, 0])
    assert nan.any() and not nan.all()
    assert np.all(np.isfinite(ens.exit_time[nan]))
    assert np.all(np.isinf(ens.exit_time[~nan]))


def test_config_model_pair_steps_as_one(tmp_path):
    # no closed-form compensator: once the one pair has coalesced, the second
    # side makes no coefficient call, so the mark quadrature never sees an
    # empty batch
    spec = replace(jump_config(tmp_path / "jump.yaml"), ellipticity_floor=1.0)
    cfg = CouplingConfig(step=1.0 / 16, horizon=1.0, kind="reflection")
    rec = couple(spec, HybridState(np.array([0.5]), 1), HybridState(np.array([0.5001]), 1), cfg,
                 20298)
    assert rec.coalesced and rec.marks["T"] < 0.5
    after = _events_after(rec.marks["T"])
    assert after(rec.first.jump_events)
    assert after(rec.second.jump_events) == after(rec.first.jump_events)
    assert _digest(rec.first.xs, rec.first.ks, rec.second.xs, rec.second.ks,
                   *_event_arrays(rec.first), *_event_arrays(rec.second),
                   np.array(list(rec.marks.values())), np.int64(rec.n_eig_clamped)) == (
        "d9fffb9f91cd9d2166a327bac89cf4f7dac5b734d350b6b5c316e866b288b9c0")
