"""The RNG-order contract of ``_draw_block``.

No draw depends on the state, so the step engines draw DRAW_PATH_STEPS // n
steps of an n-path batch at a time.  The property below holds ``_draw_block``
to the raw per-step calls of the documented order: for each step and each
segment, the normals, the second normals under reflection, the Poisson
counts, ``random(2 J)`` for the marks, the gaussian-policy normals, then
``random((n_unif, m))``.  The arrays must agree byte for byte, the per-step
counts read from the jumps as ``np.bincount(hit, minlength=n)``, and every
stream must be left where the raw calls leave it.  The ensembles below must
not depend on the block size either.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rsjd import (
    CouplingConfig,
    HybridState,
    IntegratorConfig,
    couple_ensemble,
    example51,
    example52,
    simulate_ensemble,
    simulate_path,
)
from rsjd import simulate
from rsjd.coupling import _gather
from rsjd.simulate import _draw_block, _draw_buffers, derive_rng

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
MODELS = {"example51": example51(), "example52": example52()}


def _draw(streams, spec, h, eps, lam_rate, steps, **kw):
    """``_draw_block`` into new buffers for the flags ``kw``."""
    buffers = _draw_buffers(streams[-1][2], spec.d, steps, jumps=eps is not None, **kw)
    return _draw_block(streams, spec, h, eps, lam_rate, steps, buffers)


def _counts(draws, n):
    """The (n,) Poisson counts of a step, read from its jumps."""
    return np.zeros(n, dtype=np.intp) if draws.hit is None else np.bincount(draws.hit, minlength=n)


def _raw_draws(streams, spec, h, eps, lam_rate, steps, reflect, gaussian, n_unif):
    """Per step, a dict of the raw draws in the documented order, the marks
    read round by round from each segment's ``random(2 J)``."""
    quantile = spec.jump_measure.large_jump_quantile
    out = []
    for _ in range(steps):
        got = {key: [] for key in ("z", "z2", "counts", "zg", "unif")}
        mark_u = []
        for rng, lo, hi in streams:
            m = hi - lo
            got["z"].append(rng.standard_normal((m, spec.d)))
            if reflect:
                got["z2"].append(rng.standard_normal((m, spec.d)))
            if eps is not None:
                c = rng.poisson(lam_rate * h, m)
                got["counts"].append(c)
                mark_u.append((lo, c, rng.random(2 * int(c.sum()))))
                if gaussian:
                    got["zg"].append(rng.standard_normal((m, spec.d)))
            if n_unif:
                got["unif"].append(rng.random((n_unif, m)))
        step = {key: (np.concatenate(v, axis=1 if key == "unif" else 0) if v else None)
                for key, v in got.items()}
        hit, marks = [], []
        rounds = max((int(c.max()) for _, c, _ in mark_u), default=0)
        pos = [0] * len(mark_u)
        for r in range(rounds):
            for g, (lo, c, u) in enumerate(mark_u):
                idx = np.flatnonzero(c > r)
                if idx.size:
                    a = pos[g]
                    hit.append(lo + idx)
                    marks.append(quantile(eps, np.array([u[a:a + idx.size],
                                                         u[a + idx.size:a + 2 * idx.size]])))
                    pos[g] = a + 2 * idx.size
        step["hit"] = np.concatenate(hit) if hit else None
        step["marks"] = np.concatenate(marks) if marks else None
        out.append(step)
    return out


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 12))
    cuts = draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=min(3, n - 1)))
    return {
        "bounds": [0] + sorted(cuts) + [n],
        "steps": draw(st.integers(1, 20)),
        "model": draw(st.sampled_from(sorted(MODELS))),
        "jumps": draw(st.booleans()),
        "h": draw(st.sampled_from([0.002, 0.05])),
        "reflect": draw(st.booleans()),
        "gaussian": draw(st.booleans()),
        "n_unif": draw(st.sampled_from([0, 2, 3])),
        "seed": draw(st.integers(0, 2**32)),
    }


class TestDrawContract:
    @PROPERTY
    @given(case=_cases())
    def test_matches_raw_calls(self, case):
        spec = MODELS[case["model"]]
        eps = spec.jump_measure.epsilon if case["jumps"] else None
        lam_rate = spec.jump_measure.large_jump_rate(eps) if case["jumps"] else None
        b = case["bounds"]

        def streams():
            return tuple((derive_rng(case["seed"], g), lo, hi)
                         for g, (lo, hi) in enumerate(zip(b, b[1:])))

        new, ref = streams(), streams()
        kw = {key: case[key] for key in ("reflect", "gaussian", "n_unif")}
        got = _draw(new, spec, case["h"], eps, lam_rate, case["steps"], **kw)
        want = _raw_draws(ref, spec, case["h"], eps, lam_rate, case["steps"], **kw)
        assert len(got) == case["steps"]
        for dr, step in zip(got, want):
            for key, a in step.items():
                if key == "counts":
                    mine = _counts(dr, b[-1]) if case["jumps"] else None
                else:
                    mine = getattr(dr, key)
                assert (mine is None) == (a is None), key
                if a is not None:
                    assert mine.shape == a.shape and mine.dtype == a.dtype, key
                    assert mine.tobytes() == a.tobytes(), key
        for (a, _, _), (r, _, _) in zip(new, ref):
            assert a.bit_generator.state == r.bit_generator.state

    def test_cases_reach_rounds_and_quiet_steps(self):
        # the property's two step sizes give, within one block, steps with
        # several jump rounds (h = 0.05) and steps without a jump (h = 0.002)
        spec = example52()
        eps = spec.jump_measure.epsilon
        streams = ((derive_rng(3, 0), 0, 5), (derive_rng(3, 1), 5, 9))
        busy, quiet = (_draw(streams, spec, h, eps, spec.jump_measure.large_jump_rate(eps), 20)
                       for h in (0.05, 0.002))
        assert max(int(_counts(d, 9).max()) for d in busy) >= 3
        assert any(d.hit is None for d in quiet) and any(d.hit is not None for d in quiet)


@st.composite
def _gathers(draw):
    """A batch of draws with jumps in several rounds, and increasing rows of
    a batch of up to four copies of it: a path's numbers go to several rows,
    one per copy, and a copy may give all of its rows, some or none."""
    n = draw(st.integers(1, 10))
    copies = draw(st.integers(1, 4))
    rows = draw(st.sets(st.integers(0, copies * n - 1), max_size=copies * n))
    return {"n": n, "rows": np.array(sorted(rows), dtype=np.intp), "model": draw(st.sampled_from(
        sorted(MODELS))), "reflect": draw(st.booleans()), "gaussian": draw(st.booleans()),
            "seed": draw(st.integers(0, 2**32))}


class TestGather:
    """The pair engine's ``coupling._gather``: each row gets its source
    path's increment draws, and no switch uniforms."""

    @PROPERTY
    @given(case=_gathers())
    def test_rows_see_their_source_paths(self, case):
        spec, n, rows = MODELS[case["model"]], case["n"], case["rows"]
        eps = spec.jump_measure.epsilon
        (src,) = _draw(((derive_rng(case["seed"], 0), 0, n),), spec, 0.2, eps,
                       spec.jump_measure.large_jump_rate(eps), 1, reflect=case["reflect"],
                       gaussian=case["gaussian"], n_unif=3)
        got = _gather(src, rows)
        at = rows % n
        for key in ("z", "z2", "zg"):
            a, b = getattr(src, key), getattr(got, key)
            assert (a is None) == (b is None), key
            if a is not None:
                assert b.tobytes() == a[at].tobytes(), key
        assert got.unif is None

        def marks_of(draws, path):     # a path's marks in the order listed
            if draws.hit is None:
                return np.empty((0,) + src.marks.shape[1:]) if src.marks is not None else []
            return draws.marks[draws.hit == path]

        for i, p in enumerate(at.tolist()):
            # the source lists its jumps round by round, so these are in round order
            assert np.asarray(marks_of(got, i)).tobytes() == np.asarray(marks_of(src, p)).tobytes()
        assert (got.hit is None) == (int(_counts(src, n)[at].sum()) == 0)

    def test_cases_reach_repeats_and_rounds(self):
        # h = 0.2 gives several jump rounds; all of copy 0 and one row of each
        # of three more copies send path 5's numbers to four rows
        spec = example52()
        eps = spec.jump_measure.epsilon
        (src,) = _draw(((derive_rng(5, 0), 0, 6),), spec, 0.2, eps,
                       spec.jump_measure.large_jump_rate(eps), 1)
        counts = _counts(src, 6)
        assert int(counts.max()) >= 3
        got = _gather(src, np.r_[0:6, 11, 17, 23])
        want = counts[[0, 1, 2, 3, 4, 5, 5, 5, 5]]
        assert want[5] > 0 and np.bincount(got.hit, minlength=9).tolist() == want.tolist()


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _runs():
    """Digests of ensembles of all three step engines; 21 steps each, so no
    block size divides the step count."""
    cfg = IntegratorConfig(step=0.05, horizon=1.05, epsilon=0.02, small_jump_policy="gaussian")
    starts = (HybridState(np.array([0.5, -0.5]), 1), HybridState(np.array([1.0, 0.2]), 3))
    out = {}
    for regime in ("switching", "killed"):
        ens = simulate_ensemble(example52(), starts, cfg, 2 * 40, 31, regime=regime)
        out[regime] = _digest(ens.x, ens.k, ens.exit_time,
                              ens.weight if ens.weight is not None else [])
    path = simulate_path(example51(), HybridState(np.array([0.3]), 2),
                         IntegratorConfig(step=0.05, horizon=1.05, epsilon=0.02), 32)
    out["path"] = _digest(path.xs, path.ks, np.array([e[0] for e in path.jump_events]))
    for kind in ("basic", "reflection"):
        ccfg = CouplingConfig(step=0.05, horizon=1.05, kind=kind, epsilon=0.02, lambda_R=0.5)
        ce = couple_ensemble(example51(), HybridState(np.array([0.2]), 1),
                             [HybridState(np.array([0.4]), 1), HybridState(np.array([-0.1]), 1)],
                             ccfg, 2 * 30, 33)
        out[kind] = _digest(ce.x, ce.xt, ce.k, ce.kt, ce.t_meet, ce.zeta, ce.exit_time)
    return out


def test_ensembles_do_not_depend_on_block_size(monkeypatch):
    # path-step budgets that give the 80-path ensembles blocks of 1, 3 and
    # 16 steps, and the 30-pair couplings 2, 8 and all 21; the default budget
    # draws every run in one block, so the smaller ones check the refilled
    # buffers against it
    digests = []
    for budget in (80, 240, 1280, simulate.DRAW_PATH_STEPS):
        monkeypatch.setattr(simulate, "DRAW_PATH_STEPS", budget)
        digests.append(_runs())
    assert all(d == digests[0] for d in digests)

