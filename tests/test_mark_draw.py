"""One uniform block per stream and step for the marks.

Each jump measure declares an inverse-CDF map ``large_jump_quantile(eps, U)``
on a (2, n) block of uniforms.  ``_draw_block`` draws one block per stream
and step, and maps the marks of a whole block of steps in one call: it
orders the uniforms with ``_mark_uniforms`` and calls the quantile once.  The property below checks that against the per-round loop that
drew the marks before, step after step, with the samplers that the measures
declared then.  The digests were recorded before the change, so they show
that it moves no number.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsjd import (
    HybridState,
    IntegratorConfig,
    Partition,
    estimate_invariant,
    example51,
    example52,
    simulate_ensemble,
)
from rsjd.config import _power_law_measure, load_model_config
from rsjd.simulate import _mark_uniforms, derive_rng

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)
JUMP1D = Path(__file__).resolve().parents[1] / "perfbench" / "models" / "jump1d.yaml"


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# The samplers the measures declared before they declared quantile maps, kept
# verbatim as the reference for the draw order and the arithmetic.

def _sampler51(eps, n, rng):
    f = rng.random(n)
    mag = 1.0 / (1.0 / eps - f * (1.0 / eps - 1.0))
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return (sign * mag)[:, None]


def _sampler52(delta):
    def sampler(eps, n, rng):
        f = rng.random(n)
        r = (eps ** -delta - f * (eps ** -delta - 1.0)) ** (-1.0 / delta)
        theta = rng.random(n) * 2.0 * np.pi
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    return sampler


def _sampler_power_law(p):
    def sampler(eps, n, rng):
        f = rng.random(n)
        a = eps ** (1.0 - p)
        mag = (a - f * (a - 1.0)) ** (1.0 / (1.0 - p))
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        return (sign * mag)[:, None]
    return sampler


MEASURES = {
    "example51": (lambda: example51().jump_measure, _sampler51),
    "example52": (lambda: example52().jump_measure, _sampler52(1.0)),
    "example52:0.5": (lambda: example52(0.5).jump_measure, _sampler52(0.5)),
    "power-law:1.5": (lambda: _power_law_measure(1.5, 0.05), _sampler_power_law(1.5)),
    "power-law:2.5": (lambda: _power_law_measure(2.5, 0.05), _sampler_power_law(2.5)),
}


def _round_loop(sampler, eps, counts, streams):
    """The per-round draw: one sampler call per round and segment with a jump."""
    hit, marks = [], []
    for j in range(int(counts.max())):
        m = counts > j
        hit.append(np.flatnonzero(m))
        for rng, lo, hi in streams:
            c = int(np.count_nonzero(m[lo:hi]))
            if c:
                marks.append(sampler(eps, c, rng))
    return np.concatenate(hit), np.concatenate(marks)


@st.composite
def _batches(draw):
    """(steps, n) counts, one to four steps, and the segment bounds."""
    steps = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    counts = draw(st.lists(st.integers(0, 6), min_size=steps * n, max_size=steps * n))
    cuts = draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=min(3, n - 1)))
    return np.array(counts).reshape(steps, n), [0] + sorted(cuts) + [n]


def _block_loop(quantile, eps, counts, streams):
    """The mark map of ``_draw_block`` on the uniforms that it draws for the
    marks, ``random(2 J)`` per step and segment: ``_mark_uniforms``, then one
    quantile call."""
    block = np.concatenate([rng.random(2 * int(c[lo:hi].sum()))
                            for c in counts for rng, lo, hi in streams])
    hit, u = _mark_uniforms(counts, [lo for _, lo, _ in streams], block)
    return hit, quantile(eps, u)


class TestOneBlockDraw:
    @PROPERTY
    @given(batch=_batches(), name=st.sampled_from(sorted(MEASURES)),
           eps=st.sampled_from([0.01, 0.05, 0.2, 0.7]), seed=st.integers(0, 2**32))
    def test_matches_round_loop(self, batch, name, eps, seed):
        counts, bounds = batch
        assume(counts.any())
        make, sampler = MEASURES[name]

        def streams():
            return tuple((derive_rng(seed, s), lo, hi)
                         for s, (lo, hi) in enumerate(zip(bounds, bounds[1:])))

        new, ref = streams(), streams()
        hit, marks = _block_loop(make().large_jump_quantile, eps, counts, new)
        ref_hit, ref_marks = (np.concatenate(a) for a in zip(
            *(_round_loop(sampler, eps, c, ref) for c in counts if c.any())))
        assert hit.tobytes() == ref_hit.tobytes()
        assert marks.shape == ref_marks.shape
        assert marks.tobytes() == ref_marks.tobytes()
        # every stream is left where the round loop leaves it
        for (a, _, _), (b, _, _) in zip(new, ref):
            assert a.random() == b.random()

    def test_several_steps_and_segments(self):
        # three steps, the middle one without a jump, over three segments
        counts = np.array([[0, 2, 1, 0, 3, 1], [0] * 6, [4, 0, 0, 1, 0, 2]])
        meas = example52().jump_measure

        def streams():
            return tuple((derive_rng(7, s), lo, lo + 2) for s, lo in enumerate((0, 2, 4)))

        new, ref = streams(), streams()
        hit, marks = _block_loop(meas.large_jump_quantile, 0.1, counts, new)
        ref_hit, ref_marks = (np.concatenate(a) for a in zip(
            *(_round_loop(_sampler52(1.0), 0.1, c, ref) for c in counts if c.any())))
        assert hit.tolist() == [1, 2, 4, 5, 1, 4, 4, 0, 3, 5, 0, 5, 0, 0]
        assert hit.tobytes() == ref_hit.tobytes()
        assert marks.tobytes() == ref_marks.tobytes()
        for (a, _, _), (b, _, _) in zip(new, ref):
            assert a.random() == b.random()

    def test_quantile_of_one_block_equals_old_sampler(self):
        # n marks from one (2, n) block are the marks the old sampler drew
        meas = example52().jump_measure
        u = meas.large_jump_quantile(0.1, np.random.default_rng(3).random((2, 7)))
        ref = _sampler52(1.0)(0.1, 7, np.random.default_rng(3))
        assert u.tobytes() == ref.tobytes()


class TestGoldenDigests:
    """Paths the other goldens miss: several starts packed in one batch with
    several jump rounds per step, and occupation counts of paths that die
    partway through a binning block."""

    STARTS1 = (HybridState(np.array([0.8]), 1), HybridState(np.array([-1.5]), 3),
               HybridState(np.array([0.1]), 2))
    STARTS2 = (HybridState(np.array([0.0, 0.0]), 1), HybridState(np.array([1.0, -1.0]), 4))

    @pytest.mark.parametrize("model, policy, digest", [
        ("example51", "gaussian",
         "80393ec7ada7e1ff740db3c0332e1af7d20ddabe82c32663ae430610ae577233"),
        ("example52", "gaussian",
         "93375a09e7795f6ab0a7bc4de1820a3f0a3b831e73498e73c8283c5204761763"),
        # config models declare no small-jump covariance, so only "drop" runs
        ("jump1d", "drop",
         "b2cb11215edb9bf3386dd90057047a7e3a647fae8627178ef6f3d53d6c155b80"),
    ])
    def test_packed_ensemble(self, model, policy, digest):
        spec, starts = {
            "example51": (example51, self.STARTS1),
            "example52": (example52, self.STARTS2),
            "jump1d": (lambda: load_model_config(JUMP1D), self.STARTS1[:2]),
        }[model]
        spec = spec()
        # eps = 0.01 gives about 10 (1-d) or 31 (2-d) jumps per path and step
        cfg = IntegratorConfig(step=0.05, horizon=0.5, epsilon=0.01, small_jump_policy=policy)
        ens = simulate_ensemble(spec, starts, cfg, len(starts) * 120, 20280)
        assert _digest(ens.x, ens.k, ens.exit_time) == digest

    def test_invariant_with_deaths(self):
        # t_burn and mid (steps 11 and 35.5) fall inside binning blocks, and
        # paths die at steps of every residue mod 16 but one
        cfg = IntegratorConfig(step=0.05, horizon=3.0, epsilon=0.2, r_max=2.5)
        starts = (HybridState(np.array([0.0, 0.0]), 1), HybridState(np.array([1.5, -1.0]), 3))
        part = Partition(lo=(-3.0, -3.0), hi=(3.0, 3.0), bins=(6, 6), k_max=6)
        ens = simulate_ensemble(example52(), starts, cfg, 400, 20281)
        steps = np.round(ens.exit_time[ens.censored] / cfg.step).astype(int)
        assert len(set((steps % 16).tolist())) > 8
        rep = estimate_invariant(example52(), starts, 0.55, 3.0, cfg, part, 20281, n_paths=200)
        assert _digest(rep.histograms, rep.window_tv) == \
            "7fac68dbe8d36cebab23e76de2d1e617d9ff026bdb6fd968079e85b7df2c5612"
