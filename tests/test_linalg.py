"""The column forms of ``_linalg`` against the numpy reductions they replace.

``row_norm`` and ``sum_last`` must equal ``np.linalg.norm`` and ``np.sum``
over the last axis bit for bit, whatever the width d, the layout of the
array or its signed zeros and infinities: payload digests rest on it.
``sqrt_psd_batched`` must apply one clamp rule at ``CLAMP_TOL`` in its
d = 1 branch and its ``eigh`` branch.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rsjd._linalg import CLAMP_TOL, row_norm, sqrt_psd_batched, sum_last
from rsjd.errors import EllipticityError

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=True, width=64),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1e-310, -1e308]),
)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def both_match(x):
    with np.errstate(all="ignore"):   # inf - inf is part of the domain
        assert_same_bits(sum_last(x), np.sum(x, axis=-1))
        assert_same_bits(row_norm(x), np.linalg.norm(x, axis=-1))


@PROPERTY
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=11),
                  elements=VALUES))
def test_match_the_reductions(x):
    both_match(x)


@PROPERTY
@given(st.integers(1, 11), st.integers(1, 6), st.integers(1, 5), st.data())
def test_match_on_broadcast_and_strided_inputs(d, n, m, data):
    # the (n, m, d) arrays of x + c in the mark integrands, and views
    # whose last axis is not contiguous
    x = data.draw(hnp.arrays(np.float64, (n, 1, d), elements=VALUES))
    c = data.draw(hnp.arrays(np.float64, (1, m, d), elements=VALUES))
    with np.errstate(all="ignore"):
        xc = x + c
    for view in (xc, xc.transpose(1, 0, 2), xc[:, ::2], xc[..., ::-1],
                 np.asfortranarray(xc), np.broadcast_to(x, (n, m, d))):
        both_match(view)


def test_signed_zeros_sum_to_positive_zero():
    # numpy starts a sum from +0.0, so an all -0.0 row sums to +0.0
    for d in range(1, 9):
        x = np.full((2, d), -0.0)
        both_match(x)
        assert not np.signbit(sum_last(x)).any()


def test_sum_last_returns_a_new_array():
    x = np.array([[1.0], [2.0]])
    s = sum_last(x)
    s[0] = 5.0
    assert x[0, 0] == 1.0


def test_empty_last_axis():
    x = np.zeros((3, 0))
    both_match(x)


# the scalars around the clamp boundary: clamped in [-CLAMP_TOL, 0), raised
# below, and the neighbours of both ends
SCALARS = st.one_of(
    st.floats(-2.0 * CLAMP_TOL, 2.0 * CLAMP_TOL),
    st.floats(-1.0, 1.0),
    st.sampled_from([-CLAMP_TOL, np.nextafter(-CLAMP_TOL, -1.0), np.nextafter(-CLAMP_TOL, 0.0),
                     -5e-324, -0.0, 0.0]),
)


@PROPERTY
@example([-CLAMP_TOL], 1.0)
@example([np.nextafter(-CLAMP_TOL, -1.0)], 1.0)
@given(st.lists(SCALARS, min_size=1, max_size=6), st.floats(0.0, 4.0))
def test_sqrt_psd_clamp_boundary(vs, c):
    # the d = 1 branch takes the scalars themselves; the eigh branch takes
    # each one as the first block of diag(v, c), whose other eigenvalue c
    # is never clamped
    v = np.array(vs)
    scalars = v[:, None, None]
    blocks = np.zeros((v.size, 2, 2))
    blocks[:, 0, 0] = v
    blocks[:, 1, 1] = c
    if np.any(v < -CLAMP_TOL):
        for mats in (scalars, blocks):
            with pytest.raises(EllipticityError, match="not PSD"):
                sqrt_psd_batched(mats)
        return
    root1, clamped1 = sqrt_psd_batched(scalars)
    root2, clamped2 = sqrt_psd_batched(blocks)
    np.testing.assert_array_equal(clamped1, (v < 0)[:, None])
    np.testing.assert_array_equal(clamped2.any(axis=1), v < 0)
    assert clamped2.sum() == np.count_nonzero(v < 0)
    kept = np.maximum(v, 0.0)
    np.testing.assert_allclose(root1[:, 0, 0] ** 2, kept, rtol=0, atol=1e-12)
    target = blocks.copy()
    target[:, 0, 0] = kept
    np.testing.assert_allclose(root2 @ root2, target, rtol=0, atol=1e-12)
    np.testing.assert_allclose(root2[:, 0, 0], root1[:, 0, 0], rtol=0, atol=1e-12)
