"""The column forms of ``_linalg`` against the numpy reductions they replace.

``row_norm`` and ``sum_last`` must equal ``np.linalg.norm`` and ``np.sum``
over the last axis bit for bit, whatever the width d, the layout of the
array or its signed zeros and infinities: payload digests rest on it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rsjd._linalg import row_norm, sum_last

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
