"""Small shared linear-algebra helpers.

``row_norm`` and ``sum_last`` are column forms of ``np.linalg.norm`` and
``np.sum`` over the last axis.  numpy reduces a short last axis with a
length-d inner loop per row, which costs several times the arithmetic on
(rows, 2) arrays; the column forms make one whole-array operation per column
instead.  They give the same bits as the reductions when the axis has fewer
than eight entries: numpy then adds the terms one after another from the
first, which is the order the column forms use; a sum starts from +0.0, so
that -0.0 + -0.0 sums to +0.0 as it does in numpy.  From eight entries on numpy
sums pairwise in a different grouping, so there both helpers call the
reduction itself.
"""

from __future__ import annotations

import numpy as np

from .errors import EllipticityError

CLAMP_TOL = 1e-6


def sqrt_psd_batched(mats: np.ndarray):
    """Symmetric PSD square roots of a (..., d, d) stack via eigendecomposition.

    Returns ``(roots, clamped)``.  Eigenvalues in [-CLAMP_TOL, 0) are clamped
    to zero, and the (..., d) boolean mask ``clamped`` marks them, matrix by
    matrix; anything below -CLAMP_TOL raises, since it means the PSD
    assumption is genuinely violated at some point rather than lost to
    roundoff.
    """
    mats = np.asarray(mats, dtype=float)
    d = mats.shape[-1]
    if d == 1:
        v = mats[..., 0, 0]
        if np.any(v < -CLAMP_TOL):
            raise EllipticityError(
                f"matrix not PSD: min diagonal {float(np.min(v)):.3e} < -{CLAMP_TOL}")
        return np.sqrt(np.maximum(v, 0.0))[..., None, None], (v < 0)[..., None]
    w, q = np.linalg.eigh(mats)
    if np.any(w < -CLAMP_TOL):
        raise EllipticityError(
            f"matrix not PSD: min eigenvalue {float(np.min(w)):.3e} < -{CLAMP_TOL}")
    clamped = w < 0
    w = np.maximum(w, 0.0)
    root = np.einsum("...ij,...j,...kj->...ik", q, np.sqrt(w), q)
    return root, clamped


def row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis: ``np.linalg.norm(x, axis=-1)`` bit
    for bit, as sqrt(x0*x0 + x1*x1 + ...) one column at a time (see the module
    docstring); at eight or more columns it is ``np.linalg.norm`` itself."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    if not 0 < d < 8:
        return np.linalg.norm(x, axis=-1)
    s = x[..., 0] * x[..., 0]
    for j in range(1, d):
        s = s + x[..., j] * x[..., j]
    return np.sqrt(s)


def sum_last(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis: ``np.sum(x, axis=-1)`` of a float array bit for
    bit, one column at a time (see the module docstring); at eight or more
    columns it is ``np.sum`` itself."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    if not 0 < d < 8:
        return np.sum(x, axis=-1)
    s = x[..., 0] + 0.0
    for j in range(1, d):
        s += x[..., j]
    return s
