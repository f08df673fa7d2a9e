"""The CSV writer of the record types."""

from __future__ import annotations

import numpy as np


def _fields(row) -> str:
    return ",".join(map(repr, row))


def write_csv(path, header, *cols) -> None:
    """Write the field names ``header``, then one line per index of ``cols``.

    Each column is an (n,) array, one field per line, or an (n, j) array, j
    fields.  A column of integer dtype writes integers; any other writes
    floats as ``repr`` does, the shortest string that reads back to the same
    double.
    """
    arrays = [c if np.issubdtype(c.dtype, np.integer) else c.astype(float)
              for c in map(np.asarray, cols)]
    fmts = [repr if a.ndim == 1 else _fields for a in arrays]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*(a.tolist() for a in arrays)):
            fh.write(",".join([f(v) for f, v in zip(fmts, row)]) + "\n")
