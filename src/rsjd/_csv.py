"""The CSV writer of the record types."""

from __future__ import annotations

import numpy as np

CHUNK_ROWS = 256   # rows formatted at a time, so the strings held stay bounded


def write_csv(path, header, *cols) -> None:
    """Write the field names ``header``, then one line per index of ``cols``.

    Each column is an (n,) array, one field per line, or an (n, j) array, j
    fields.  A column of integer dtype writes integers; any other writes
    floats as ``repr`` does, the shortest string that reads back to the same
    double.  Rows are written ``CHUNK_ROWS`` at a time: each field becomes
    strings through one ``map(repr, ...)`` over its values, and each row is
    one join.
    """
    arrays = [c if np.issubdtype(c.dtype, np.integer) else c.astype(float)
              for c in map(np.asarray, cols)]
    n = min((len(a) for a in arrays), default=0)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, CHUNK_ROWS):
            fields = []
            for a in arrays:
                chunk = a[lo:lo + CHUNK_ROWS]
                values = [chunk.tolist()] if chunk.ndim == 1 else chunk.T.tolist()
                fields.extend(map(repr, v) for v in values)
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")
