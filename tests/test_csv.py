"""``write_csv`` against the field-by-field writer it replaced.

The reference below is that writer, kept verbatim: one ``repr`` call and one
join per field of every row.  The chunked writer must produce the same bytes
on any values a column can hold.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rsjd import _csv
from rsjd._csv import CHUNK_ROWS, write_csv


def _fields(row) -> str:
    return ",".join(map(repr, row))


def reference_write_csv(path, header, *cols) -> None:
    arrays = [c if np.issubdtype(c.dtype, np.integer) else c.astype(float)
              for c in map(np.asarray, cols)]
    fmts = [repr if a.ndim == 1 else _fields for a in arrays]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*(a.tolist() for a in arrays)):
            fh.write(",".join([f(v) for f, v in zip(fmts, row)]) + "\n")


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
           1e-310, np.finfo(float).max, 0.1, 1.0 / 3.0]
ROWS = st.one_of(st.integers(0, 5), st.sampled_from(
    [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3]))


def _column(n):
    floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                       st.sampled_from(SPECIAL))
    return st.one_of(
        hnp.arrays(np.float64, (n,), elements=floats),
        hnp.arrays(np.float64, st.tuples(st.just(n), st.integers(1, 3)), elements=floats),
        hnp.arrays(np.float32, (n,), elements=st.floats(width=32)),
        hnp.arrays(st.sampled_from([np.int64, np.int32, np.uint8]), (n,)),
        hnp.arrays(np.int64, st.tuples(st.just(n), st.integers(1, 2))),
        hnp.arrays(np.bool_, (n,)),
    )


@st.composite
def tables(draw):
    n = draw(ROWS)
    return [draw(_column(n)) for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cols=tables())
def test_same_bytes_as_the_field_by_field_writer(tmp_path_factory, cols):
    d = tmp_path_factory.mktemp("csv")
    header = [f"c{i}" for i in range(len(cols))]
    write_csv(d / "new.csv", header, *cols)
    reference_write_csv(d / "old.csv", header, *cols)
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


def test_special_values_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(_csv, "CHUNK_ROWS", 4)
    x = np.array(SPECIAL * 3)
    k = np.arange(x.size)
    xy = np.stack([x, -x], axis=1)
    write_csv(tmp_path / "new.csv", ["x", "k", "a", "b"], x, k, xy)
    reference_write_csv(tmp_path / "old.csv", ["x", "k", "a", "b"], x, k, xy)
    new = (tmp_path / "new.csv").read_text()
    assert new == (tmp_path / "old.csv").read_text()
    assert new.splitlines()[1:6] == ["nan,0,nan,nan", "inf,1,inf,-inf", "-inf,2,-inf,inf",
                                     "-0.0,3,-0.0,0.0", "0.0,4,0.0,-0.0"]
