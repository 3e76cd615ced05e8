import csv

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from warped_disk._util import fmt17, write_csv


def _rowwise_csv(path, header, rows):
    """The row-wise writer ``write_csv`` replaced, kept as its reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt17(v) if isinstance(v, float) else v for v in row])


_TEXT = st.text(st.sampled_from('ab ,"\r\n-.é'), max_size=6)


def _column(kind, n_rows):
    if kind == "float":
        # nan, +-inf, +-0 and subnormals all included
        cells = st.lists(st.floats(), min_size=n_rows, max_size=n_rows)
        return st.one_of(cells, cells.map(np.array))
    if kind == "int":
        cells = st.lists(st.integers(-2**62, 2**62), min_size=n_rows, max_size=n_rows)
        return st.one_of(cells, cells.map(np.array))
    return st.lists(_TEXT, min_size=n_rows, max_size=n_rows)


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(["float", "int", "str"]), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 12))
    header = draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds)))
    return header, [draw(_column(kind, n_rows)) for kind in kinds]


@given(_tables())
@example(table=(["r", "m"], [np.array([]), []]))          # zero rows
@example(table=([""], [["", "a,b"]]))                     # csv quotes a lone empty field
def test_write_csv_matches_the_rowwise_csv_writer(tmp_path_factory, table):
    header, columns = table
    tmp = tmp_path_factory.mktemp("csv")
    write_csv(tmp / "columns.csv", header, columns)
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    _rowwise_csv(tmp / "rows.csv", header, zip(*cells))
    assert (tmp / "columns.csv").read_bytes() == (tmp / "rows.csv").read_bytes()


def test_write_csv_refuses_ragged_tables(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0]])
