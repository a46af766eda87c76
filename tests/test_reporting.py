import io
import math
import sys

import numpy as np
from hypothesis import example, given, settings, strategies as st

from oracles import write_csv as per_value_csv, write_json as per_value_json
from qapprox.reporting import write_csv, write_json

SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
                  sys.float_info.max, -sys.float_info.max, 0.1, 1e16, 2.0**53 + 2.0]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
# one strategy per column kind; each column of a table draws all its cells from one
CELLS = {
    "float": floats,
    "big_int": st.integers(min_value=-(2**70), max_value=2**70),
    "bool": st.booleans(),
    "str": st.text(alphabet="a1.e-%s,\"\n\u00e9", max_size=8),
    "float64": floats.map(np.float64),
    "float_or_inf": st.one_of(floats, st.just("inf")),
    "any": st.one_of(floats, st.integers(), st.booleans(), st.text(alphabet="a%,", max_size=4), floats.map(np.float64)),
}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    nrows = draw(st.integers(min_value=0, max_value=12))
    cols = [draw(st.lists(CELLS[kind], min_size=nrows, max_size=nrows)) for kind in kinds]
    names = [f"c{i}" for i in range(len(kinds))]
    return names, [tuple(row) for row in zip(*cols)]


def _rendered(writer, columns, rows, meta):
    stream = io.StringIO()
    writer(stream, columns, rows, meta=meta)
    return stream.getvalue()


@settings(max_examples=200)
@given(tables(), st.dictionaries(st.sampled_from(["n", "q", "f"]), st.integers()))
@example((["x", "value"], []), {})
def test_reports_match_the_per_value_writers(table, meta):
    columns, rows = table
    assert _rendered(write_csv, columns, rows, meta) == _rendered(per_value_csv, columns, rows, meta)
    assert _rendered(write_json, columns, rows, meta) == _rendered(per_value_json, columns, rows, meta)


def test_float_columns_of_a_grid_report():
    xs = np.linspace(0.0, 1.0, 1001)
    rows = list(zip(xs.tolist(), np.sin(1e3 * xs).tolist()))
    for writer, reference in ((write_csv, per_value_csv), (write_json, per_value_json)):
        assert _rendered(writer, ("x", "value"), rows, None) == _rendered(reference, ("x", "value"), rows, None)
