"""CSV/JSON report writers with deterministic, golden-file-stable output.

Floats are rendered with 17 significant digits, '.' decimal separator and
'\\n' line endings; metadata goes into '#'-prefixed comment lines so the
files stay trivially ingestible.

A report body is rendered in one formatting pass: one '%' template for all
rows, '%.17g' in the cells of a column of Python floats (the conversion
format(v, '.17g') makes, so the bytes are those of format_value) and '%s'
of format_value in the cells of any other column.
"""

import io
import json
import sys
from contextlib import contextmanager
from itertools import chain

from . import __version__


def format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def meta_lines(meta):
    lines = [f"# qapprox {__version__}"]
    if meta:
        for key in sorted(meta):
            lines.append(f"# config: {key}={meta[key]}")
    return lines


def _is_float_column(values):
    return set(map(type, values)) == {float}


def _body(cells):
    """One '\\n'-terminated line per row of the columns in cells, a list of
    (format, values) pairs; the values are joined with ','."""
    if not cells:
        return ""
    template = ",".join(fmt for fmt, _ in cells) + "\n"
    values = tuple(chain.from_iterable(zip(*(col for _, col in cells))))
    return template * len(cells[0][1]) % values


def write_csv(stream, columns, rows, meta=None):
    for line in meta_lines(meta):
        stream.write(line + "\n")
    stream.write(",".join(columns) + "\n")
    cells = [
        ("%.17g", col) if _is_float_column(col) else ("%s", tuple(map(format_value, col)))
        for col in zip(*rows)
    ]
    stream.write(_body(cells))


def write_json(stream, columns, rows, meta=None):
    data = {col: [] for col in columns}
    for name, col in zip(columns, zip(*rows)):
        if _is_float_column(col):
            data[name] = _body([("%.17g", col)]).splitlines()
        else:
            data[name] = [format_value(v) if isinstance(v, float) else v for v in col]
    doc = {
        "tool": f"qapprox {__version__}",
        "config": dict(sorted((meta or {}).items())),
        "columns": list(columns),
        "data": data,
    }
    stream.write(json.dumps(doc, indent=2) + "\n")  # json.dump writes it in ~1000 chunks


@contextmanager
def open_output(path):
    """Open an output path for writing; '-' means stdout."""
    if path == "-" or path is None:
        yield sys.stdout
    else:
        with io.open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
