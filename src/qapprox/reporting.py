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
    """The bytes of json.dump(doc, indent=2) for doc = {tool, config,
    columns, data}, data holding each column as a list: format_value of its
    floats, its other values as they are.  Only the head (tool, config,
    columns) and the non-float cells go through the json encoder; a float
    column is one '%' template, as its strings need no JSON escapes."""
    head = json.dumps(
        {
            "tool": f"qapprox {__version__}",
            "config": dict(sorted((meta or {}).items())),
            "columns": list(columns),
        },
        indent=2,
    )
    data = dict.fromkeys(columns, "[]")
    for name, col in zip(columns, zip(*rows)):
        if _is_float_column(col):
            items = ('      "%.17g",\n' * len(col))[:-2] % col
        else:
            items = ",\n".join(
                "      " + json.dumps(format_value(v) if isinstance(v, float) else v) for v in col
            )
        data[name] = "[\n" + items + "\n    ]"
    if data:
        body = ",\n".join(f"    {json.dumps(name)}: {items}" for name, items in data.items())
        body = "{\n" + body + "\n  }"
    else:
        body = "{}"
    stream.write(head[:-2] + ',\n  "data": ' + body + "\n}\n")


@contextmanager
def open_output(path):
    """Open an output path for writing; '-' means stdout."""
    if path == "-" or path is None:
        yield sys.stdout
    else:
        with io.open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
