"""CSV/JSON emission with reproducible, full-precision formatting.

`write_csv` takes one column per header name and formats each column
`CHUNK_ROWS` rows at a time, which bounds the memory of a long table.  A
numpy column is formatted by its dtype, once per distinct value in a chunk:
floats with `repr` (the shortest round-trip decimal) of the float64 value,
told apart by bit pattern so that -0.0 stays apart from 0.0; integers and
bools with `str` of the integer.  Any other column (a list, a tuple, a numpy
array of another dtype) keeps the per-cell rules of `_format_cell`, so one
column may mix 16 and 16.0, and `None` is written as "None".  The bytes are
those `csv.writer` writes for the same cells (comma-separated, CRLF line
ends), but nothing is quoted: a text cell that would need quotes raises.
"""

import json
import math
from pathlib import Path

import numpy as np

CHUNK_ROWS = 4096  # rows formatted together; bounds the memory of a long table


def _format_cell(x):
    if isinstance(x, (np.floating, float)):
        return repr(float(x))  # shortest round-trip decimal
    if isinstance(x, (np.integer, int, bool, np.bool_)):
        return str(int(x))
    return str(x)


def _format_distinct(values, keys, text):
    """`text` of each value, called once per distinct key."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.array(list(map(text, values[first].tolist())), dtype=object)[inverse].tolist()


def _format_floats(cells):
    # bit patterns keep -0.0 apart from 0.0, and every NaN formats as "nan"
    values = np.ascontiguousarray(cells, dtype=np.float64)
    return _format_distinct(values, values.view(np.uint64), repr)


def _format_column(cells, width):
    """`_format_cell` of each cell, computed for the column as a whole."""
    if isinstance(cells, np.ndarray) and cells.dtype.kind == "f":
        return _format_floats(cells)
    if isinstance(cells, np.ndarray) and cells.dtype.kind in "iub":
        return _format_distinct(cells, cells, lambda v: str(int(v)))
    kinds = set(map(type, cells))
    if all(issubclass(k, (float, np.floating)) for k in kinds):
        return _format_floats(cells)
    if all(issubclass(k, (int, np.integer, np.bool_)) for k in kinds):
        return list(map(str, map(int, cells)))
    text = list(map(_format_cell, cells))
    # csv.writer would quote these, and a lone empty cell in a row of one
    bad = [cell for cell in text if any(mark in cell for mark in ',"\r\n') or (width == 1 and not cell)]
    if bad:
        raise ValueError(f"CSV cell {bad[0]!r} would need quoting")
    return text


def write_csv(path, header, columns):
    """Write `header` and then `columns`, an iterable consumed once that holds
    one column (a numpy array or a sequence of cells) per header name, all of
    one length.  Each column is formatted `CHUNK_ROWS` rows at a time; see the
    module docstring for the cell formats and the cells that raise
    ValueError."""
    header = [str(name) for name in header]
    if not header:
        raise ValueError("a CSV needs at least one column")
    _format_column(header, len(header))  # raises for a name that needs quoting
    columns = [col if isinstance(col, np.ndarray) else list(col) for col in columns]
    if len(columns) != len(header):
        raise ValueError(f"got {len(columns)} columns for {len(header)} header names")
    if any(isinstance(col, np.ndarray) and col.ndim != 1 for col in columns):
        raise ValueError("a numpy column must be one-dimensional")
    lengths = set(map(len, columns))
    if len(lengths) != 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, lengths.pop(), CHUNK_ROWS):
            text = [_format_column(col[start:start + CHUNK_ROWS], len(header)) for col in columns]
            fh.write("\r\n".join(map(",".join, zip(*text))) + "\r\n")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, obj):
    """Write `obj` as sorted, indented JSON; a NaN or infinite float is
    written as null, so the file is valid JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonify(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
