"""CSV/JSON emission with reproducible, full-precision formatting.

`write_csv` takes its rows `CHUNK_ROWS` at a time and formats each chunk a
column at a time: a column of floats with `repr` (the shortest round-trip
decimal), once per distinct bit pattern; a column of integers and bools
with `str` of the integer; any other column cell by cell.  The bytes are
those `csv.writer` writes for the same cells (comma-separated, CRLF line
ends), but nothing is quoted: a text cell that would need quotes raises.
"""

import itertools
import json
from pathlib import Path

import numpy as np

CHUNK_ROWS = 4096  # rows formatted together; bounds the memory of a long table


def _format_cell(x):
    if isinstance(x, (np.floating, float)):
        return repr(float(x))  # shortest round-trip decimal
    if isinstance(x, (np.integer, int, bool, np.bool_)):
        return str(int(x))
    return str(x)


def _format_column(cells, width):
    """`_format_cell` of each cell, computed for the column as a whole."""
    kinds = set(map(type, cells))
    if all(issubclass(k, (float, np.floating)) for k in kinds):
        values = np.array(cells, dtype=np.float64)
        # bit patterns keep -0.0 apart from 0.0, and every NaN formats as "nan"
        _, first, inverse = np.unique(values.view(np.uint64), return_index=True, return_inverse=True)
        return np.array(list(map(repr, values[first].tolist())), dtype=object)[inverse].tolist()
    if all(issubclass(k, (int, np.integer, np.bool_)) for k in kinds):
        return list(map(str, map(int, cells)))
    text = list(map(_format_cell, cells))
    # csv.writer would quote these, and a lone empty cell in a row of one
    bad = [cell for cell in text if any(mark in cell for mark in ',"\r\n') or (width == 1 and not cell)]
    if bad:
        raise ValueError(f"CSV cell {bad[0]!r} would need quoting")
    return text


def write_csv(path, header, rows):
    """Write `header` and then `rows`, an iterable of rows consumed once,
    each with one cell per header name.  The rows are formatted in chunks
    of `CHUNK_ROWS`, column by column; see the module docstring for the
    cell formats and the cells that raise ValueError."""
    header = [str(name) for name in header]
    if not header:
        raise ValueError("a CSV needs at least one column")
    _format_column(header, len(header))  # raises for a name that needs quoting
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = iter(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
            if set(map(len, chunk)) != {len(header)}:
                raise ValueError(f"every row needs {len(header)} cells, one per header name")
            columns = [_format_column(cells, len(header)) for cells in zip(*chunk)]
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")
            del chunk, columns  # before the next chunk is read: one chunk's cells live at a time


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, obj):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonify(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
