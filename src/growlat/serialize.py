"""CSV/JSON emission with reproducible, full-precision formatting."""

import csv
import json
from pathlib import Path

import numpy as np


def _format_cell(x):
    if isinstance(x, (np.floating, float)):
        return repr(float(x))  # shortest round-trip decimal
    if isinstance(x, (np.integer, int, bool, np.bool_)):
        return str(int(x))
    return str(x)


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(x) for x in row])


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
