import csv
import io
import json

import numpy as np
import pytest

from growlat.serialize import CHUNK_ROWS, _format_cell, write_csv, write_json

FLOATS = [0.1, 1.0 / 3.0, 2.0**0.5, 1e-300, 5e-324, -1.7976931348623157e308, 6.02214076e23]


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def columns_of(rows):
    """The same cells, one list per column."""
    return [list(column) for column in zip(*rows)]


def test_csv_floats_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    values = FLOATS + list(rng.standard_normal(50)) + list(np.float32([0.1, 3.3]))
    write_csv(tmp_path / "f.csv", ["x"], [values])
    header, *rows = read_rows(tmp_path / "f.csv")
    assert header == ["x"]
    for (cell,), v in zip(rows, values):
        assert cell == repr(float(v))
        assert float(cell) == float(v)


def test_csv_integers_and_bools_are_ints(tmp_path):
    row = [np.int64(7), True, np.bool_(True), np.bool_(False), 3]
    write_csv(tmp_path / "i.csv", ["a", "b", "c", "d", "e"], columns_of([row]))
    assert read_rows(tmp_path / "i.csv")[1] == ["7", "1", "1", "0", "3"]


def test_csv_creates_parent_directories(tmp_path):
    write_csv(tmp_path / "a" / "b.csv", ["x"], [["text"]])
    assert read_rows(tmp_path / "a" / "b.csv") == [["x"], ["text"]]


def reference_csv(header, rows):
    """What csv.writer writes for the cells formatted one at a time."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows([_format_cell(x) for x in row] for row in rows)
    return buffer.getvalue().encode("utf-8")


def test_csv_chunks_match_cell_by_cell_formatting(tmp_path):
    rng = np.random.default_rng(2)
    n = 2 * CHUNK_ROWS + 1
    floats = rng.choice(rng.standard_normal(50), n)  # repeated bit patterns
    rows = [[i, x, np.float32(x), bool(i % 3), np.int32(-i), f"t{i % 7}", x * 1e300, x * 1e-300]
            for i, x in enumerate(floats.tolist())]
    header = ["i", "x", "x32", "flag", "neg", "text", "big", "tiny"]
    write_csv(tmp_path / "c.csv", header, columns_of(rows))
    assert (tmp_path / "c.csv").read_bytes() == reference_csv(header, rows)


def test_csv_special_floats_keep_their_bits(tmp_path):
    column = [-0.0, 0.0, np.float64(-0.0), float("nan"), -np.nan, np.inf, -np.inf, np.float32(0.1), 0.1]
    write_csv(tmp_path / "s.csv", ["x"], [column])
    cells = [row[0] for row in read_rows(tmp_path / "s.csv")[1:]]
    assert cells == ["-0.0", "0.0", "-0.0", "nan", "nan", "inf", "-inf", repr(float(np.float32(0.1))), "0.1"]


def test_csv_mixed_int_and_float_column_keeps_the_int(tmp_path):
    write_csv(tmp_path / "m.csv", ["n"], [[16, 16.0, np.int64(32), 0.5]])
    assert [row[0] for row in read_rows(tmp_path / "m.csv")[1:]] == ["16", "16.0", "32", "0.5"]


def test_csv_none_beside_floats(tmp_path):
    rows = [[None, 1.5], [2.25, None], [None, None]]
    write_csv(tmp_path / "n.csv", ["a", "b"], columns_of(rows))
    assert (tmp_path / "n.csv").read_bytes() == reference_csv(["a", "b"], rows)
    assert read_rows(tmp_path / "n.csv")[1:] == [["None", "1.5"], ["2.25", "None"], ["None", "None"]]


def test_csv_columns_from_a_one_shot_generator(tmp_path):
    rows = [[float(i) / 3, i] for i in range(CHUNK_ROWS + 5)]
    write_csv(tmp_path / "g.csv", ["x", "i"], (column for column in columns_of(rows)))
    assert (tmp_path / "g.csv").read_bytes() == reference_csv(["x", "i"], rows)


def test_csv_numpy_columns_of_a_one_shot_generator(tmp_path):
    x, i = np.arange(CHUNK_ROWS + 5) / 3, np.arange(CHUNK_ROWS + 5)
    write_csv(tmp_path / "g.csv", ["x", "i"], iter((x, i)))
    assert (tmp_path / "g.csv").read_bytes() == reference_csv(["x", "i"], zip(x, i))


def test_csv_without_rows_has_the_header_only(tmp_path):
    write_csv(tmp_path / "h.csv", ["a", "b"], [[], []])
    assert (tmp_path / "h.csv").read_bytes() == b"a,b\r\n"


NUMPY_DTYPES = (np.float64, np.float32, np.bool_, np.int32, np.int64)


def test_csv_numpy_columns_match_cell_by_cell_formatting(tmp_path):
    rng = np.random.default_rng(3)
    n = 2 * CHUNK_ROWS + 1
    pool = np.concatenate([rng.standard_normal(40), [np.nan, -np.nan, -0.0, 0.0, np.inf, -np.inf]])
    x = rng.choice(pool, n)
    before, after = (set(part.view(np.uint64).tolist()) for part in (x[:CHUNK_ROWS], x[CHUNK_ROWS:]))
    assert before == after == set(pool.view(np.uint64).tolist())  # repeats across the chunk boundary
    columns = [x, (x * 1e3).astype(np.float32), np.isnan(x) | (x > 0.5),
               rng.integers(-2**31, 2**31, n).astype(np.int32), rng.integers(-2**62, 2**62, n)]
    assert [column.dtype for column in columns] == [np.dtype(t) for t in NUMPY_DTYPES]
    header = ["x", "x32", "flag", "i32", "i64"]
    write_csv(tmp_path / "c.csv", header, columns)
    rows = list(zip(*columns))  # numpy scalars, formatted one at a time
    assert (tmp_path / "c.csv").read_bytes() == reference_csv(header, rows)
    cells = [row[0] for row in read_rows(tmp_path / "c.csv")[1:]]
    assert {"nan", "-0.0", "0.0", "inf", "-inf"} <= set(cells)
    assert {row[2] for row in read_rows(tmp_path / "c.csv")[1:]} == {"0", "1"}


@pytest.mark.parametrize("dtype", NUMPY_DTYPES)
def test_csv_zero_length_numpy_columns_have_the_header_only(tmp_path, dtype):
    write_csv(tmp_path / "z.csv", ["a", "b"], [np.zeros(0, dtype), np.zeros(0, dtype)])
    assert (tmp_path / "z.csv").read_bytes() == b"a,b\r\n"


@pytest.mark.parametrize("header,rows", [
    (["a", "b"], [["x,y", 1]]),
    (["a", "b"], [['say "hi"', 1]]),
    (["a", "b"], [["two\nlines", 1]]),
    (["a"], [[""]]),
    (["a,b"], [[1]]),
])
def test_csv_cells_that_need_quoting_raise(tmp_path, header, rows):
    with pytest.raises(ValueError, match="quoting"):
        write_csv(tmp_path / "q.csv", header, columns_of(rows))


def test_csv_rows_need_one_cell_per_header_name(tmp_path):
    with pytest.raises(ValueError, match="lengths"):
        write_csv(tmp_path / "r.csv", ["a", "b"], [[1, 3], [2]])


@pytest.mark.parametrize("columns", [
    [np.arange(3.0), np.arange(2)],
    [np.arange(3.0), [1, 2]],
    [[], [0.5]],
])
def test_csv_columns_of_unequal_lengths_raise(tmp_path, columns):
    with pytest.raises(ValueError, match="lengths"):
        write_csv(tmp_path / "u.csv", ["a", "b"], columns)
    assert not (tmp_path / "u.csv").exists()


@pytest.mark.parametrize("columns", [[np.arange(3.0)], [np.arange(3.0)] * 3, []])
def test_csv_needs_one_column_per_header_name(tmp_path, columns):
    with pytest.raises(ValueError, match="columns for 2 header names"):
        write_csv(tmp_path / "w.csv", ["a", "b"], columns)


def test_csv_numpy_columns_must_be_one_dimensional(tmp_path):
    with pytest.raises(ValueError, match="one-dimensional"):
        write_csv(tmp_path / "d.csv", ["a", "b"], [np.zeros((2, 2)), np.zeros(2)])


def test_json_numpy_values_and_layout(tmp_path):
    payload = {
        "b": np.arange(3),
        "a": np.float64(0.1),
        "c": {"z": np.int32(4), "y": np.bool_(True), 2: (np.float32(0.5), [np.eye(2)])},
    }
    path = tmp_path / "out" / "s.json"
    write_json(path, payload)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("}\n")
    back = json.loads(text)
    assert back == {"a": 0.1, "b": [0, 1, 2], "c": {"2": [0.5, [[[1.0, 0.0], [0.0, 1.0]]]], "y": True, "z": 4}}
    assert list(back) == sorted(back) and list(back["c"]) == sorted(back["c"])
    assert type(back["c"]["z"]) is int


def test_json_floats_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    values = FLOATS + list(rng.standard_normal(50))
    write_json(tmp_path / "f.json", {"values": np.array(values)})
    back = json.loads((tmp_path / "f.json").read_text(encoding="utf-8"))["values"]
    assert [v.hex() for v in back] == [float(v).hex() for v in values]
