import csv
import json

import numpy as np

from growlat.serialize import write_csv, write_json

FLOATS = [0.1, 1.0 / 3.0, 2.0**0.5, 1e-300, 5e-324, -1.7976931348623157e308, 6.02214076e23]


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_csv_floats_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    values = FLOATS + list(rng.standard_normal(50)) + list(np.float32([0.1, 3.3]))
    write_csv(tmp_path / "f.csv", ["x"], [[v] for v in values])
    header, *rows = read_rows(tmp_path / "f.csv")
    assert header == ["x"]
    for (cell,), v in zip(rows, values):
        assert cell == repr(float(v))
        assert float(cell) == float(v)


def test_csv_integers_and_bools_are_ints(tmp_path):
    write_csv(tmp_path / "i.csv", ["a", "b", "c", "d", "e"], [[np.int64(7), True, np.bool_(True), np.bool_(False), 3]])
    assert read_rows(tmp_path / "i.csv")[1] == ["7", "1", "1", "0", "3"]


def test_csv_creates_parent_directories(tmp_path):
    write_csv(tmp_path / "a" / "b.csv", ["x"], [["text"]])
    assert read_rows(tmp_path / "a" / "b.csv") == [["x"], ["text"]]


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
