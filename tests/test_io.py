import csv
import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from liouvlab import io as lio
from liouvlab.errors import ConfigError
from oracles import validate_manifest


# --- float formatting -----------------------------------------------------------


def one_row(tmp_path, row) -> list[str]:
    """The cells of a one-row table as write_csv writes them."""
    path = lio.write_csv(tmp_path / "row.csv", {f"c{i}": [cell] for i, cell in enumerate(row)})
    return path.read_bytes().decode().split("\r\n")[1].split(",")


def test_short_decimals_are_written_exactly(tmp_path):
    assert one_row(tmp_path, [0.525, -3.35, 0.0, np.float64(2.0)]) == ["0.525", "-3.35", "0", "2"]


@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_floats_round_trip_to_twelve_digits(tmp_path_factory, x):
    back = float(one_row(tmp_path_factory.mktemp("row"), [x])[0])
    assert abs(back - x) <= 1e-11 * max(1.0, abs(x))


# --- CSV ---------------------------------------------------------------------------


def test_write_csv_layout(tmp_path):
    path = tmp_path / "sub" / "table.csv"
    out = lio.write_csv(path, {"J": [0.525, 1.0 / 3.0], "label": ["ep", "x"], "count": [3, -1],
                               "flag": [True, False]})
    assert out == path
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == 3  # header and two rows, CRLF-terminated
    lines = raw.decode().split("\r\n")
    assert lines[0] == "J,label,count,flag"
    assert lines[1] == "0.525,ep,3,1"
    assert lines[2] == "0.333333333333,x,-1,0"


def test_write_csv_reads_back_with_stdlib(tmp_path):
    path = tmp_path / "t.csv"
    lio.write_csv(path, {"a": [1.5, 3.0], "b": np.array([2.5, 4.0])})
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["a", "b"], ["1.5", "2.5"], ["3", "4"]]


def test_string_int_and_bool_columns_mix_in_one_table(tmp_path):
    expected = [
        "label,n,flag,big,x",
        "e,0,1,999999999999,0.5",
        "phi,-12,0,-7,2",
        ",5,0,100000000000,1e-300",
        "",
    ]
    path = lio.write_csv(tmp_path / "lists.csv", {
        "label": ["e", "phi", ""],
        "n": [0, np.int64(-12), 5],
        "flag": [True, np.bool_(False), False],
        "big": [999_999_999_999, -7, 10**11],
        "x": [0.5, np.float64(2.0), 1e-300],
    })
    assert path.read_bytes().decode().split("\r\n") == expected
    # the same columns as int, bool and text arrays, beside a text column and without one
    arrays = {
        "label": np.array(["e", "phi", ""]),
        "n": np.array([0, -12, 5]),
        "flag": np.array([True, False, False]),
        "big": np.array([999_999_999_999, -7, 10**11]),
        "x": np.array([0.5, 2.0, 1e-300]),
    }
    path = lio.write_csv(tmp_path / "arrays.csv", arrays)
    assert path.read_bytes().decode().split("\r\n") == expected
    del arrays["label"]
    path = lio.write_csv(tmp_path / "numbers.csv", arrays)
    assert path.read_bytes().decode().split("\r\n") == [
        line.split(",", 1)[1] for line in expected[:-1]] + [""]


def test_an_empty_table_writes_its_header_only(tmp_path):
    # ep_map_lines at gamma_phi = gamma_e / 2 has no line point
    for empty in ([], np.empty(0)):
        path = lio.write_csv(tmp_path / "t.csv",
                             {name: empty for name in ("line_id", "point_idx", "J", "Delta")})
        assert path.read_bytes() == b"line_id,point_idx,J,Delta\r\n"


@pytest.mark.parametrize("text", ["a,b", 'say "ep"', "two\nlines", "cr\r"])
def test_a_cell_that_needs_quoting_raises(tmp_path, text):
    with pytest.raises(ValueError, match="comma, quote or line break"):
        lio.write_csv(tmp_path / "header.csv", {"J": [0.5], text: [1.0]})
    with pytest.raises(ValueError, match="comma, quote or line break"):
        lio.write_csv(tmp_path / "cell.csv", {"J": [0.5, 1.0], "label": ["ok", text]})


def test_float_array_rows_write_the_same_bytes_as_cell_by_cell(tmp_path):
    values = [2.0, -7.0, 123456789012345.0, 1e15, float("nan"), float("inf"),
              float("-inf"), -0.0, 0.0, 1e-300, 1e300, -1e-300, 1.0 / 3.0, 5e-324]
    table = np.array(values + values[::-1]).reshape(-1, 4)
    for rows in (table, table.reshape(-1, 1), table[:0]):
        fast = lio.write_csv(tmp_path / "fast.csv", {f"c{i}": col for i, col in enumerate(rows.T)})
        # columns of Python floats write the same bytes as the array's columns
        slow = lio.write_csv(tmp_path / "slow.csv",
                             {f"c{i}": col.tolist() for i, col in enumerate(rows.T)})
        assert fast.read_bytes() == slow.read_bytes()
    lio.write_csv(tmp_path / "fast.csv", dict(zip("abcd", table.T)))
    lines = (tmp_path / "fast.csv").read_bytes().decode().split("\r\n")
    assert lines[1] == "2,-7,1.23456789012e+14,1e+15"
    assert lines[2] == "nan,inf,-inf,-0"


def row_by_row_csv(columns) -> bytes:
    """The bytes of one % and one line per row, write_csv's format without its chunks."""
    values = [list(column) for column in columns.values()]
    line = ",".join("%s" if isinstance(column[0], str) else lio.CSV_FLOAT_FORMAT
                    for column in values) + "\r\n"
    rows = [line % tuple(column[k] for column in values) for k in range(len(values[0]))]
    return "".join([",".join(columns) + "\r\n", *rows]).encode()


@pytest.mark.parametrize("n_rows", [1, lio.CSV_CHUNK_ROWS, 2 * lio.CSV_CHUNK_ROWS + 3])
def test_chunked_rows_write_the_same_bytes_as_row_by_row(tmp_path, rng, n_rows):
    table = rng.normal(size=(n_rows, 3)) * 10.0 ** rng.integers(-300, 300, size=(n_rows, 3))
    columns = dict(zip(["J", "t", "rho_ee"], table.T))
    path = lio.write_csv(tmp_path / "array.csv", columns)
    assert path.read_bytes() == row_by_row_csv(columns)

    labels = ["e", "phi", "", "ep_line"]
    k = np.arange(n_rows)
    columns = {"label": [labels[i % 4] for i in range(n_rows)], "n": (k - 7).tolist(),
               "flag": [i % 3 == 0 for i in range(n_rows)], "m": -k, "odd": k % 2 == 1,
               "x": table[:, 0]}
    path = lio.write_csv(tmp_path / "text.csv", columns)
    assert path.read_bytes() == row_by_row_csv(columns)

    columns["label"][-1] = "a,b"  # in the last chunk
    with pytest.raises(ValueError, match="comma, quote or line break"):
        lio.write_csv(tmp_path / "bad.csv", columns)


def test_a_column_of_another_length_raises(tmp_path):
    # a short column must not shift the cells of the rows below it
    columns = {"a": [1.0, 2.0, 3.0], "b": np.array([4.0, 5.0]), "c": [6.0, 7.0, 8.0, 9.0]}
    with pytest.raises(ValueError, match="column 'b' has 2 values, column 'a' 3"):
        lio.write_csv(tmp_path / "ragged.csv", columns)
    assert not (tmp_path / "ragged.csv").exists()


# --- JSON ---------------------------------------------------------------------------


def test_json_serialization_of_numeric_types(tmp_path):
    path = tmp_path / "doc.json"
    lio.write_json(path, {
        "z": 1.0 + 2.0j,
        "arr": np.array([1.0, 2.0]),
        "grid": np.arange(4).reshape(2, 2),
        "n": np.int64(7),
        "x": np.float64(0.5),
        "ok": np.bool_(True),
        "none": None,
        "path": path,
        "nan": np.float64("nan"),
        "w": complex(float("inf"), -1.0),
    })
    doc = json.loads(path.read_text())
    assert doc["z"] == {"re": 1.0, "im": 2.0}
    assert doc["arr"] == [1.0, 2.0]
    assert doc["grid"] == [[0, 1], [2, 3]]
    assert doc["n"] == 7 and doc["x"] == 0.5 and doc["ok"] is True
    assert doc["none"] is None
    assert doc["nan"] is None and doc["w"] == {"re": None, "im": -1.0}  # JSON has no NaN or Infinity
    assert doc["path"].endswith("doc.json")
    assert path.read_text().endswith("\n")


def test_json_rejects_unknown_types(tmp_path):
    with pytest.raises(TypeError):
        lio.write_json(tmp_path / "bad.json", {"obj": object()})


def test_json_output_is_deterministic(tmp_path):
    doc = {"b": 1, "a": [2, {"d": 3, "c": 4}]}
    p1 = lio.write_json(tmp_path / "one.json", doc)
    p2 = lio.write_json(tmp_path / "two.json", doc)
    assert p1.read_bytes() == p2.read_bytes()


# --- hashing and manifests -----------------------------------------------------------


def test_sha256_file_matches_hashlib_across_chunks(tmp_path):
    data = bytes(range(256)) * 600  # > one 64 KiB chunk
    path = tmp_path / "blob.bin"
    path.write_bytes(data)
    assert lio.sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_manifest_build_and_validate(tmp_path):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.json"
    f1.write_text("J\r\n1\r\n")
    f2.write_text("{}\n")
    started = time.monotonic()
    manifest = lio.build_manifest("spectrum", "1", {"system": {"gamma_e": 4.4}},
                                  [f1, f2], started)
    validate_manifest(manifest)  # must not raise
    assert manifest["experiment"] == "spectrum"
    assert [e["name"] for e in manifest["files"]] == ["a.csv", "b.json"]
    assert all(len(e["sha256"]) == 64 for e in manifest["files"])
    assert manifest["files"][0]["bytes"] == len("J\r\n1\r\n")

    again = lio.build_manifest("spectrum", "1", {}, [f1, f2], started)
    assert [e["sha256"] for e in again["files"]] == [e["sha256"] for e in manifest["files"]]


def test_manifest_validation_rejects_malformed_documents(tmp_path):
    f1 = tmp_path / "a.csv"
    f1.write_text("x\r\n")
    good = lio.build_manifest("spectrum", "1", {}, [f1], time.monotonic())

    with pytest.raises(ConfigError):
        validate_manifest([])
    for key in ("experiment", "config", "files", "duration_s"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(ConfigError):
            validate_manifest(broken)
    broken = dict(good, files="nope")
    with pytest.raises(ConfigError):
        validate_manifest(broken)
    broken = dict(good, files=[{"name": "a.csv", "sha256": "00"}])
    with pytest.raises(ConfigError):
        validate_manifest(broken)
    broken = dict(good, files=[dict(good["files"][0], bytes="12")])
    with pytest.raises(ConfigError):
        validate_manifest(broken)
