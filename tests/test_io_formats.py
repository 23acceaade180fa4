"""Output formats: round-trip floats, canonical JSON, PGM structure."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspmap import io_formats
from cuspmap.io_formats import csv_text, fmt17, json_text, pgm_bytes, write


@pytest.mark.parametrize(
    "value",
    [0.1, 1.0 / 3.0, 1e-300, 5e-324, 1.7976931348623157e308, -0.0, 2.0**-52,
     math.pi, 123456789.123456789],
)
def test_fmt17_round_trips(value):
    assert float(fmt17(value)) == value


def test_fmt17_specials():
    assert fmt17(math.inf) == "inf"
    assert fmt17(-math.inf) == "-inf"
    assert fmt17(math.nan) == "nan"


def test_csv_shape_and_determinism():
    text = csv_text(["a", "b"], [(1, 0.1), (2, 0.2)])
    lines = text.split("\n")
    assert lines[0] == "a,b"
    assert text == csv_text(["a", "b"], [(1, 0.1), (2, 0.2)])
    assert text.endswith("\n") and "\r" not in text
    assert float(lines[1].split(",")[1]) == 0.1


def test_json_is_canonical_and_parseable():
    obj = {"b": [1.5, 2, None, True], "a": {"nested": 0.1}, "s": 'quote"backslash\\'}
    text = json_text(obj)
    assert text == json_text(obj)
    parsed = json.loads(text)
    assert parsed["a"]["nested"] == 0.1
    assert parsed["s"] == 'quote"backslash\\'
    assert text.index('"a"') < text.index('"b"')  # sorted keys


def test_json_nonfinite_encoded_as_strings():
    parsed = json.loads(json_text({"v": math.inf, "w": -math.inf}))
    assert parsed["v"] == "inf" and parsed["w"] == "-inf"


def test_pgm_layout():
    data = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    blob = pgm_bytes(data)
    assert blob.startswith(b"P5\n4 3\n255\n")
    pixels = blob.split(b"255\n", 1)[1]
    assert len(pixels) == 12
    assert pixels[0] == 0 and pixels[-1] == 255
    assert pgm_bytes(data) == blob


def test_write_text_and_bytes_to_files_and_text_to_stdout(tmp_path, capsys):
    text = csv_text(["x", "y"], [(0.1, "a"), (2.0, "b")])
    write(tmp_path / "t.csv", text)
    # as a text-mode file opened with newline="\n" writes it: LF, no BOM
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(text)
    assert (tmp_path / "t.csv").read_bytes() == reference.read_bytes()
    assert reference.read_bytes() == b"x,y\n0.10000000000000001,a\n2,b\n"
    blob = pgm_bytes(np.eye(3))
    write(tmp_path / "h.pgm", blob)
    assert (tmp_path / "h.pgm").read_bytes() == blob
    write("-", text)
    assert capsys.readouterr().out == text


def reference_csv(header, rows):
    """Per-cell reference: format(v, ".17g") for floats, and the documented
    spelling of every other cell type."""
    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return format(float(v), ".17g")
        return str(v)
    return "".join(",".join(cell(v) for v in line) + "\n" for line in [header] + list(rows))


SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072e-308,
                  1.7976931348623157e308, -1.7976931348623157e308]
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                   st.sampled_from(SPECIAL_FLOATS))
cells = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(-10**30, 10**30),
    st.booleans(),
    st.text(alphabet="abcxyz%-_.", max_size=6),
)


@SETTINGS
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(cells, min_size=n, max_size=n), max_size=8)))
def test_csv_templates_write_the_per_cell_bytes(rows):
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 0)]
    assert csv_text(header, rows) == reference_csv(header, rows)
    assert csv_text(header, [tuple(r) for r in rows]) == reference_csv(header, rows)


@SETTINGS
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(floats, min_size=n, max_size=n), min_size=1, max_size=8)))
def test_csv_of_a_float_array_equals_its_row_lists(rows):
    array = np.array(rows, dtype=float)
    header = [f"c{i}" for i in range(array.shape[1])]
    assert csv_text(header, array) == csv_text(header, array.tolist())
    assert csv_text(header, array) == reference_csv(header, array.tolist())


def test_csv_of_other_arrays_equals_their_row_lists():
    for array in (np.arange(6).reshape(3, 2), np.array([[True, False]]), np.zeros((0, 3)),
                  np.array([[1e20, 2.0]])[:, :0]):
        header = ["a", "b"]
        assert csv_text(header, array) == csv_text(header, array.tolist())


# Few distinct doubles, so that cells repeat within and across columns. 0.0
# and -0.0 print differently, every NaN (quiet, signed, with a payload) as nan.
NAN_PAYLOAD = float(np.array(0x7FF8000000000001, dtype=np.uint64).view(np.float64))
POOL = [0.0, -0.0, math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf,
        5e-324, -2.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
        -1.7976931348623157e308, 0.1, -1.0 / 3.0, 1e-300, 123.5]
pooled = st.sampled_from(POOL)
# a column either draws from the pool (repeats) or from all doubles (mostly distinct)
columns = st.one_of(st.just(pooled), st.just(floats))


@SETTINGS
@given(st.integers(1, 40).flatmap(lambda n: st.lists(columns, min_size=1, max_size=5).flatmap(
    lambda cols: st.lists(st.tuples(*cols), min_size=n, max_size=n))))
def test_csv_of_a_float_array_with_repeats_writes_the_per_cell_bytes(rows):
    array = np.array(rows, dtype=float)
    header = [f"c{i}" for i in range(array.shape[1])]
    expected = reference_csv(header, rows)
    assert csv_text(header, array) == expected
    assert csv_text(header, array.tolist()) == expected


def test_csv_of_a_float_array_across_row_blocks():
    rng = np.random.default_rng(5)
    n = 3 * io_formats._BLOCK_ROWS + 17
    array = np.column_stack([
        rng.choice(np.array(POOL), n),        # pool values: repeats
        rng.standard_normal(n),                # no repeats
        np.repeat(rng.standard_normal(7), n // 7 + 1)[:n],
        np.where(rng.random(n) < 0.5, 0.0, -0.0),
    ])
    header = ["pool", "normal", "runs", "zeros"]
    assert csv_text(header, array) == reference_csv(header, array.tolist())


@SETTINGS
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from(["inner", "outer", "a%b"]), min_size=n, max_size=n),
    st.lists(floats, min_size=n, max_size=n),
    st.lists(floats.map(np.float64), min_size=n, max_size=n),
    st.lists(pooled, min_size=n, max_size=n))))
def test_csv_of_row_tables_with_one_cell_type_per_column(columns):
    # a str column beside float and np.float64 columns, as criterion 1 writes,
    # and a pooled float column whose repeats are formatted once
    rows = list(zip(*columns))
    header = ["sector", "r", "theta", "pool"]
    expected = reference_csv(header, rows)
    assert csv_text(header, rows) == expected
    assert csv_text(header, iter(rows)) == expected


def test_csv_of_a_row_table_across_row_blocks():
    rng = np.random.default_rng(7)
    n = 3 * io_formats._BLOCK_ROWS + 17
    rows = list(zip(rng.choice(["inner", "outer"], n).tolist(), rng.standard_normal(n).tolist(),
                    map(np.float64, rng.choice(np.array(POOL), n)), range(n)))
    header = ["sector", "normal", "pool", "i"]
    assert csv_text(header, rows) == reference_csv(header, rows)


def test_csv_of_ragged_rows_raises():
    for rows in ([(1.0, 2.0), (3.0,)], [(), ("a",)], [("a", 1), ("b", 2, 3)]):
        with pytest.raises(ValueError):
            csv_text(["a", "b"], rows)


def reference_json(v):
    """Per-item reference of json_text for a list of scalars."""
    def item(x):
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, int):
            return str(x)
        text = format(x, ".17g")
        return text if math.isfinite(x) else f'"{text}"'
    return "[" + ",".join(item(x) for x in v) + "]\n"


@SETTINGS
@given(st.lists(st.one_of(pooled, floats, pooled.map(np.float64), st.integers(-5, 5),
                          st.booleans()), max_size=12))
def test_json_float_lists_write_the_per_item_bytes(values):
    assert json_text(values) == reference_json(values)
    assert json_text(tuple(values)) == reference_json(values)
    finite = [float(x) for x in values if math.isfinite(x)]
    inner = reference_json(finite).rstrip("\n")
    assert json_text(finite) == inner + "\n"
    assert json_text({"v": [finite, finite]}) == '{"v":[%s,%s]}\n' % (inner, inner)
