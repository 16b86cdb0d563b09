import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from watermelon.errors import WatermelonError
from watermelon.tableio import Table, emit, to_csv, to_json
from reference import parse_csv, parse_json


def sample_table():
    return Table(name="watermelon", params={"N": 4, "wall": "absorbing"},
                 columns=("M", "cdf"),
                 rows=[(1.5, 0.1071934), (2.5, 0.9868467), (4.0, 1.0)],
                 generated="2026-08-10T00:00:00+00:00")


def test_csv_layout():
    text = to_csv(sample_table())
    lines = text.splitlines()
    assert lines[0] == "# watermelon v1 N=4 wall=absorbing"
    assert lines[1].startswith("# tool: watermelon ")
    assert lines[2] == "# generated: 2026-08-10T00:00:00+00:00"
    assert lines[3] == "M,cdf"
    assert len(lines) == 7


def test_csv_round_trip_bytes():
    text = to_csv(sample_table())
    again = to_csv(parse_csv(text))
    assert again == text


def test_json_round_trip_and_row_counts():
    t = sample_table()
    as_json = to_json(t)
    back = parse_json(as_json)
    assert to_json(back) == as_json
    assert len(back.rows) == len(parse_csv(to_csv(t)).rows)


def test_json_negative_zero_round_trips_bytes():
    t = Table(name="x", params={}, columns=("a", "b"), rows=[(-0.0, 0.0)],
              generated="2026-08-10T00:00:00+00:00")
    text = to_json(t)
    back = parse_json(text)
    assert to_json(back) == text
    assert [math.copysign(1.0, v) for v in back.rows[0]] == [-1.0, 1.0]


def test_empty_table_is_an_error(tmp_path):
    t = Table(name="x", params={}, columns=("a",), rows=[])
    with pytest.raises(WatermelonError):
        emit(t, "csv", str(tmp_path / "out.csv"))
    assert not (tmp_path / "out.csv").exists()


def test_ragged_row_rejected():
    t = Table(name="x", params={}, columns=("a", "b"), rows=[(1.0,)])
    with pytest.raises(WatermelonError):
        to_csv(t)


def test_foreign_csv_rejected():
    text = to_csv(sample_table())
    lines = text.splitlines(keepends=True)
    for bad, why in (("M,cdf\n" + text, "not a watermelon CSV"),
                     ("".join(lines[:1] + lines[3:]), "missing provenance"),
                     (text.replace(" v1 ", " v2 ", 1), "not v1")):
        with pytest.raises(WatermelonError, match=why):
            parse_csv(bad)


def test_unknown_format():
    with pytest.raises(WatermelonError):
        emit(sample_table(), "yaml", io.StringIO())


def test_unwritable_destination(tmp_path):
    with pytest.raises(OSError):
        emit(sample_table(), "csv", str(tmp_path / "missing" / "out.csv"))


def test_determinism_modulo_wall_clock():
    a = Table(name="t", params={"p": 1.25}, columns=("x",), rows=[(2.0,)],
              generated="A")
    b = Table(name="t", params={"p": 1.25}, columns=("x",), rows=[(2.0,)],
              generated="B")
    la = [l for l in to_csv(a).splitlines() if not l.startswith("# generated")]
    lb = [l for l in to_csv(b).splitlines() if not l.startswith("# generated")]
    assert la == lb


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=40))
def test_csv_float_round_trip_is_exact(rows):
    t = Table(name="t", params={}, columns=("x", "y"), rows=rows, generated="g")
    back = parse_csv(to_csv(t))
    for (x0, y0), (x1, y1) in zip(rows, back.rows):
        assert float(x1) == x0 or (math.isnan(x0) and math.isnan(float(x1)))
        assert float(y1) == y0
    assert to_csv(back) == to_csv(t)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(width=64), st.integers(-10**9, 10**9),
                          st.booleans()),
                min_size=1, max_size=20))
def test_json_round_trip_is_exact(rows):
    # booleans and non-finite floats, as the validate and kernel tables hold
    rows = rows + [(math.inf, 0, True), (-math.inf, 1, False),
                   (math.nan, 2, True)]
    t = Table(name="t", params={}, columns=("x", "k", "ok"), rows=rows,
              generated="g")
    back = parse_json(to_json(t))
    for (x0, k0, b0), (x1, k1, b1) in zip(rows, back.rows):
        assert float(x1) == x0 or (math.isnan(x0) and math.isnan(x1))
        assert k1 == k0 and b1 is b0
