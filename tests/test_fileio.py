"""``fileio.json_lines`` against one ``json.dumps`` per record: the same
bytes whatever the column types, and the lines yielded one at a time, so a
record neither the line template nor json.dumps can write fails at its own
turn."""

import json
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hindpo import fileio
from hindpo.fileio import json_lines


@dataclass
class Row:
    name: str
    count: int
    value: float
    score: float | None


class Name(str):
    """A str subclass; the line template leaves it to json.dumps."""


def oracle_lines(records) -> str:
    return "".join(json.dumps(vars(record), ensure_ascii=False) + "\n" for record in records)


def assert_lines_match_the_oracle(records):
    """json_lines yields each record's json.dumps line in turn, and fails
    where json.dumps fails, with its error, after every earlier line."""
    lines = json_lines(records)
    for record in records:
        try:
            expected = json.dumps(vars(record), ensure_ascii=False) + "\n"
        except (TypeError, ValueError) as error:
            with pytest.raises(type(error), match=re.escape(str(error))):
                next(lines)
            return
        assert next(lines) == expected
    assert list(lines) == []


_FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16])
# Values of another type than their column's: the template writes None and
# leaves the rest to json.dumps, which writes or refuses them.
_FALLBACK = (
    st.booleans()
    | _FLOATS.map(np.float64)
    | st.integers(-(2**40), 2**40).map(np.int64)
    | st.text(max_size=3).map(Name)
    | st.none()
)


@st.composite
def _rows(draw):
    # A plain row, its mixed float | None column included, and maybe one
    # field set to a value of another type.
    row = Row(
        name=draw(st.text(alphabet='aé"\\\x00\x1f\t\n बक\U0001f600', max_size=6)),
        count=draw(st.integers()),
        value=draw(_FLOATS | st.integers()),
        score=draw(st.none() | _FLOATS),
    )
    if draw(st.integers(0, 3)) == 0:
        setattr(row, draw(st.sampled_from(["name", "count", "value", "score"])), draw(_FALLBACK))
    return row


class TestJsonLines:
    @settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.lists(_rows(), max_size=12), rows=st.sampled_from([2, 5, fileio._ROWS]))
    @example(
        records=[Row("a", 1, 0.5, None), Row("b", 2, float("nan"), 0.25), Row("c", 3, 1.5, np.float64(0.5))], rows=2
    )
    @example(records=[Row(Name("s"), True, np.float64(2.0), False), Row("t", np.int64(4), 3, None)], rows=64)
    def test_each_line_is_one_json_dumps(self, monkeypatch, records, rows):
        # A small chunk size makes the records span several chunks.
        monkeypatch.setattr(fileio, "_ROWS", rows)
        assert_lines_match_the_oracle(records)

    def test_mixed_float_and_none_column_goes_through_the_template(self, monkeypatch):
        dumped = []

        def dumps(obj, **kwargs):
            dumped.append(obj)
            return json.dumps(obj, **kwargs)

        records = [Row("a", i, 0.5 * i, None if i % 2 else 0.25 * i) for i in range(7)]
        monkeypatch.setattr(fileio.json, "dumps", dumps)
        lines = "".join(json_lines(records))
        monkeypatch.undo()
        assert lines == oracle_lines(records)
        assert dumped == []

    @pytest.mark.parametrize("position", [0, 3, 4, 9])
    def test_an_unwritable_record_fails_after_every_line_before_it(self, monkeypatch, position):
        monkeypatch.setattr(fileio, "_ROWS", 4)
        records = [Row("a", i, 0.5, None) for i in range(10)]
        records[position].value = object()
        lines = json_lines(records)
        written = [next(lines) for _ in range(position)]
        assert "".join(written) == oracle_lines(records[:position])
        with pytest.raises(TypeError, match="not JSON serializable"):
            next(lines)

    def test_an_int_too_long_to_write_fails_at_its_turn(self):
        records = [Row("a", 1, 0.5, None), Row("b", 10**5000, 0.5, None)]
        lines = json_lines(records)
        assert next(lines) == oracle_lines(records[:1])
        with pytest.raises(ValueError, match="integer string conversion"):
            next(lines)

    def test_added_or_moved_attributes_and_other_classes_go_through_json_dumps(self):
        @dataclass
        class Other:
            name: str

        extra, moved = Row("a", 1, 0.5, None), Row("b", 2, 1.5, 0.25)
        extra.note = "x"
        del moved.count
        moved.count = 2
        records = [Row("c", 3, 2.5, None), extra, moved, Other("d")]
        assert "".join(json_lines(records)) == oracle_lines(records)

    def test_no_records_no_lines(self):
        assert list(json_lines([])) == []
