"""Fuzzing of the file readers: malformed input fails with a located error.

``read_pgm`` may only raise :class:`PgmError` with a byte offset inside the
data, and the CSV readers only ``ValueError`` naming the table and line.
"""

from __future__ import annotations

import io as stdio
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sltrack import PgmError, read_estimates_csv, read_pgm, read_truth_csv
from sltrack.io import ESTIMATES_HEADER, TRUTH_HEADER

FUZZ = settings(max_examples=300, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

@st.composite
def _edited_pgm(draw) -> bytes:
    """A valid small PGM, then up to three cuts, insertions or overwrites."""
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    data = bytearray(f"P5\n{w} {h}\n255\n".encode("ascii"))
    data += draw(st.binary(min_size=w * h, max_size=w * h))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["cut", "insert", "overwrite"]))
        if edit == "cut":
            del data[at:]
        elif edit == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif at < len(data):
            data[at] = draw(st.sampled_from(b"0123456789 #\nPx\xff"))
    return bytes(data)


_pgm = st.one_of(st.binary(max_size=64), _edited_pgm())


@FUZZ
@given(_pgm)
def test_read_pgm_fails_only_with_an_offset(data):
    try:
        frame = read_pgm(stdio.BytesIO(data))
    except PgmError as exc:
        assert 0 <= exc.offset <= len(data)
        assert str(exc).endswith(f"(byte offset {exc.offset})")
    else:
        assert frame.pixels.size == frame.width * frame.height > 0


# fields: numbers, blanks, flags and junk that int()/float() may reject
_field = st.one_of(st.sampled_from(["0", "1", "", "-1", "2.5", "nan", "inf",
                                    "1e3", "x"]),
                   st.text("0123456789.-e", max_size=5), st.text(max_size=3))
_row = st.lists(_field, min_size=0, max_size=8).map(",".join)


def _table(header: str):
    return st.builds(lambda head, rows: "\n".join([head, *rows]) + "\n",
                     st.sampled_from([header, header, header[:-1], ""]),
                     st.lists(_row, max_size=6))


def _assert_located(read, what: str, text: str) -> None:
    try:
        read(stdio.StringIO(text))
    except ValueError as exc:
        assert re.match(rf"{what} CSV line [1-9][0-9]*: ", str(exc)), str(exc)


@FUZZ
@given(_table(ESTIMATES_HEADER))
def test_read_estimates_csv_fails_only_naming_a_line(text):
    _assert_located(read_estimates_csv, "estimates", text)


@FUZZ
@given(_table(TRUTH_HEADER))
def test_read_truth_csv_fails_only_naming_a_line(text):
    _assert_located(read_truth_csv, "truth", text)
