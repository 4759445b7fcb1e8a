"""Numeric CSV tables: one writer, one streamed reader, one number grammar.

`write_table` writes each float as its shortest `repr`, so it reads back
bit for bit. Every numeric cell is read by `parse_floats` or by the one
`np.loadtxt` call of `read_table`, in numpy's grammar: `1_0` and non-ASCII
digits are not numbers, and `nan`, `inf` or `1e999` is not finite. Errors
read `<file>: line <n>: <reason>`, counting the header as line 1.
"""

from __future__ import annotations

import csv
import itertools
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConflictError, FormatError

_ROWS = {"delimiter": ",", "comments": None, "dtype": float, "ndmin": 2}  # one row per line


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence],
                lineterminator: str = "\r\n") -> None:
    """Write the header, then the rows; numbers as Python floats, which `csv` prints by `repr`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


def filled_rows(reader: Iterable[list[str]]) -> Iterator[list[str]]:
    """The rows of a `csv.reader` that hold a non-blank cell."""
    return (row for row in reader if any(map(str.strip, row)))


def parse_floats(where: str, cells: Sequence[str]) -> np.ndarray:
    """Parse each cell as exactly one finite number in numpy's grammar.

    Raises FormatError `<where>: non-numeric value` or `<where>: non-finite value`.
    """
    line = ",".join(cells)
    try:
        values = np.loadtxt([line], **_ROWS)[0] if line else None  # an empty line is skipped
    except ValueError:
        values = None
    if values is None or len(values) != len(cells):
        raise FormatError(f"{where}: non-numeric value")
    if not np.isfinite(values).all():
        raise FormatError(f"{where}: non-finite value")
    return values


def row_line(path: str | Path, index: int, header: bool = False) -> int:
    """The line of data row `index` (0-based, after the header, blank rows skipped), as `read_table` counts."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for _ in itertools.islice(filled_rows(reader), index + header + 1):
            pass
        return reader.line_num


def read_table(path: str | Path, check_header: Callable[[list[str]], None] | None = None,
               ids: bool = False) -> tuple[list[str] | None, list[str], np.ndarray]:
    """Read a numeric CSV table as (header, ids, matrix), skipping blank rows.

    `check_header` gets the first row ([] for an empty file) and raises
    unless it is the header; without it, the table has no header. The
    first row fixes the field count. With `ids`, the first field is an id,
    which may not repeat. A wrong field count or a repeated id is raised
    before any bad value; of the bad values, the first is raised.
    """
    skip = 1 if ids else 0  # fields before the numbers
    row_ids: dict[str, None] = {}  # in file order

    def value_lines(rows: Iterable[list[str]]) -> Iterator[str]:
        for row in rows:
            where = f"{path}: line {reader.line_num}"
            if len(row) != width:
                raise FormatError(f"{where}: expected {width} fields, got {len(row)}")
            if ids:
                if row[0] in row_ids:
                    raise ConflictError(f"{where}: duplicate id {row[0]!r}")
                row_ids[row[0]] = None
            yield ",".join(row[skip:]) or ","  # a lone empty cell must fail, not be skipped

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = filled_rows(reader)
        header = next(rows, [])
        if check_header:
            check_header(header)
        else:
            rows = itertools.chain([header] if header else [], rows)
        width = len(header)
        lines = value_lines(rows)
        first = next(lines, None)
        matrix = np.zeros((0, width - skip))
        if first is not None:
            try:
                matrix = np.loadtxt(itertools.chain([first], lines), **_ROWS)
            except ValueError:
                matrix = None
        for _ in lines:  # the rows after a bad value still get their fields checked
            pass
        if matrix is None or matrix.shape[1] != width - skip or not np.isfinite(matrix).all():
            fh.seek(0)
            reader = csv.reader(fh)
            rows = filled_rows(reader)
            if check_header:
                next(rows)
            for row in rows:
                parse_floats(f"{path}: line {reader.line_num}", row[skip:])
            # reached only if the bulk read and the line-by-line read disagree
            raise FormatError(f"{path}: values could not be read as one table")
    return (header if check_header else None), list(row_ids), matrix
