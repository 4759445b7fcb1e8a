"""Numeric text tables: one writer, one bulk parser, one number grammar.

`write_table` writes each float as its shortest `repr`, so it reads back
bit for bit; it joins a row's floats in one call. `bulk_rows` parses many
rows with one `np.loadtxt` call, for CSV tables (`read_table`), corpus and
gazetteer coordinates (`parse_rows`) and whitespace-separated word-vector
files (`embed.load_word_vectors`). Rows it rejects, or whose result it
cannot vouch for, are read again one at a time, which names the first
fault. Every numeric cell is read by numpy, in its grammar: `1_0` and
non-ASCII digits are not numbers, and `nan`, `inf` or `1e999` is not
finite. Errors read `<file>: line <n>: <reason>`, counting the header as
line 1. `open_text` opens every text input of the package, and a line
that is not UTF-8 is an error of that form too, met when a reader reaches
that line: a fault of its own row, in the order each reader documents.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import ConflictError, FormatError

_ROWS = {"delimiter": ",", "comments": None, "dtype": float, "ndmin": 2}  # one row per line


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence],
                lineterminator: str = "\r\n") -> None:
    """Write the header, then the rows, each Python float as its shortest `repr`.

    When every cell of a row after the first (or every cell) is a Python
    float, those cells are joined in one call, after a first `int` (not a
    bool) as its `str`. Every other cell (an id, a numpy scalar) and row
    goes through `csv` quoting: the bytes of one `csv.writer` for all rows.
    """
    firsts: list[str] = []  # a row's first cell, its comma and the line end, as `csv` quotes them
    first = csv.writer(SimpleNamespace(write=firsts.append), lineterminator=lineterminator)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        for row in rows:
            lead = 0 if row and type(row[0]) is float else 1
            floats = row[lead:]
            if not floats or set(map(type, floats)) != {float}:
                writer.writerow(row)
                continue
            if lead and type(row[0]) is int:
                fh.write(f"{row[0]},")
            elif lead:
                first.writerow([row[0], ""])  # two fields, so an empty cell is not quoted
                fh.write(firsts.pop().removesuffix(lineterminator))
            fh.write(",".join(map(repr, floats)) + lineterminator)


def filled_rows(reader: Iterable[list[str]]) -> Iterator[list[str]]:
    """The rows of a `csv.reader` that hold a non-blank cell."""
    return (row for row in reader if any(map(str.strip, row)))


def parse_floats(where: str, cells: Sequence[str]) -> np.ndarray:
    """Parse each cell as exactly one finite number in numpy's grammar.

    Raises FormatError `<where>: non-numeric value` or `<where>: non-finite value`.
    """
    line = ",".join(cells)
    try:
        values = np.loadtxt([line], **_ROWS)[0] if line.strip() else None  # numpy skips an empty line
    except ValueError:
        values = None
    if values is None or len(values) != len(cells):
        raise FormatError(f"{where}: non-numeric value")
    if not np.isfinite(values).all():
        raise FormatError(f"{where}: non-finite value")
    return values


def parse_rows(rows: Sequence[tuple[str, Sequence[str]]], width: int) -> Iterator[list[float]]:
    """The values of each (where, cells) row of `width` cells, in order, as `parse_floats` reads them.

    All rows are parsed by one `bulk_rows` call. If any would fail, each row
    is parsed by `parse_floats` as it is taken, so a caller that checks a
    row before taking its values raises the first fault in file order.
    """
    lines = [",".join(cells) for _, cells in rows]
    values = bulk_rows(lines, width)
    if values is not None and len(values) == len(lines):  # numpy skips a blank line
        return iter(values.tolist())
    return (parse_floats(where, cells).tolist() for where, cells in rows)


def row_line(path: str | Path, index: int, header: bool = False) -> int:
    """The line of data row `index` (0-based, after the header, blank rows skipped), as `read_table` counts."""
    with open_text(path) as fh:
        reader = csv.reader(fh)
        for _ in itertools.islice(filled_rows(reader), index + header + 1):
            pass
        return reader.line_num


@contextlib.contextmanager
def open_text(path: str | Path, newline: str | None = "") -> Iterator[Iterator[str]]:
    """Open a UTF-8 text file as an iterator over its lines, less a leading byte-order mark.

    A line holding a byte that is not UTF-8 raises FormatError `<file>:
    line <n>: not UTF-8 text` when it is reached, so a reader that checks
    each row as it reads it reports the faults of earlier rows first,
    whatever the size of the file.
    """
    with open(path, newline=newline, encoding="utf-8-sig", errors="surrogateescape") as fh:
        yield _utf8_lines(path, fh)


def _utf8_lines(path: str | Path, fh: TextIO) -> Iterator[str]:
    for number, line in enumerate(fh, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")  # a byte that is not UTF-8 decoded to a lone surrogate
            except UnicodeEncodeError:
                raise FormatError(f"{path}: line {number}: not UTF-8 text") from None
        yield line


def read_table(path: str | Path, check_header: Callable[[list[str]], None] | None = None,
               ids: bool = False) -> tuple[list[str] | None, list[str], np.ndarray]:
    """Read a numeric CSV table as (header, ids, matrix), skipping blank rows.

    `check_header` gets the first row ([] for an empty file) and raises
    unless it is the header; without it, the table has no header. The
    first row fixes the field count. With `ids`, the first field is an id,
    which may not repeat. A wrong field count or a repeated id is raised
    before any bad value; of the bad values, the first is raised.

    The rows after the header are parsed by one `bulk_rows` call, which
    splits and unquotes the fields as `csv` does. A table it rejects, or
    whose result it cannot vouch for, is read again by `csv` row by row,
    which raises the first fault. A line that is not UTF-8 is met by that
    read, with the field counts and repeated ids.
    """
    skip = 1 if ids else 0  # fields before the numbers
    row_ids: list[str] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(filled_rows(csv.reader(fh)), []) if check_header else None
            if check_header:
                check_header(header)
            matrix = bulk_rows(fh, None if header is None else len(header), row_ids if ids else None)
    except UnicodeDecodeError:  # the row-by-row read names the line
        matrix = None
    if matrix is None:
        with open_text(path) as lines:
            return _checked_rows(path, lines, check_header, skip)
    return header, row_ids, np.ascontiguousarray(matrix[:, skip:])


def bulk_rows(lines: Iterable[str], width: int | None = None, ids: list[str] | None = None,
              delimiter: str | None = ",") -> np.ndarray | None:
    """The rows of `lines` as one matrix; with `ids`, each row's first field goes there and reads as 0.

    With `delimiter` ",", fields are split and unquoted as `csv` does; with
    None, they are split at runs of whitespace and nothing is a quote.
    None when numpy rejects the rows, when they are not `width` fields wide
    (or, without `width`, not all equally wide), hold a non-finite value or
    repeat an id, when there are none, or when a comma-separated value field
    is quoted: numpy would read the line breaks inside it as blanks.
    """
    # leading blank rows; numpy rejects later ones with ","
    lines = itertools.dropwhile(lambda line: not line.strip(), lines)
    first = next(lines, None)
    if first is None:
        return None
    rows = itertools.chain([first], lines)
    quote = '"' if ids is None else ',"'  # the start of a quoted value field

    def unquoted(line: str) -> str:
        if quote in line:
            raise ValueError("a quoted value field")
        return line

    def collect(field: str) -> float:
        ids.append(field)
        return 0.0

    try:
        matrix = np.loadtxt(rows if delimiter is None else map(unquoted, rows),
                            **(_ROWS | {"delimiter": delimiter, "quotechar": delimiter and '"'}),
                            converters=None if ids is None else {0: collect})
    except ValueError:
        return None
    if width is not None and matrix.shape[1] != width:
        return None
    if matrix.shape[1] == (ids is not None) or not np.isfinite(matrix).all():
        return None  # no value fields, or a value that is not finite
    if ids is not None and len(set(ids)) != len(ids):
        return None
    return matrix


def _checked_rows(path: str | Path, lines: Iterable[str], check_header: Callable[[list[str]], None] | None,
                  skip: int) -> tuple[list[str] | None, list[str], np.ndarray]:
    """`read_table` by `csv` alone: (header, ids, matrix), or the first fault in the order it documents."""
    reader = csv.reader(lines)
    rows = filled_rows(reader)
    first = next(rows, [])
    if check_header:
        check_header(first)
    elif first:
        rows = itertools.chain([first], rows)
    width = len(first)
    row_ids: dict[str, None] = {}  # in file order
    values = []
    for row in rows:
        where = f"{path}: line {reader.line_num}"
        if len(row) != width:
            raise FormatError(f"{where}: expected {width} fields, got {len(row)}")
        if skip:
            if row[0] in row_ids:
                raise ConflictError(f"{where}: duplicate id {row[0]!r}")
            row_ids[row[0]] = None
        values.append((where, row[skip:]))
    matrix = np.array([parse_floats(where, cells) for where, cells in values])
    return first if check_header else None, list(row_ids), matrix.reshape(len(values), width - skip)
