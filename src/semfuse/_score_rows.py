"""Write the rows of a symmetric float64 block as CSV lines, each pair formatted once.

`write_rows` is the loop `rankopt.save_score_matrix` writes with. It
formats a block of about `_BLOCK_CELLS` cells at a time and hands each
column below the block its texts with one transpose and one join, so no
Python loop runs once per cell. Run as `python -I -S _score_rows.py <n>`
with an n x n symmetric block's native float64 bytes on stdin, this file
writes the block's n lines to stdout, each cell the shortest `repr` of
its float; `save_score_matrix` runs it in a second process on the lower
rows of a large matrix. It imports only modules built into the
interpreter, so that process starts in about 12 ms: numpy, `typing` and
even `array` would each add as much again or more.
"""

import itertools
import sys

# cells formatted per block: the texts of one block take about 1.3 MB
_BLOCK_CELLS = 2**14


def write_rows(out, rows, below: list) -> None:
    """Write line i to the binary file `out`: the texts in below[i], then those of rows[i].

    rows yields, for each row i, the floats of cells (i, i), (i, i + 1),
    ...; below holds one bytearray per column, the texts already formatted
    for it, each followed by a comma. The text of cell (i, j) is appended
    to below[j], which line j writes and drops; the columns below a block
    get its texts from one transpose, one join per column and one encode.
    """
    rows = enumerate(rows)
    size = max(1, _BLOCK_CELLS // max(len(below), 1))
    while block := list(itertools.islice(rows, size)):
        end = block[-1][0] + 1  # the first column below the block
        tails = []
        for i, cells in block:
            texts = list(map(repr, cells))
            # the block's own triangle, cell by cell
            for column, text in zip(below[i + 1:end], texts[1:end - i]):
                column += text.encode() + b","
            line, below[i] = below[i], None
            line += (",".join(texts) + "\n").encode()
            out.write(line)
            tails.append(texts[end - i:])
        columns = (",\n".join(map(",".join, zip(*tails))) + ",").encode().split(b"\n")
        for column, text in zip(below[end:], columns):
            column += text


def main(n: int) -> None:
    data = sys.stdin.buffer.read()
    if len(data) != 8 * n * n:
        sys.exit(f"expected {8 * n * n} bytes of float64 cells on stdin, got {len(data)}")
    cells = memoryview(data).cast("d")
    write_rows(sys.stdout.buffer, (cells[i * n + i:(i + 1) * n].tolist() for i in range(n)),
               [bytearray() for _ in range(n)])


if __name__ == "__main__":
    main(int(sys.argv[1]))
