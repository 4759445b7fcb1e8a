"""Write the rows of a symmetric float64 block as CSV lines, each pair formatted once.

`write_rows` is the loop `rankopt.save_score_matrix` writes with. Run as
`python -I -S _score_rows.py <n>` with an n x n symmetric block's native
float64 bytes on stdin, this file writes the block's n lines to stdout,
each cell the shortest `repr` of its float; `save_score_matrix` runs it
in a second process on the lower rows of a large matrix. It imports
nothing beyond `sys`, so that process starts in about 12 ms: numpy,
`typing` and even `array` would each add as much again or more.
"""

import sys


def write_rows(out, uppers, below: list) -> None:
    """Write line i to the binary file `out`: the texts in below[i], then uppers[i].

    uppers yields, for each row i, the comma-joined texts of cells (i, i),
    (i, i + 1), ... as bytes; the text of cell (i, j) is appended, with a
    comma, to below[j], one bytearray per column, which line j writes and
    drops.
    """
    for i, upper in enumerate(uppers):
        line, below[i] = below[i], None
        line += upper
        line += b"\n"
        out.write(line)
        for column, text in zip(below[i + 1:], upper.split(b",")[1:]):
            column += text
            column += b","


def main(n: int) -> None:
    data = sys.stdin.buffer.read()
    if len(data) != 8 * n * n:
        sys.exit(f"expected {8 * n * n} bytes of float64 cells on stdin, got {len(data)}")
    cells = memoryview(data).cast("d")
    uppers = (",".join(map(repr, cells[i * n + i:(i + 1) * n].tolist())).encode() for i in range(n))
    write_rows(sys.stdout.buffer, uppers, [bytearray() for _ in range(n)])


if __name__ == "__main__":
    main(int(sys.argv[1]))
