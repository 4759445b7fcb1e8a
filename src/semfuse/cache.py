"""The parse cache: each word-vector table or embedding space is parsed once.

`load(path, digest, kind)` is the one entry point. It keeps what it parsed
in a cache directory, `$XDG_CACHE_HOME/semfuse/parse` (`~/.cache` by
default), under the sha256 of the file's bytes, which a parse hashes a
second time before it is stored, and later reads of the same bytes, by
any stage, read it from there. The oldest entries are removed once the
directory holds more than MAX_CACHE_BYTES.

An entry is one binary file (`save_entry`) read back without parsing text
(`load_entry`). A word-vector table and an embedding space are two kinds
of one format, and neither reads as the other. `sha256` is the one
helper that hashes a file, for the sidecars and for the cache alike.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, embed
from .embed import EmbeddingSpace, WordVectorTable
from .errors import DomainError

# each kind's entry suffix and the name of its parser in `embed`, looked up at each parse so that a
# wrapper put in its place sees every one; a kind's class name is its tag word
KINDS = {WordVectorTable: (".vectors", "load_word_vectors"), EmbeddingSpace: (".space", "import_embeddings")}
_SOURCES = ("cache.py", "embed.py", "table.py")  # the modules whose code decides what an entry holds
_ROW_LEAD = bytes(8)  # a float64 0.0 before each stored row, where a parsed row has its label

# a parsed table of more values than this (1 GiB as float64) is parsed on every run, never stored
MAX_CACHED_VALUES = 1 << 27
# after each store the oldest entries go until the rest take at most this: four of the largest
MAX_CACHE_BYTES = 4 << 30


def sha256(path: Path) -> str:
    """The sha256 of the file's bytes, read in 1 MiB blocks: an input can be gigabytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _directory() -> Path | None:
    """The cache directory; None when no absolute cache home is known."""
    home = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(home):  # unset, empty or relative: the XDG default
        home = os.path.expanduser("~/.cache")
    return Path(home, "semfuse", "parse") if os.path.isabs(home) else None


def load(path: Path, digest: str,
         kind: type[WordVectorTable | EmbeddingSpace]) -> WordVectorTable | EmbeddingSpace:
    """The file at `path`, whose sha256 is `digest`, as a `kind`: its entry on a hit, else parsed and stored.

    The entry is named by the digest and the kind's suffix, and a hit
    refreshes its mtime. A parse is stored only if it holds at most
    MAX_CACHED_VALUES values and the file still hashes to `digest`
    afterwards; then the oldest entries go until the rest fit in
    MAX_CACHE_BYTES. A cache that cannot be read, written or pruned
    leaves the caller as it is.
    """
    suffix, parser = KINDS[kind]
    directory = _directory()
    entry = directory / f"{digest}{suffix}" if directory else None
    value = load_entry(kind, entry) if entry else None
    if value is not None:
        with contextlib.suppress(OSError):
            os.utime(entry)
        return value
    value = getattr(embed, parser)(path)
    values = value.matrix.size if kind is EmbeddingSpace else len(value.vectors) * value.dim
    if entry and values <= MAX_CACHED_VALUES and sha256(path) == digest:
        with contextlib.suppress(OSError):
            directory.mkdir(parents=True, exist_ok=True)
            save_entry(value, entry)
            _evict(directory)
    return value


def _evict(directory: Path) -> None:
    """Remove entries of every kind, oldest mtime first, until the rest take at most MAX_CACHE_BYTES."""
    suffixes = tuple(suffix for suffix, _ in KINDS.values())
    with os.scandir(directory) as found:
        entries = sorted((e.stat().st_mtime_ns, e.stat().st_size, e.path) for e in found
                         if e.name.endswith(suffixes))
    total = sum(size for _, size, _ in entries)
    for _, size, path in entries:
        if total <= MAX_CACHE_BYTES:
            break
        os.unlink(path)
        total -= size


@functools.cache
def _entry_tag(kind: type) -> bytes:
    """The first line of a `kind` entry. It names the kind, the package
    version, the numpy version, the byte order and a sha256 of the source
    files that decide what an entry holds, so an entry of the other kind,
    or one that another build of the parser or of this format wrote, reads
    as a miss. A source file that cannot be read raises OSError, which the
    cache treats as a miss and a failed write.
    """
    sources = hashlib.sha256()
    for name in _SOURCES:
        sources.update(Path(__file__).with_name(name).read_bytes())
    return (f"semfuse {kind.__name__} {__version__} parser {sources.hexdigest()[:16]} "
            f"numpy {np.__version__} float64 {sys.byteorder}\n").encode()


def save_entry(value: WordVectorTable | EmbeddingSpace, path: Path) -> None:
    """Store a word-vector table or an embedding space as one entry file that `load_entry` reads back.

    The entry holds the tag of the value's kind, a line `<n> <dim> <label
    bytes> <sha256>`, the labels (tokens or ids) in order, one per line,
    and an n x (dim + 1) float64 matrix in native byte order: each row
    after a leading 0.0, the matrix a parse builds with its label column.
    A hit thus allocates what a parse allocates and leaves the allocator
    as a parse leaves it: with glibc's malloc, a tighter n x dim matrix
    raised the peak RSS of the `layout` benchmark from 117.4 to 120.2 MB.
    The sha256 covers the labels and the matrix. Each row is written and
    hashed where it lies, so the matrix is not copied. The file is written
    under a temporary name in `path`'s directory and then renamed to
    `path`, so a reader never sees a partial entry. A value with no rows,
    or with a label that holds a line break, is not stored: its labels
    would not read back.
    """
    if isinstance(value, WordVectorTable):
        labels, rows = list(value.vectors), value.vectors.values()
    else:
        labels, rows = value.ids, value.matrix
    text = "\n".join(labels).encode()
    if not labels or text.count(b"\n") != len(labels) - 1:
        return
    rows = [np.ascontiguousarray(row, dtype=float) for row in rows]
    payload = hashlib.sha256(text)
    for row in rows:
        payload.update(_ROW_LEAD)
        payload.update(row)
    tag = _entry_tag(type(value))
    fd, temp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with open(fd, "wb", buffering=1 << 16) as fh:  # half the write time of the default 8 KiB
            fh.write(tag)
            fh.write(f"{len(rows)} {value.dim} {len(text)} {payload.hexdigest()}\n".encode())
            fh.write(text)
            for row in rows:
                fh.write(_ROW_LEAD)
                fh.write(row)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def load_entry(kind: type[WordVectorTable | EmbeddingSpace],
               path: Path) -> WordVectorTable | EmbeddingSpace | None:
    """The `kind` value `save_entry` stored at `path`, as its parse returns it.

    A table's vectors are row views of one matrix; a space's matrix is a
    C-contiguous copy of the stored one without its label column. None
    when there is no entry, it cannot be read, or its tag, its size or the
    sha256 of its labels and matrix does not match: an entry of the other
    kind or a damaged one is a miss, never an error.
    """
    try:
        with open(path, "rb") as fh:
            tag = _entry_tag(kind)
            if fh.readline(len(tag)) != tag:
                return None
            n, dim, size, digest = fh.readline(256).split()
            n, dim, size = int(n), int(dim), int(size)
            expected = fh.tell() + size + 8 * n * (dim + 1)
            if n < 1 or dim < 1 or size < 0 or os.fstat(fh.fileno()).st_size != expected:
                return None
            text = fh.read(size)
            matrix = np.fromfile(fh, dtype=float, count=n * (dim + 1)).reshape(n, dim + 1)
        payload = hashlib.sha256(text)
        payload.update(matrix)
        if payload.hexdigest().encode() != digest:
            return None
        labels = text.decode().split("\n")
        if kind is WordVectorTable:
            return WordVectorTable(dim=dim, vectors=dict(zip(labels, matrix[:, 1:], strict=True)))
        return EmbeddingSpace(ids=tuple(labels), matrix=np.ascontiguousarray(matrix[:, 1:]))
    except (OSError, ValueError, DomainError):
        return None
