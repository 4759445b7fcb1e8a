"""The checked-in manifest of output bytes, `byte_manifest.txt`, and the check against it.

Each entry is one line, `<key> <value>`: the sha256 of an output or
sidecar of the `pipeline_stages` chain (`pipeline.<stage>.<file>`), the
line a stage printed (`pipeline.<stage>.stdout`), or the sha256 of a
demo's stdout (`demo.<script>`). Lines starting with `#` are the header:
what the manifest is, and the Python, numpy and BLAS it was made with.

A change that alters these bytes on purpose replaces the entries with
the ones the failing test prints, so the change shows in its diff.
"""

from __future__ import annotations

import hashlib
import platform
from pathlib import Path

import numpy as np
import pytest

PATH = Path(__file__).with_name("byte_manifest.txt")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> list[str]:
    """The header lines naming this process's Python, numpy and the BLAS numpy was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}",
            f"# blas {blas.get('name')} {blas.get('version')}"]


def read() -> tuple[list[str], dict[str, str]]:
    """The manifest's header lines and its entries, by key."""
    header, entries = [], {}
    for line in PATH.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line:
            key, _, value = line.partition(" ")
            entries[key] = value
    return header, entries


def check(section: str, entries: dict[str, str]) -> None:
    """Fail unless the manifest's entries whose key starts with `section` are exactly `entries`.

    The failure names each differing entry, shows the manifest's header
    beside this run's environment, and prints the entries of the current
    bytes.
    """
    header, recorded = read()
    recorded = {key: value for key, value in recorded.items() if key.startswith(section)}
    differ = sorted(key for key in recorded.keys() | entries.keys() if recorded.get(key) != entries.get(key))
    if differ:
        pytest.fail("\n".join([
            f"{PATH.name} differs from this run in {', '.join(differ)}",
            "manifest made with:", *[line for line in header if line.startswith(("# python", "# numpy", "# blas"))],
            "this run:", *environment(),
            f"the entries for the current bytes, to replace those of {section!r} if the change is meant:",
            *(f"{key} {value}" for key, value in entries.items()),
        ]), pytrace=False)
