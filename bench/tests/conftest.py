"""Put the benchmark modules and the program's sources on the import path."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for entry in (str(BENCH.parent / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
