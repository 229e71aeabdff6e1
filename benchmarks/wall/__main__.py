"""Entry point: ``python -m benchmarks.wall`` or this file run as a script.

Run as a script (the form ``BENCHMARK.json`` names) nothing is on
``sys.path`` yet, so the repo root and ``src/`` are put there first.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.wall.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
