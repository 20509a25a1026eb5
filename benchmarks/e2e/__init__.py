"""End-to-end benchmark: four workloads, quiet-repetition timing, traced pass.

See ``README.md`` in this directory.
"""

import json
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def spec() -> Dict[str, object]:
    """The committed ``BENCHMARK.json``: metric names, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
