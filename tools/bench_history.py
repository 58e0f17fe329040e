"""Reading ``BENCH_results.json``-style history files (shared by the
``tools/check_*.py`` gates)."""

from __future__ import annotations

import json
from pathlib import Path


def latest_run(path: Path, suite: str) -> dict | None:
    """The most recent run recorded in ``path`` that holds ``suite``.

    A history file is ``{"runs": [...]}``, oldest first; each run records
    whichever suites it executed under ``run["suites"]``.
    """
    history = json.loads(path.read_text())
    for run in reversed(history.get("runs", [])):
        if suite in run.get("suites", {}):
            return run
    return None
