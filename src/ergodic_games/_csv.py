"""The one CSV and JSON writers behind every artifact of the library and CLI.

Cells are formatted by type so reruns are byte identical: floats with
``repr`` (which round-trips float64), booleans as ``true``/``false``,
integers in decimal, ``None`` as an empty cell, and strings with their
commas replaced by ``;`` so a free-text cell never splits a row.  JSON
reports have sorted keys, an indent of 2 and a final newline.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):  # before int: bool is an int
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v).replace(",", ";")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then one line per row of ``rows``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as JSON with sorted keys; a payload that does not serialize
    raises before ``path`` is opened, so it leaves no half-written file."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
