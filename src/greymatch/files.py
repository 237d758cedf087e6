"""The two file writers behind every output: CSV tables and JSON documents.

Both write UTF-8 with ``\\n`` line ends on every platform, so a rerun with
the same inputs reproduces a file byte for byte.
"""

from __future__ import annotations

import json


def _cell(value) -> str:
    if isinstance(value, (str, int)):
        return str(value)
    # repr of a Python float reads back bit for bit; numpy 2 would write a
    # float64 as np.float64(...)
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    """Write a header and rows of cells, joined by commas and unquoted.

    Strings and ints are written as they are, every other number as
    ``repr(float(v))``.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(map(_cell, row)) + "\n")


def write_json(path, doc) -> None:
    """Write a JSON document indented by two spaces, with one trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
