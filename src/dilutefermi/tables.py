"""The one writer of the comment-headed CSV tables every command emits."""

import numpy as np


def _cell(x):
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def write_table(path, header_lines, columns, rows):
    """Write ``# `` header lines, the comma-joined columns, then one line per row.

    A float cell, Python or NumPy, prints as ``repr(float(x))``, the shortest
    string that reads back to the same double; any other cell prints as ``str(x)``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")
