"""Deterministic CSV emission shared by the benchmark harness and trajectory dumps."""

from __future__ import annotations

import csv
import io
from pathlib import Path


def format_value(value) -> str:
    """Floats carry 9 significant digits; everything else is str()."""
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def column_rows(**columns) -> list[dict]:
    """The row dicts of equal-length columns, keyed in the keywords' order."""
    return [dict(zip(columns, values)) for values in zip(*columns.values(), strict=True)]


def emit_csv(rows, columns, path) -> Path:
    """Write UTF-8 CSV with a header row, stable column order and Unix newlines.

    Rows are mappings; missing keys fail loudly.  The byte content depends only
    on the rows and column order, so identical inputs reproduce identical files.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_value(row[c]) for c in columns])
        path.write_bytes(buf.getvalue().encode("utf-8"))
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
    return path
