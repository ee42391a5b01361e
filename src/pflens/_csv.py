"""The one CSV writer and the one text reader behind pflens's file formats."""

import csv
import io
from pathlib import Path


def csv_text(header, rows) -> str:
    """A header line, then one line per row, each ending in a newline.

    Float cells are written with 17 significant digits, so they read back
    bit for bit; other cells are written as they are.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{cell:.17g}" if isinstance(cell, float) else cell for cell in row])
    return buffer.getvalue()


def read_text(path, error_class) -> str:
    """The UTF-8 text of a file; other bytes raise error_class naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        reason = f"{error.reason} at byte {error.start}"
        raise error_class(f"{path}: not UTF-8 text ({reason})") from None
