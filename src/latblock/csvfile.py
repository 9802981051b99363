"""CSV output shared by the study harness and the CLI.

It imports nothing from the rest of the package, so a command that writes a
CSV but draws no field loads neither the field simulator nor scipy.
"""

from __future__ import annotations

import os


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _quote(text: str) -> str:
    if any(ch in text for ch in (',', '"', "\n", "\r")):
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_csv(rows, columns, path: str) -> None:
    """Write rows (dicts) as RFC-4180 CSV with LF endings and 17-digit floats.

    Partial files are never left behind: output lands in a temp file first.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_quote(_fmt(row.get(col))) for col in columns) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
