"""CSV output and the file path checks shared by the study harness and the CLI.

It imports nothing else of the package but its errors, so a command that writes
a CSV but draws no field loads neither the field simulator nor scipy.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from .errors import ConfigError


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


@contextmanager
def open_input(path: str, newline=None):
    """``path`` open as UTF-8 text.  A missing file raises FileNotFoundError, as
    ``open`` does; one that cannot be read as text raises ConfigError naming it."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:  # a directory, a byte that is not UTF-8
        raise ConfigError(f"cannot read {path!r}: {getattr(exc, 'strerror', None) or exc}") from exc


def check_output(path: str, name: str) -> None:
    """Refuse an output ``path``, given as ``name``, that names a directory or
    lies in none, before the work that would write it."""
    if os.path.isdir(path):
        raise ConfigError(f"{name}: {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or os.curdir):
        raise ConfigError(f"{name}: the directory of {path!r} does not exist")


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
