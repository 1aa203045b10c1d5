"""The one reader of every input file.

``read_jsonl`` and ``read_csv`` yield ``parse(record)`` per record: the JSON
object on each non-blank line, or each CSV row as a dict keyed by the
header.  A line that is not UTF-8 or not a JSON object, a row whose cell
count is not the header's, and any ``KeyError``, ``TypeError``,
``ValueError`` or ``ScamscoutError`` from ``parse`` raise
``SchemaError("path:lineno: cause")``.  ``get_typed`` reads one field of a
record and raises ``SchemaError`` unless it has exactly the expected type.
"""

from __future__ import annotations

import csv
import json
from itertools import zip_longest

from .errors import ScamscoutError, SchemaError


def read_jsonl(path, parse):
    return _read(path, _json_objects, parse)


def read_csv(path, parse):
    return _read(path, _csv_rows, parse)


def get_typed(rec: dict, key: str, kind: type, default, where: str = ""):
    """``rec[key]`` if its type is exactly ``kind`` (so a bool is no int),
    ``default`` if absent or null.  ``where`` prefixes the key in the error,
    naming a nested object."""
    value = rec.get(key)
    if value is None:
        return default
    if type(value) is not kind:
        raise SchemaError(f"{where}{key} must be {kind.__name__}, got {value!r}")
    return value


def check_header(path, expected: list[str]) -> None:
    """Raise ``SchemaError("path:1: ...")`` unless the CSV header is ``expected``."""
    def check(names: list[str]) -> None:
        for col, (got, want) in enumerate(zip_longest(names, expected), 1):
            if got != want:
                raise ValueError(f"header column {col} is {got!r}, expected {want!r}")

    for _ in _read(path, lambda lines: [next(csv.reader(lines), [])], check):
        pass


def _json_objects(lines):
    for line in lines:
        if line.strip():
            record = json.loads(line)
            if not isinstance(record, dict):
                raise TypeError(f"expected a JSON object, got {type(record).__name__}")
            yield record


def _csv_rows(lines):
    reader = csv.reader(lines)
    header = next(reader, [])
    for row in reader:
        if row:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} cells, got {len(row)}")
            yield dict(zip(header, row))


def _read(path, records, parse):
    """``parse`` each of ``records(lines)``; a fault names the line last read."""
    lineno = 0

    def lines(fh):
        nonlocal lineno
        # decoded one by one, so a byte that is not UTF-8 names its own line
        for lineno, line in enumerate(fh, 1):
            yield line.decode("utf-8")

    with open(path, "rb") as fh:
        try:
            for record in records(lines(fh)):
                yield parse(record)
        except (KeyError, TypeError, ValueError, ScamscoutError) as exc:
            cause = exc
            if isinstance(exc, KeyError):
                cause = f"missing key {exc}"
            elif isinstance(exc, json.JSONDecodeError):   # its own line count is 1
                cause = f"{exc.msg} at column {exc.pos + 1}"
            raise SchemaError(f"{path}:{lineno}: {cause}") from exc
