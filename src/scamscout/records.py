"""The one reader and writer of every record file.

``read_jsonl`` and ``read_csv`` yield ``parse(record)`` per record: the JSON
object on each non-blank line, or each CSV row as a dict keyed by the
header.  A line that is not UTF-8 or not a JSON object, a row whose cell
count is not the header's, and any ``KeyError``, ``TypeError``,
``ValueError`` or ``ScamscoutError`` from ``parse`` raise
``SchemaError("path:lineno: cause")``.  ``read_bytes`` hands ``parse`` the
bytes of a whole file, such as a checkpoint, and ``read_json`` the one JSON
object in a file, such as a model; both name a fault ``"path: cause"``.
``get_typed`` reads one field of a record and raises ``SchemaError`` unless
it has exactly the expected type.  ``from_record`` builds a dataclass from
the keys of a record named like its fields, and ``check_field_types``
checks the number fields of a dataclass.

``write_csv``, ``write_jsonl`` and ``write_document`` write every text
output file: UTF-8, ``\\n`` line ends, so a rerun rewrites the same bytes on
any platform.  ``write_bytes`` writes a binary one, a checkpoint.  A
dataclass goes out as ``dataclasses.asdict`` of it and comes back through
``from_record``.  An error while writing names its file.
``make_output_dir`` creates an output directory.  If a
``removed_on_failure()`` block raises, every regular file written inside it
is removed, overwritten ones included, and so is every directory created
inside it that is left empty; a directory that was there before stays.
"""

from __future__ import annotations

import csv
import json
import os
import stat
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import MISSING, fields
from functools import cache
from itertools import zip_longest
from pathlib import Path

from .errors import ScamscoutError, SchemaError

# what ``parse`` may raise on a bad record, reported as a SchemaError
_FAULTS = (KeyError, TypeError, ValueError, ScamscoutError)

# (remove, path) of each output file opened and each directory created
# inside the innermost ``removed_on_failure`` block
_created: ContextVar = ContextVar("created", default=None)


def read_jsonl(path, parse):
    return _read(path, _json_objects, parse)


def read_csv(path, parse):
    return _read(path, _csv_rows, parse)


def read_bytes(path, parse):
    """``parse`` the bytes of ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data)
    except _FAULTS as exc:
        raise _fault(path, exc) from exc


def read_json(path, parse):
    """``parse`` the one JSON object in ``path``."""
    return read_bytes(path, lambda data: parse(json_object(data.decode("utf-8"))))


def write_csv(path, header: list, rows) -> None:
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_jsonl(path, records) -> None:
    """One JSON object per line, keys in each record's own order."""
    with _output(path) as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_document(path, text: str) -> None:
    """``text`` as the whole file, such as a model or a JSON report."""
    with _output(path) as fh:
        fh.write(text)


def write_bytes(path, *chunks) -> None:
    """The bytes-like ``chunks``, one after another, as the whole file."""
    with _output(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def make_output_dir(path) -> None:
    """Create the directory ``path`` and its missing parents, each recorded
    as created like a file the run opened."""
    path = Path(path)
    try:
        path.mkdir()
    except FileNotFoundError:
        if path.parent == path:
            raise
        make_output_dir(path.parent)
        path.mkdir()
    except OSError:
        if not path.is_dir():
            raise
        return   # it was there before the run
    if _created.get() is not None:
        _created.get().append((_remove_if_empty, path))


@contextmanager
def removed_on_failure():
    """If the block raises, remove every regular file a writer opened in it,
    then every directory ``make_output_dir`` created in it that is empty,
    deepest first."""
    token = _created.set([])
    try:
        yield
    except BaseException:
        for remove, path in reversed(_created.get()):
            with suppress(FileNotFoundError):
                remove(path)
        raise
    finally:
        _created.reset(token)


def _remove_if_empty(path) -> None:
    with suppress(OSError):   # a directory something else has written into
        os.rmdir(path)


def _open_output(path, mode="w"):
    """The one place an output file is opened: as UTF-8 text that keeps its
    ``\\n`` line ends, or for mode ``"wb"`` as bytes."""
    text = {} if mode == "wb" else {"encoding": "utf-8", "newline": ""}
    fh = open(path, mode, **text)
    # a device or a FIFO named as an output is written to, never removed
    if _created.get() is not None and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        _created.get().append((os.remove, path))
    return fh


@contextmanager
def _output(path, mode="w"):
    """``_open_output(path, mode)``, closed on leaving; an ``OSError`` raised
    while writing or closing names ``path``."""
    try:
        with _open_output(path, mode) as fh:
            yield fh
    except OSError as exc:
        if exc.filename is None:
            exc.filename = os.fspath(path)
        raise


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


# declared type of a dataclass field -> (accepted types, name in the error)
_NUMBER_FIELDS = {"int": ((int,), "int"), "float": ((int, float), "a real number")}


def check_field_types(obj) -> None:
    """Raise ``SchemaError`` naming the first field of the dataclass ``obj``
    declared ``int`` that does not hold an int, or declared ``float`` that
    does not hold a real number; a bool is neither."""
    for f in fields(obj):
        kind = _NUMBER_FIELDS.get(getattr(f.type, "__name__", f.type))
        if kind is None:
            continue
        value = getattr(obj, f.name)
        if isinstance(value, bool) or not isinstance(value, kind[0]):
            raise SchemaError(f"{f.name} must be {kind[1]}, got {value!r}")


@cache
def _init_fields(cls) -> tuple[tuple[str, bool], ...]:
    """``(name, required)`` of each init field of the dataclass ``cls``."""
    return tuple((f.name, f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls) if f.init)


def from_record(cls, rec: dict):
    """``cls(**...)`` from the keys of ``rec`` named like the init fields of
    the dataclass ``cls``; other keys, and those of fields the dataclass
    derives itself (``init=False``), are ignored.  An absent key leaves the
    field's default, and raises ``KeyError`` for a field without one."""
    kwargs = {}
    for name, required in _init_fields(cls):
        if required or name in rec:
            kwargs[name] = rec[name]
    return cls(**kwargs)


def check_header(path, expected: list[str]) -> None:
    """Raise ``SchemaError("path:1: ...")`` unless the CSV header is ``expected``."""
    def check(names: list[str]) -> None:
        for col, (got, want) in enumerate(zip_longest(names, expected), 1):
            if got != want:
                raise ValueError(f"header column {col} is {got!r}, expected {want!r}")

    for _ in _read(path, lambda lines: [next(csv.reader(lines), [])], check):
        pass


def json_object(text: str) -> dict:
    """The JSON object ``text`` holds; any other JSON value is a ``TypeError``."""
    record = json.loads(text)
    if not isinstance(record, dict):
        raise TypeError(f"expected a JSON object, got {type(record).__name__}")
    return record


def _json_objects(lines):
    for line in lines:
        if line.strip():
            yield json_object(line)


def _csv_rows(lines):
    reader = csv.reader(lines)
    header = next(reader, [])
    for row in reader:
        if row:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} cells, got {len(row)}")
            yield dict(zip(header, row))


def _fault(where: str, exc: Exception) -> SchemaError:
    cause = exc
    if isinstance(exc, KeyError):
        cause = f"missing key {exc}"
    elif isinstance(exc, json.JSONDecodeError):   # its own line count is 1
        cause = f"{exc.msg} at column {exc.pos + 1}"
    return SchemaError(f"{where}: {cause}")


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
        except _FAULTS as exc:
            raise _fault(f"{path}:{lineno}", exc) from exc
