"""Data files shipped in ``scamscout/data``, and the word lists among them.

Each file is pinned: it is read only from the package, never from a path a
caller passes, so a run can be replayed.  A word list has one entry per
line.  Every line is stripped before anything else, so blank lines and
``#`` comments are skipped whatever their indentation; entries are
lowercased.
"""

from __future__ import annotations

from importlib import resources
from typing import Iterator


def parse_list(text: str) -> frozenset[str]:
    return frozenset(line.lower() for line in content_lines(text))


def read_list(name: str) -> frozenset[str]:
    """Entries of the package data file ``name``."""
    return parse_list(data_text(name))


def content_lines(text: str, comment: str = "#") -> Iterator[str]:
    """The stripped lines of ``text`` that are neither blank nor comments."""
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith(comment):
            yield line


def data_text(name: str) -> str:
    """The text of the package data file ``name``."""
    return resources.files("scamscout.data").joinpath(name).read_text("utf-8")
