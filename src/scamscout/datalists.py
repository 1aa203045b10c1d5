"""Word lists shipped in ``scamscout/data``: one entry per line.

Every line is stripped before anything else, so blank lines and ``#``
comments are skipped whatever their indentation; entries are lowercased.
"""

from __future__ import annotations

from importlib import resources


def parse_list(text: str) -> frozenset[str]:
    entries = (line.strip() for line in text.splitlines())
    return frozenset(
        entry.lower() for entry in entries if entry and not entry.startswith("#")
    )


def read_list(name: str) -> frozenset[str]:
    """Entries of the package data file ``name``."""
    return parse_list(
        resources.files("scamscout.data").joinpath(name).read_text("utf-8"))
