"""One reader for the word lists in scamscout/data."""

from importlib import resources

import pytest

from scamscout.datalists import parse_list, read_list


def test_comments_and_blank_lines_are_skipped_whatever_the_indent():
    text = "# header\n  # indented note\n\tNike  \n\n   \nAir Jordan\n#x\n"
    assert parse_list(text) == {"nike", "air jordan"}


def _previous_readers(text: str) -> tuple[frozenset, frozenset]:
    """The two readers the shared one replaced: comment check before and after strip."""
    check_then_strip = frozenset(
        line.strip().lower() for line in text.splitlines()
        if line.strip() and not line.startswith("#"))
    strip_then_check = frozenset(
        line.strip().lower() for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#"))
    return check_then_strip, strip_then_check


@pytest.mark.parametrize("name", ["brands.txt", "ambiguous_brands.txt",
                                  "brand_context.txt", "cheap_tlds.txt",
                                  "cheap_registrars.txt", "free_email_providers.txt"])
def test_default_lists_are_unchanged(name):
    text = resources.files("scamscout.data").joinpath(name).read_text("utf-8")
    check_then_strip, strip_then_check = _previous_readers(text)
    assert read_list(name) == check_then_strip == strip_then_check
    assert read_list(name)
