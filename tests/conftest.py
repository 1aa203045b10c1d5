import warnings
from pathlib import Path

import pytest

from scamscout.cli import main
from walkthrough import FIXTURES, walkthrough

# hypothesis's pytest plugin imports this module to report a falsifying
# example; through libcst it warns a DeprecationWarning, which pyproject's
# filters make an error, so a failing property test would end the session
# in INTERNALERROR.  Importing it once here, warnings silenced, leaves the
# plugin a module that is already loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """The README walkthrough, run in-process once; tests assert on the
    files it writes."""
    work = tmp_path_factory.mktemp("pipeline")
    for argv in walkthrough(work):
        assert main(argv) == 0, f"stage failed: {argv}"
    return work
