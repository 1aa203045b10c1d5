import warnings
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

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
