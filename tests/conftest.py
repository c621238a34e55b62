import sys
import warnings
from pathlib import Path

import pytest

# Make tests/oracles.py and tests/reference.py importable regardless of how
# pytest was invoked.
sys.path.insert(0, str(Path(__file__).parent))

from uavnav.radio import HataValidityWarning


@pytest.fixture(autouse=True)
def _ignore_hata_validity_warning():
    """The default grid sits far outside the canonical COST 231 box, so every
    command would otherwise print the warning. A test that asserts it records
    warnings under ``simplefilter("always")``, which overrides this filter."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HataValidityWarning)
        yield
