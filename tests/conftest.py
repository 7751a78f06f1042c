import os
from pathlib import Path

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run (derandomize also turns
# off the example database), so a tier-1 result does not depend on the run.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")

RGDP_SCHEMA_HINT = (
    "quarterly real-GDP forecast file with columns X1 (dates 'YYYY:QQ', e.g. "
    "2007:01), SPFfor_StepK, NCfor_StepK, RealizK for steps K = 1..5"
)


def _rgdp_location() -> Path:
    """RGDP_CSV if set, else data/RGDP.csv under the repository root."""
    env = os.environ.get("RGDP_CSV")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "RGDP.csv"


@pytest.fixture(scope="session")
def rgdp_path():
    """Path to the external real-GDP dataset, or skip when it isn't available.

    Looked up from the RGDP_CSV environment variable first, then from
    data/RGDP.csv under the repository root. The file is not bundled.
    """
    path = _rgdp_location()
    if not path.exists():
        pytest.skip(
            f"real-GDP dataset not found (set RGDP_CSV or add data/RGDP.csv): "
            f"expected a {RGDP_SCHEMA_HINT}"
        )
    return path


@pytest.fixture(scope="session")
def rgdp_optional():
    """Like rgdp_path, but returns None instead of skipping when absent.

    For tests that mix an unconditional synthetic check with an extra
    real-data check that should only run when the file is present.
    """
    path = _rgdp_location()
    return path if path.exists() else None
