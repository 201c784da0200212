import pytest

from secular3bp.averaging import QuadratureSpec


@pytest.fixture(scope="session")
def quad():
    return QuadratureSpec()
