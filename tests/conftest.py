import pytest

from isingchi import build_table
from isingchi.oracle import oracle_pair_correlations


@pytest.fixture(scope="session")
def table05_r30():
    """Shared k = 0.5 table, radius 30, default precision."""
    return build_table(0.5, 30)


@pytest.fixture(scope="session")
def oracle05():
    """Extrapolated cylinder tables at k = 0.5 covering indices to 5."""
    return oracle_pair_correlations(0.5, 4)
