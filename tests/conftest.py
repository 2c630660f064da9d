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


@pytest.fixture
def counted_entries():
    """counted_entries(table) -> (copy, calls): a copy of the table whose
    integer entries each append to the list calls whenever they become a
    float, by division or by float()."""
    calls = []

    class Entry(int):
        def __truediv__(self, other):
            calls.append(None)
            return int(self) / other

        def __float__(self):
            calls.append(None)
            return float(int(self))

    def count(table):
        C, C_bar = (tuple(tuple(map(Entry, row)) for row in fam)
                    for fam in (table.C, table.C_bar))
        return table._replace(C=C, C_bar=C_bar), calls

    return count
