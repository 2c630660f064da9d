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
def counted_entries(monkeypatch):
    """A list that gains one item whenever an integer entry of a table
    built in the test becomes a float, by division or by float()."""
    from isingchi import correlations

    calls, stage = [], correlations._integer_table

    class Entry(int):
        def __truediv__(self, other):
            calls.append(None)
            return int(self) / other

        def __float__(self):
            calls.append(None)
            return float(int(self))

    def counted(*args):
        *fams, scale = stage(*args)
        return (*(tuple(tuple(map(Entry, row)) for row in fam)
                  for fam in fams), scale)

    monkeypatch.setattr(correlations, "_integer_table", counted)
    return calls
