import pytest
from mpmath.ctx_mp_python import _mpf

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
def float_calls(monkeypatch):
    """A list that grows by one for every float(mpf) made in the test."""
    calls = []
    convert = _mpf.__float__

    def counted(x):
        calls.append(None)
        return convert(x)

    monkeypatch.setattr(_mpf, "__float__", counted)
    return calls
